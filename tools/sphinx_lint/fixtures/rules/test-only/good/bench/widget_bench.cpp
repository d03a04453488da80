// Fixture: a bench is a program file, so its call counts as a use.
#include "../src/widget.hpp"

int widget_bench() { return fixture::Widget(fixture::WidgetConfig{}).wobble(); }
