// Fixture: the only caller of Widget::wobble and the only writer of
// WidgetConfig::spokes.
#include "../src/widget.hpp"

int widget_test() {
  fixture::WidgetConfig config;
  config.spokes = 6;
  return fixture::Widget(config).wobble();
}
