// Fixture: an example that varies the option, so it is no test-only knob.
#include "../src/widget.hpp"

int demo() {
  fixture::WidgetConfig config;
  config.spokes = 8;
  return fixture::Widget(config).spin();
}
