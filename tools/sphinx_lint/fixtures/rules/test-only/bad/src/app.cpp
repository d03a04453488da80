/// \file app.cpp
#include "widget.hpp"

int run_app() {
  fixture::WidgetConfig config;
  const fixture::Widget widget(config);
  return widget.spin() + config.spokes;
}
