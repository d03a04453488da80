#pragma once
/// \file widget.hpp
/// Fixture: a public API every name of which a program file reaches.

namespace fixture {

struct WidgetConfig {
  int spokes = 4;  // examples/demo.cpp assigns it too
};

class Widget {
 public:
  explicit Widget(WidgetConfig config) : config_(config) {}
  int spin() const;    // called by src/app.cpp
  int wobble() const;  // also called by bench/widget_bench.cpp

 private:
  int secret() const;  // private: never reported
  WidgetConfig config_;
};

}  // namespace fixture
