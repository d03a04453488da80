#pragma once
/// \file widget.hpp
/// Fixture: a public API with names that only a test reaches.

namespace fixture {

struct WidgetConfig {
  int spokes = 4;  // read by src/app.cpp, assigned only by a test
};

class Widget {
 public:
  explicit Widget(WidgetConfig config) : config_(config) {}
  int spin() const;    // called by src/app.cpp
  int wobble() const;  // called only by tests/widget_test.cpp

 private:
  int secret() const;  // private: never reported
  WidgetConfig config_;
};

}  // namespace fixture
