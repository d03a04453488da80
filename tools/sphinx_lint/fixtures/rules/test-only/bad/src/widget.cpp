/// \file widget.cpp
#include "widget.hpp"

namespace fixture {

int Widget::spin() const { return config_.spokes + secret(); }
int Widget::wobble() const { return -spin(); }
int Widget::secret() const { return 1; }

}  // namespace fixture
