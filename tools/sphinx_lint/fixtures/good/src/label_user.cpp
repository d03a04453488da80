// Fixture: the program file that calls clean.hpp's label(), so the
// good tree stays clean under the test-only rule too.
#include "clean.hpp"

std::string greeting() { return fixture::label(); }
