// Scoped environment-variable override for tests that drive READDUO_*
// knobs: sets (or, with nullptr, unsets) `name` for the object's lifetime
// and restores the previous value on exit.
#pragma once

#include <cstdlib>
#include <string>

#include "common/env.h"

namespace rd {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = env_cstr(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

}  // namespace rd
