// Scoped environment override for tests that exercise GSTG_* parsing.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace gstg::testutil {

/// Restores one environment variable on scope exit, so a failing test
/// cannot leak a malformed value into the rest of the suite.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* current = std::getenv(name);
    had_value_ = current != nullptr;
    if (had_value_) old_value_ = current;
  }
  ~EnvGuard() {
    if (had_value_) {
      setenv(name_.c_str(), old_value_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

  void set(const char* value) { ASSERT_EQ(setenv(name_.c_str(), value, 1), 0); }
  void unset() { ASSERT_EQ(unsetenv(name_.c_str()), 0); }

 private:
  std::string name_;
  bool had_value_ = false;
  std::string old_value_;
};

}  // namespace gstg::testutil
