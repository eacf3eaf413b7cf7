// Malformed-environment corpus: numeric env overrides must validate the
// entire value. GSTG_THREADS=abc used to silently fall back to hardware
// concurrency and GSTG_THREADS=8garbage used to be accepted as 8; both are
// now errors that name the variable. The run-mode variables follow the same
// contract: a value that matches no spelling exactly is an error, not the
// configured mode.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/runconfig.h"
#include "common/simd.h"
#include "env_guard.h"

namespace gstg {
namespace {

using testutil::EnvGuard;

/// The thrown message must name the variable and echo the value.
void expect_env_error(const char* name, const char* value, std::size_t fallback = 3) {
  try {
    (void)env_positive_size(name, fallback);
    FAIL() << name << "=" << value << " should be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(name), std::string::npos) << message;
    EXPECT_NE(message.find(value), std::string::npos) << message;
  }
}

TEST(EnvErrors, ThreadsCorpusRejected) {
  EnvGuard guard("GSTG_THREADS");
  for (const char* bad : {"abc", "8garbage", "0", "-3", "", " 8", "8 ", "+4", "4.5", "0x8"}) {
    guard.set(bad);
    EXPECT_THROW((void)worker_thread_count(), std::invalid_argument) << "value '" << bad << "'";
  }
}

TEST(EnvErrors, ThreadsErrorNamesVariableAndValue) {
  EnvGuard guard("GSTG_THREADS");
  guard.set("8garbage");
  expect_env_error("GSTG_THREADS", "8garbage");
}

TEST(EnvErrors, ThreadsValidValuesAccepted) {
  EnvGuard guard("GSTG_THREADS");
  guard.set("8");
  EXPECT_EQ(worker_thread_count(), 8u);
  guard.set("1");
  EXPECT_EQ(worker_thread_count(), 1u);
  guard.unset();
  EXPECT_GE(worker_thread_count(), 1u);  // hardware fallback
}

TEST(EnvErrors, ThreadsOverflowRejected) {
  EnvGuard guard("GSTG_THREADS");
  guard.set("99999999999999999999999999");
  EXPECT_THROW((void)worker_thread_count(), std::invalid_argument);
}

TEST(EnvErrors, EnvPositiveSizeFallsBackOnlyWhenUnset) {
  EnvGuard guard("GSTG_TEST_KNOB");
  guard.unset();
  EXPECT_EQ(env_positive_size("GSTG_TEST_KNOB", 42), 42u);
  guard.set("7");
  EXPECT_EQ(env_positive_size("GSTG_TEST_KNOB", 42), 7u);
  guard.set("7junk");
  expect_env_error("GSTG_TEST_KNOB", "7junk", 42);
}

/// One strictly parsed run-mode variable: its accepted spellings, and a
/// probe that parses the current environment and prints the result back
/// through to_string.
struct ModeVariable {
  const char* name;
  std::vector<std::string> spellings;
  std::string (*parse_and_print)();
};

TEST(EnvErrors, ModeVariablesRejectUnknownSpellingsAndRoundTrip) {
  const ModeVariable variables[] = {
      {"GSTG_TEMPORAL", {"off", "reuse", "verify"},
       [] { return std::string(to_string(temporal_mode_from_env(TemporalMode::kOff))); }},
      {"GSTG_SIMD", {"auto", "scalar", "sse4", "avx2", "neon"},
       [] { return std::string(to_string(simd_backend_from_env())); }},
      {"GSTG_SCALE", {"bench", "small", "full"},
       [] { return std::string(to_string(run_scale_from_env())); }},
  };
  for (const ModeVariable& variable : variables) {
    EnvGuard guard(variable.name);
    for (const std::string& spelling : variable.spellings) {
      guard.set(spelling.c_str());
      EXPECT_EQ(variable.parse_and_print(), spelling) << variable.name;
    }

    const std::string& first = variable.spellings.front();
    std::string upper = first;
    for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    const std::string typo = first.substr(0, first.size() - 1);
    for (const std::string& bad : {typo, upper, first + " "}) {
      guard.set(bad.c_str());
      try {
        (void)variable.parse_and_print();
        ADD_FAILURE() << variable.name << "='" << bad << "' should be rejected";
      } catch (const std::invalid_argument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find(variable.name), std::string::npos) << message;
        EXPECT_NE(message.find("'" + bad + "'"), std::string::npos) << message;
      }
    }
  }
}

}  // namespace
}  // namespace gstg
