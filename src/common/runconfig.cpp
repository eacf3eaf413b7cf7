#include "common/runconfig.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include <unistd.h>

#include "common/spelling_table.h"

namespace gstg {

namespace {

constexpr Spelling<RunScale> kScaleSpellings[] = {
    {"bench", RunScale{}},
    {"small", RunScale{.resolution_divisor = 8, .gaussian_divisor = 64}},
    {"full", RunScale{.resolution_divisor = 1, .gaussian_divisor = 1}},
};

constexpr Spelling<TemporalMode> kTemporalSpellings[] = {
    {"off", TemporalMode::kOff},
    {"reuse", TemporalMode::kReuse},
    {"verify", TemporalMode::kVerify},
};

std::string join_spellings(std::span<const char* const> accepted) {
  std::string joined;
  for (const char* text : accepted) {
    if (!joined.empty()) joined += '|';
    joined += text;
  }
  return joined;
}

}  // namespace

void throw_unknown_spelling(const char* what, const char* value,
                            std::span<const char* const> accepted) {
  throw std::invalid_argument(std::string(what) + ": invalid value '" + value +
                              "' (expected one of " + join_spellings(accepted) + ")");
}

RunScale run_scale_from_env() { return env_spelling("GSTG_SCALE", kScaleSpellings, RunScale{}); }

const char* to_string(const RunScale& scale) { return spelling_of(kScaleSpellings, scale); }

TemporalMode temporal_mode_from_env(TemporalMode fallback) {
  return env_spelling("GSTG_TEMPORAL", kTemporalSpellings, fallback);
}

const char* to_string(TemporalMode mode) { return spelling_of(kTemporalSpellings, mode); }

std::size_t env_positive_size(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): read once before worker threads exist
  if (env == nullptr) return fallback;
  // std::from_chars is the strict parser here on purpose: unlike strtol
  // with a null end pointer it accepts no leading whitespace, no '+', no
  // trailing garbage — "8garbage" and " 8" are both rejected, and the end
  // pointer check catches a partially-consumed value. Parsing works on the
  // environment's own buffer: this runs inside worker-count resolution on
  // render paths, which must not allocate (lint rule R1).
  std::size_t parsed = 0;
  const char* begin = env;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument(std::string(name) + ": value out of range '" + env + "'");
  }
  if (ec != std::errc() || ptr != end || parsed == 0) {
    throw std::invalid_argument(std::string(name) + ": invalid value '" + std::string(env) +
                                "' (expected a positive integer)");
  }
  return parsed;
}

void reject_unknown_gstg_env() {
  for (char** entry = environ; entry != nullptr && *entry != nullptr; ++entry) {
    const std::string_view assignment(*entry);
    if (!assignment.starts_with("GSTG_")) continue;
    const std::string_view name = assignment.substr(0, assignment.find('='));
    bool known = false;
    for (const char* var : kGstgEnvVars) known = known || name == var;
    if (!known) {
      throw std::invalid_argument(std::string(name) +
                                  ": unknown GSTG_* environment variable (retired or "
                                  "misspelled; see docs/CONFIG.md)");
    }
  }
}

std::size_t worker_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env_positive_size("GSTG_THREADS", hw == 0 ? 1 : hw);
}

}  // namespace gstg
