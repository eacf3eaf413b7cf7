// Table-driven parsing of the run-mode environment variables (GSTG_SCALE,
// GSTG_SIMD, GSTG_TEMPORAL, GSTG_RESIDENCY). Each mode keeps
// one {spelling, value} table that both its *_from_env parser and its
// to_string read, so the accepted spellings and the printed names cannot
// drift apart. Private to the common layer: callers use the *_from_env and
// to_string functions of common/runconfig.h and common/simd.h.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <span>

namespace gstg {

/// One accepted spelling of a run-mode value.
template <typename T>
struct Spelling {
  const char* text;
  T value;
};

/// The spelling of `value` in `table`; "?" for a value the table lacks.
template <typename T, std::size_t N>
const char* spelling_of(const Spelling<T> (&table)[N], const T& value) {
  for (const Spelling<T>& entry : table) {
    if (entry.value == value) return entry.text;
  }
  return "?";
}

/// Throws std::invalid_argument naming `what`, the rejected value and the
/// accepted spellings.
[[noreturn]] void throw_unknown_spelling(const char* what, const char* value,
                                         std::span<const char* const> accepted);

/// The value of the entry spelled exactly `text` (strcmp: case-sensitive, no
/// trimming). Anything else throws std::invalid_argument naming `what`, the
/// value and the accepted spellings. Allocation-free unless it throws.
template <typename T, std::size_t N>
T parse_spelling(const char* what, const Spelling<T> (&table)[N], const char* text) {
  for (const Spelling<T>& entry : table) {
    if (std::strcmp(text, entry.text) == 0) return entry.value;
  }
  const char* accepted[N];
  for (std::size_t i = 0; i < N; ++i) accepted[i] = table[i].text;
  throw_unknown_spelling(what, text, accepted);
}

/// Strict parser of one run-mode variable: unset returns `fallback`, any set
/// value goes through parse_spelling, so a typo, wrong case, surrounding
/// whitespace or the empty string throws std::invalid_argument naming the
/// variable — the contract of env_positive_size. The success path compares
/// the environment's own buffer and allocates nothing: the mode parsers run
/// per frame inside render_baseline and resolve_simd_backend (lint R1).
template <typename T, std::size_t N>
T env_spelling(const char* var, const Spelling<T> (&table)[N], T fallback) {
  const char* env = std::getenv(var);  // NOLINT(concurrency-mt-unsafe): read once before worker threads exist
  return env == nullptr ? fallback : parse_spelling(var, table, env);
}

}  // namespace gstg
