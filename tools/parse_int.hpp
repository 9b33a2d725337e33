#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <type_traits>

// One whole number of T's kind; false on anything else (non-numeric,
// trailing junk, a sign an unsigned T cannot take, overflow, or a
// non-finite double).
template <typename T>
bool parse_number(const char* s, T& out) {
  const char* last = s + std::strlen(s);
  T v{};
  const auto [end, ec] = std::from_chars(s, last, v);
  if (ec != std::errc{} || end != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  out = v;
  return true;
}

// Integer in [lo, hi].
inline bool parse_int(const char* s, long lo, long hi, int& out) {
  int v = 0;
  if (!parse_number(s, v) || v < lo || v > hi) return false;
  out = v;
  return true;
}
