#pragma once

#include <cerrno>
#include <cstdlib>

// Integer argument in [lo, hi]; false on anything else (non-numeric,
// trailing junk, out of range).
inline bool parse_int(const char* s, long lo, long hi, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v < lo || v > hi) return false;
  out = static_cast<int>(v);
  return true;
}
