#pragma once

#include <cstdio>
#include <utility>

namespace hawkeye::sim {

/// Minimal leveled logger. Simulation runs are silent by default;
/// inspect_run raises the level to print the poll-by-poll trail. Not
/// thread-safe by design — the simulator is single-threaded.
enum class LogLevel { kSilent, kDebug };

class Logger {
 public:
  static LogLevel& level() {
    static LogLevel lvl = LogLevel::kSilent;
    return lvl;
  }

  /// Whether debug lines print. A caller whose arguments cost something to
  /// build (a formatted tuple, a heap string) checks this first, so a
  /// silent run formats nothing.
  static bool debug_enabled() { return level() >= LogLevel::kDebug; }

  template <typename... Args>
  static void debug(const char* fmt, Args&&... args) {
    if (!debug_enabled()) return;
    std::fprintf(stderr, fmt, std::forward<Args>(args)...);
    std::fputc('\n', stderr);
  }
};

}  // namespace hawkeye::sim
