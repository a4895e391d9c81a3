// Minimal leveled logger.
//
// The simulator is single-threaded but the ThreadRuntime is not, so emission
// is serialized by a mutex.  Log lines can be prefixed with the virtual time
// of the emitting actor (see Context::log* in runtime/actor.hpp), which makes
// protocol traces readable as an event timeline.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace ehja {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Global threshold; messages below it are dropped.  Defaults to kWarn so
/// tests and benches stay quiet; examples turn it up.
void set_log_level(LogLevel level);

/// True when `level` would be emitted.
bool log_enabled(LogLevel level);

/// Emit one line (thread-safe).  `origin` is a short tag such as "sched" or
/// "join[3]"; pass empty for none.
void log_line(LogLevel level, std::string_view origin, std::string_view text);

namespace detail {

template <typename... Args>
void log_fmt(LogLevel level, std::string_view origin, const Args&... args) {
  if (!log_enabled(level)) return;
  std::ostringstream os;
  (os << ... << args);
  log_line(level, origin, os.str());
}

}  // namespace detail

}  // namespace ehja

#define EHJA_LOG(level, origin, ...)                                \
  ::ehja::detail::log_fmt((level), (origin), __VA_ARGS__)
#define EHJA_TRACE(origin, ...) EHJA_LOG(::ehja::LogLevel::kTrace, origin, __VA_ARGS__)
#define EHJA_DEBUG(origin, ...) EHJA_LOG(::ehja::LogLevel::kDebug, origin, __VA_ARGS__)
#define EHJA_INFO(origin, ...) EHJA_LOG(::ehja::LogLevel::kInfo, origin, __VA_ARGS__)
#define EHJA_WARN(origin, ...) EHJA_LOG(::ehja::LogLevel::kWarn, origin, __VA_ARGS__)
#define EHJA_ERROR(origin, ...) EHJA_LOG(::ehja::LogLevel::kError, origin, __VA_ARGS__)
