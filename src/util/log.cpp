#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace ehja {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
std::mutex g_emit_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(static_cast<int>(level), std::memory_order_relaxed); }

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= g_level.load(std::memory_order_relaxed);
}

void log_line(LogLevel level, std::string_view origin, std::string_view text) {
  if (!log_enabled(level)) return;
  std::scoped_lock lock(g_emit_mutex);
  if (origin.empty()) {
    std::fprintf(stderr, "[%s] %.*s\n", level_name(level),
                 static_cast<int>(text.size()), text.data());
  } else {
    std::fprintf(stderr, "[%s] %.*s: %.*s\n", level_name(level),
                 static_cast<int>(origin.size()), origin.data(),
                 static_cast<int>(text.size()), text.data());
  }
}

}  // namespace ehja
