#include "obs/log.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace stpt::obs {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};

// Sink state: nullptr file means the stderr text sink. The mutex also
// serialises concurrent Log calls so events never interleave mid-line.
std::mutex g_sink_mu;
std::FILE* g_file = nullptr;  // owned; JSONL when non-null

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "unknown";
}

bool ParseLogLevel(const std::string& text, LogLevel* out) {
  for (const LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                               LogLevel::kError, LogLevel::kOff}) {
    if (text == LogLevelName(level)) {
      *out = level;
      return true;
    }
  }
  return false;
}

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

bool LogEnabled(LogLevel level) {
  return level != LogLevel::kOff &&
         static_cast<int>(level) >= g_level.load(std::memory_order_relaxed);
}

bool SetLogFile(const std::string& path) {
  std::FILE* file = nullptr;
  if (!path.empty()) {
    file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
  }
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_file != nullptr) std::fclose(g_file);
  g_file = file;
  return true;
}

void Log(LogLevel level, const char* component, const std::string& message,
         std::initializer_list<LogField> fields) {
  if (!LogEnabled(level)) return;
  std::ostringstream os;
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_file != nullptr) {
    os << "{\"ts_ns\": " << NowNanos() << ", \"level\": \"" << LogLevelName(level)
       << "\", \"component\": \"" << JsonEscape(component)
       << "\", \"message\": \"" << JsonEscape(message) << "\"";
    for (const LogField& field : fields) {
      os << ", \"" << JsonEscape(field.first) << "\": \""
         << JsonEscape(field.second) << "\"";
    }
    os << "}\n";
    const std::string line = os.str();
    std::fwrite(line.data(), 1, line.size(), g_file);
    std::fflush(g_file);
  } else {
    os << "[" << LogLevelName(level) << "] " << component << ": " << message;
    bool first = true;
    for (const LogField& field : fields) {
      os << (first ? " (" : ", ") << field.first << "=" << field.second;
      first = false;
    }
    if (!first) os << ")";
    os << "\n";
    const std::string line = os.str();
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
  }
}

}  // namespace stpt::obs
