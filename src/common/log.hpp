// Minimal leveled logger.  Defaults to warnings-only so tests and benchmarks
// stay quiet; examples raise the level to narrate what the middleware does.
// A line below the level costs one level check: SB_LOG builds no stream and
// evaluates none of its operands.
#pragma once

#include <sstream>
#include <string>

namespace switchboard {

enum class LogLevel { kDebug = 0, kInfo, kWarn, kError, kOff };

/// Global minimum level; messages below it are dropped.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

namespace detail {
void log_line(LogLevel level, const std::string& message);
}

/// One enabled log line, written when it goes out of scope.  Built only by
/// SB_LOG, and only once the level is enabled:
///   SB_LOG(kInfo) << "chain " << id << " activated";
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_{level} {}
  ~LogStream() { detail::log_line(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

namespace detail {
/// Gives a finished SB_LOG line type void, the type of its disabled arm.
/// `&` binds looser than `<<`, so it takes the whole line.
struct LogVoidify {
  void operator&(const LogStream&) {}
};
}  // namespace detail

}  // namespace switchboard

// One expression, not an `if`: a disabled line evaluates no operand, and
// SB_LOG under an unbraced `if` leaves no dangling `else`.
#define SB_LOG(severity)                                               \
  (::switchboard::LogLevel::severity < ::switchboard::log_level())     \
      ? (void)0                                                        \
      : ::switchboard::detail::LogVoidify{} &                          \
            ::switchboard::LogStream(::switchboard::LogLevel::severity)
