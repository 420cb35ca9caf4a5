// Span recorder for the traced run. The driver opens one span around
// each call it makes into a spoofscope layer; spans stay in memory and
// are written out when the run ends. Spans are opened and closed on the
// driver's own thread only, so they nest strictly: a span's self time is
// its duration minus the summed durations of its direct children.
//
// With tracing off, open() returns -1 and close() does nothing, so the
// untraced run pays one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open span. `name` must be a
  /// string literal (it is stored as a pointer). Returns -1 when off.
  int open(const char* name);
  void close(int id);

  /// Summed self time of every span named `name`, in seconds.
  double self_seconds(std::string_view name) const;

  /// Over every span named `root`, the largest share of its duration
  /// that its direct children do not cover (0 when there is none).
  double max_uncovered(std::string_view root) const;

  /// Writes the spans as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto). Each event carries its parent's index in "args".
  void write(const std::string& path) const;

 private:
  struct Record {
    const char* name = nullptr;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
  };
  std::int64_t now_ns() const;
  std::vector<double> child_seconds() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
