#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  Record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.start_ns = now_ns();
  spans_.push_back(r);
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  // Span is the only caller, so spans close innermost first.
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<double> Tracer::child_seconds() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      covered[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return covered;
}

double Tracer::self_seconds(std::string_view name) const {
  const auto covered = child_seconds();
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_ns < 0 || name != s.name) continue;
    total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9 - covered[i];
  }
  return total;
}

double Tracer::max_uncovered(std::string_view root) const {
  const auto covered = child_seconds();
  double worst = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_ns < 0 || root != s.name) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (dur > 0) worst = std::max(worst, 1.0 - covered[i] / dur);
  }
  return worst;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace output: " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_ns < 0) continue;
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  out.flush();
  if (!out) throw std::runtime_error("write failure on trace output: " + path);
}

}  // namespace perfbench
