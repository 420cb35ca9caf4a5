#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <malloc.h>
#include <string>

#include "inputs.hpp"
#include "util/format.hpp"

namespace perfbench {

using namespace spoofscope;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    std::getline(in, key);
  }
  return 0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::uint64_t aggregate_digest(const classify::Aggregate& agg) {
  std::uint64_t h = fnv1a64(nullptr, 0);
  for (const auto& space : agg.totals) {
    for (const auto& cell : space) {
      const double sums[] = {cell.flows, cell.packets, cell.bytes,
                             static_cast<double>(cell.members)};
      h = fnv1a64(sums, sizeof(sums), h);
    }
  }
  const double totals[] = {agg.total_packets, agg.total_bytes, agg.total_flows};
  return fnv1a64(totals, sizeof(totals), h);
}

std::vector<std::string> table1_lines(const classify::Aggregate& agg) {
  static const char* kClassNames[] = {"Bogon", "Unrouted", "Invalid", "Valid"};
  std::vector<std::string> lines;
  for (int c = 0; c < classify::kNumClasses; ++c) {
    const auto& cell = agg.totals[0][c];
    lines.push_back(
        "  " + util::pad_right(kClassNames[c], 9) +
        util::pad_left(std::to_string(cell.members) + " members", 14) +
        util::pad_left(util::human_count(cell.packets) + " pkts", 15) +
        util::pad_left(util::percent(cell.packets / agg.total_packets), 10) +
        util::pad_left(util::human_bytes(cell.bytes), 12));
  }
  return lines;
}

}  // namespace perfbench
