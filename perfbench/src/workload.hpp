// What every workload shares: its options, its outcome, and the small
// statistics and correctness helpers the workloads use.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "classify/pipeline.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Set-ups timed per world; setup_s is the median over all of a run's.
inline constexpr std::size_t kSetups = 3;

/// Largest share of a batch pass or closed-loop cycle that a traced run
/// may leave outside every layer span.
inline constexpr double kMaxUncovered = 0.15;

/// One world's run.
struct Options {
  std::string inputs;  ///< directory generate_inputs wrote
  std::string work;    ///< scratch for the plane cache and checkpoints
  double seconds = 10;  ///< batch workloads: timed passes last this long
  bool trace = false;
  /// Replaces the oracle's digest, so a test can prove a mismatch fails.
  std::optional<std::uint64_t> expect_digest;
};

/// What one world's run measured. A run measures several worlds and
/// pools these (main.cpp).
struct WorldResult {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
  double flows = 0;  ///< flows_per_s = sum of flows / sum of seconds
  double seconds = 0;
  double peak_rss_mb = 0;
  /// Per-layer metrics (traced runs only).
  std::map<std::string, double> layers;
};

/// Operation accounting and the CLI cross-check data of a whole run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// The Table-1 rows `spoofscope classify` prints for the first world.
  std::vector<std::string> table1;

  void fail(std::uint64_t operations, std::string why) {
    failed += operations;
    failures.push_back(std::move(why));
  }
};

/// Run one workload on one world, accumulating into `out` (which keeps
/// the counts made before a throw) and `world`.
void run_batch(const Options& opts, bool report, Tracer& tracer, Outcome& out,
               WorldResult& world);
void run_serve(const Options& opts, Tracer& tracer, Outcome& out,
               WorldResult& world);

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set since the last reset_peak_rss() (VmHWM), in MiB.
double peak_rss_mb();

/// Returns freed heap to the kernel and restarts the VmHWM count.
void reset_peak_rss();

/// Exact digest of an aggregate's totals.
std::uint64_t aggregate_digest(const spoofscope::classify::Aggregate& agg);

/// The Table-1 lines `spoofscope classify` prints for `agg`, formatted
/// by the same library calls.
std::vector<std::string> table1_lines(const spoofscope::classify::Aggregate& agg);

}  // namespace perfbench
