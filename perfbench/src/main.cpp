// perfbench_driver — the spoofscope benchmark's in-process driver.
//
//   perfbench_driver gen --seed N --out DIR
//       Writes the seed's paper-scale world (trace, route-server MRT,
//       RPSL registry, churn files) and prints their digests as JSON.
//   perfbench_driver run --workload W --inputs DIR[,DIR...] --work DIR
//                        --seconds S --trace 0|1
//                        [--expect-digest HEX] [--trace-out PREFIX]
//       Runs one workload (batch-classify, batch-report, serve-churn) on
//       each input world in turn and prints one JSON line: the metrics
//       pooled over the worlds, attempted/failed operations, failure
//       reasons, the first world's Table-1 rows for the CLI cross-check,
//       and the machine context. Batch workloads split --seconds evenly
//       over the worlds; serve-churn's phases are fixed flow counts.
//       Traced runs write each world's spans to PREFIX-w<i>.json.
//
// Exit codes: 0 ran and every check passed, 1 a check failed, 2 usage,
// 3 not an optimized build (nothing is measured).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "classify/batch_kernels.hpp"
#include "inputs.hpp"
#include "tracer.hpp"
#include "util/strings.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: perfbench_driver gen --seed N --out DIR\n"
               "       perfbench_driver run --workload W --inputs DIR[,DIR...]\n"
               "            --work DIR --seconds S --trace 0|1\n"
               "            [--expect-digest HEX] [--trace-out PREFIX]\n";
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument: " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

const std::string& required(const std::map<std::string, std::string>& flags,
                            const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) usage("--" + key + " is required");
  return it->second;
}

std::uint64_t parse_u64(const std::string& text, int base = 10) {
  std::size_t used = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(text, &used, base);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) usage("not a number: " + text);
  return v;
}

const char* build_type() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "release";
#else
  return "debug";
#endif
}

/// Keeps the spin work observable to the optimizer.
volatile std::uint64_t spin_sink = 0;

/// Calibrated integer spin work, sized to take ~50 ms on one thread.
std::uint64_t spin(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Measured effective parallelism: `threads` threads each doing the
/// same spin work, against one thread doing it once (1.0 = no
/// parallel speedup at all, `threads` = perfect scaling).
double effective_parallelism(unsigned threads) {
  std::uint64_t iters = 1 << 20;
  std::uint64_t sink = 0;
  for (;;) {
    const auto t0 = Clock::now();
    sink += spin(iters, iters);
    if (seconds_between(t0, Clock::now()) > 0.05) break;
    iters *= 2;
  }
  const auto time_threads = [&](unsigned n) {
    std::vector<std::uint64_t> out(n);
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < n; ++i) {
      pool.emplace_back([&out, i, iters] { out[i] = spin(iters, i + 7); });
    }
    for (auto& t : pool) t.join();
    for (const auto v : out) sink += v;
    return seconds_between(t0, Clock::now());
  };
  std::vector<double> ratio;
  for (int trial = 0; trial < 3; ++trial) {
    const double one = time_threads(1);
    ratio.push_back(threads * one / time_threads(threads));
  }
  spin_sink = sink;
  return median(ratio);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_digests(const std::string& dir) {
  std::ostringstream out;
  out << "{\"digests\":{";
  bool first = true;
  for (const auto& [name, digest] : input_digests(dir)) {
    out << (first ? "" : ",") << json_string(name) << ":\"" << std::hex
        << digest << std::dec << "\"";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Pools the worlds of a run into its metrics: end-to-end ones from the
/// untraced measurements, per-layer ones (the median over worlds) from
/// the traced run. Latency percentiles come from the untraced batches or
/// the open loop in either mode, over the pooled samples.
std::map<std::string, double> pool_worlds(const std::vector<WorldResult>& worlds,
                                          bool trace) {
  std::map<std::string, double> m;
  std::vector<double> latency;
  for (const auto& w : worlds) {
    latency.insert(latency.end(), w.latency_ms.begin(), w.latency_ms.end());
  }
  m["latency_p50_ms"] = quantile(latency, 0.5);
  m["latency_p99_ms"] = quantile(latency, 0.99);
  m["latency_samples"] = static_cast<double>(latency.size());
  if (trace) {
    std::map<std::string, std::vector<double>> layers;
    for (const auto& w : worlds) {
      for (const auto& [name, value] : w.layers) layers[name].push_back(value);
    }
    for (auto& [name, values] : layers) m[name] = median(std::move(values));
    return m;
  }
  std::vector<double> setup, rss;
  double flows = 0, seconds = 0;
  for (const auto& w : worlds) {
    setup.insert(setup.end(), w.setup_s.begin(), w.setup_s.end());
    rss.push_back(w.peak_rss_mb);
    flows += w.flows;
    seconds += w.seconds;
  }
  m["setup_s"] = median(setup);
  m["flows_per_s"] = seconds > 0 ? flows / seconds : 0;
  m["peak_rss_mb"] = median(rss);
  return m;
}

int cmd_run(const std::map<std::string, std::string>& flags) {
  Options opts;
  const std::string workload = required(flags, "workload");
  const auto inputs = spoofscope::util::split(required(flags, "inputs"), ',');
  const std::string work = required(flags, "work");
  const double seconds = std::stod(required(flags, "seconds"));
  opts.seconds = seconds / static_cast<double>(inputs.size());
  opts.trace = parse_u64(required(flags, "trace")) != 0;
  if (flags.count("expect-digest")) {
    opts.expect_digest = parse_u64(flags.at("expect-digest"), 16);
  }
  if (workload != "batch-classify" && workload != "batch-report" &&
      workload != "serve-churn") {
    usage("unknown workload: " + workload);
  }

  Outcome out;
  std::vector<WorldResult> worlds;
  for (std::size_t i = 0; i < inputs.size() && out.failed == 0; ++i) {
    opts.inputs = std::string(inputs[i]);
    opts.work = work + "/w" + std::to_string(i);
    Tracer tracer(opts.trace);
    worlds.emplace_back();
    reset_peak_rss();
    try {
      if (workload == "serve-churn") {
        run_serve(opts, tracer, out, worlds.back());
      } else {
        run_batch(opts, workload == "batch-report", tracer, out, worlds.back());
      }
    } catch (const std::exception& e) {
      ++out.attempted;  // the operation that threw
      out.fail(1, std::string("threw: ") + e.what());
    }
    if (opts.trace && flags.count("trace-out")) {
      tracer.write(flags.at("trace-out") + "-w" + std::to_string(i) + ".json");
    }
  }
  const auto metrics = pool_worlds(worlds, opts.trace);

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::ostringstream json;
  json.precision(17);
  json << "{\"workload\":" << json_string(workload)
       << ",\"build_type\":\"" << build_type() << "\""
       << ",\"simd\":\""
       << spoofscope::classify::simd_kernel_name(
              spoofscope::classify::resolve_simd_kernel(
                  spoofscope::classify::SimdKernel::kAuto))
       << "\",\"nproc\":" << nproc
       << ",\"effective_parallelism\":" << effective_parallelism(nproc)
       << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
       << ",\"failures\":[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    json << (i ? "," : "") << json_string(out.failures[i]);
  }
  json << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    json << (first ? "" : ",") << json_string(name) << ":" << value;
    first = false;
  }
  json << "},\"table1\":[";
  for (std::size_t i = 0; i < out.table1.size(); ++i) {
    json << (i ? "," : "") << json_string(out.table1[i]);
  }
  json << "]}";
  std::cout << json.str() << std::endl;
  return out.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string cmd = argv[1];
  const auto flags = parse_flags(argc, argv);
  if (std::string(build_type()) != "release") {
    std::cerr << "error: perfbench_driver was not built optimized "
                 "(need -O2/-O3 with NDEBUG); refusing to measure\n";
    return 3;
  }
  try {
    if (cmd == "gen") {
      const std::string dir = required(flags, "out");
      const unsigned threads =
          std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
      generate_inputs(parse_u64(required(flags, "seed")), dir, threads);
      print_digests(dir);
      return 0;
    }
    if (cmd == "run") return cmd_run(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage("unknown command: " + cmd);
}
