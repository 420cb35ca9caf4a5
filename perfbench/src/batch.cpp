// batch-classify and batch-report: the one-shot `spoofscope classify
// --engine flat` and `spoofscope report --engine flat` paths, repeated
// over the mapped trace. Each pass makes the CLI's calls in the CLI's
// order: a MappedTraceReader over the mapping, then per 2^17-flow batch
// next_batch, FlatClassifier::classify_batch, AggregateBuilder::add (or
// StreamingReport::add) and drop_consumed, then build() (or finish()).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/streaming.hpp"
#include "inputs.hpp"
#include "net/flow_batch.hpp"
#include "setup.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace spoofscope;

namespace {

struct PassResult {
  double seconds = 0;
  std::vector<double> batch_ms;  ///< decode -> drop_consumed, per batch
  std::uint64_t records = 0;
  std::uint64_t skipped = 0;
  std::uint64_t digest = 0;  ///< aggregate (classify) or report digest
  std::uint64_t aggregate_digest = 0;
  std::uint64_t evictions = 0;
  std::uint64_t incidents = 0;
};

std::uint64_t report_digest(const analysis::ReportResult& r) {
  const std::string text = analysis::format_report(r, r.incidents.size());
  std::uint64_t h = fnv1a64(text.data(), text.size());
  const std::uint64_t tail[] = {aggregate_digest(r.aggregate), r.flows,
                                r.evictions};
  return fnv1a64(tail, sizeof(tail), h);
}

PassResult run_pass(const Context& ctx, bool report, util::ThreadPool& pool,
                    Tracer& tracer) {
  PassResult r;
  std::optional<classify::Aggregate> agg;
  std::optional<analysis::ReportResult> result;
  util::IngestStats stats;
  const auto t0 = Clock::now();
  {
    const Span pass(tracer, "pass");
    std::optional<net::MappedTraceReader> reader;
    {
      const Span span(tracer, "net.decode");
      reader.emplace(*ctx.trace, util::ErrorPolicy::kStrict, &stats);
    }
    // The builders are made and freed inside spans: the report's bounded
    // tables take a noticeable share of a pass to allocate and release.
    const std::size_t spaces = ctx.classifier->space_count();
    std::optional<classify::AggregateBuilder> builder;
    std::optional<analysis::StreamingReport> streaming;
    if (report) {
      const Span span(tracer, "analysis.report_alloc");
      analysis::ReportOptions ropts;
      ropts.limits = analysis::ReportLimits::production();
      streaming.emplace(spaces, ropts);
    } else {
      const Span span(tracer, "classify.aggregate");
      builder.emplace(spaces);
    }
    net::FlowBatch batch;
    std::vector<classify::Label> labels;
    for (;;) {
      const auto b0 = Clock::now();
      std::size_t n = 0;
      {
        const Span span(tracer, "net.decode");
        n = reader->next_batch(batch, kCliChunkFlows);
      }
      if (n == 0) break;
      labels.resize(n);
      {
        const Span span(tracer, "classify.kernel");
        ctx.flat->classify_batch(batch, labels, pool,
                                 classify::SimdKernel::kAuto);
      }
      if (report) {
        const Span span(tracer, "analysis.report_add");
        streaming->add(batch, labels);
      } else {
        const Span span(tracer, "classify.aggregate");
        builder->add(batch, labels);
      }
      {
        const Span span(tracer, "net.decode");
        reader->drop_consumed();
      }
      r.batch_ms.push_back(seconds_between(b0, Clock::now()) * 1e3);
      r.records += n;
    }
    if (report) {
      {
        const Span span(tracer, "analysis.report_finish");
        result = streaming->finish();
      }
      const Span span(tracer, "analysis.report_alloc");
      streaming.reset();
    } else {
      const Span span(tracer, "classify.aggregate");
      agg = builder->build();
      builder.reset();
    }
  }
  r.seconds = seconds_between(t0, Clock::now());
  r.skipped = stats.records_skipped;
  if (report) {
    r.digest = report_digest(*result);
    r.aggregate_digest = aggregate_digest(result->aggregate);
    r.evictions = result->evictions;
    r.incidents = result->incidents.size();
  } else {
    r.digest = r.aggregate_digest = aggregate_digest(*agg);
  }
  return r;
}

/// Timed passes until `seconds` have gone by and at least three ran
/// (three of each kind when `traced` is given). With `traced`, traced
/// and untraced passes alternate, so drift on a shared machine does not
/// show up as tracing overhead.
void timed_passes(const Context& ctx, bool report, util::ThreadPool& pool,
                  double seconds, std::vector<PassResult>& plain,
                  Tracer* tracer, std::vector<PassResult>& traced) {
  Tracer off(false);
  const auto start = Clock::now();
  while (plain.size() < 3 || (tracer != nullptr && traced.size() < 3) ||
         seconds_between(start, Clock::now()) < seconds) {
    if (tracer != nullptr && traced.size() < plain.size()) {
      traced.push_back(run_pass(ctx, report, pool, *tracer));
    } else {
      plain.push_back(run_pass(ctx, report, pool, off));
    }
  }
}

double median_seconds(const std::vector<PassResult>& passes) {
  std::vector<double> s;
  for (const auto& p : passes) s.push_back(p.seconds);
  return median(std::move(s));
}

}  // namespace

void run_batch(const Options& opts, bool report, Tracer& tracer, Outcome& out,
               WorldResult& world) {
  const InputFiles files = InputFiles::in(opts.inputs);
  util::ThreadPool pool(1);  // `--threads 1`, the CLI default
  Tracer off(false);

  // Set-up, repeated; the last context serves the passes. The previous
  // context is released first so set-ups do not stack in peak RSS.
  std::unique_ptr<Context> ctx;
  for (std::size_t i = 0; i < kSetups; ++i) {
    ctx.reset();
    ++out.attempted;
    const auto t0 = Clock::now();
    ctx = build_context(files, PlaneSource::kCompile, "", pool, tracer);
    world.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const double setup_rss = peak_rss_mb();
  reset_peak_rss();  // peak_rss_mb covers the passes, set-up has its own

  run_pass(*ctx, report, pool, off);  // warm-up: page cache, allocator
  std::vector<PassResult> passes;
  std::vector<PassResult> traced;
  timed_passes(*ctx, report, pool, opts.seconds, passes,
               opts.trace ? &tracer : nullptr, traced);
  world.peak_rss_mb = peak_rss_mb();

  std::uint64_t batches = 0;
  for (const auto* set : {&passes, &traced}) {
    for (const auto& p : *set) batches += p.batch_ms.size();
  }
  for (const auto& p : passes) {
    world.latency_ms.insert(world.latency_ms.end(), p.batch_ms.begin(),
                            p.batch_ms.end());
  }
  out.attempted += batches;

  // Correctness, outside every timed region.
  const LabelCheck check = check_labels(*ctx, *ctx->flat, pool);
  if (out.table1.empty()) out.table1 = table1_lines(check.trie_aggregate);
  const std::uint64_t want_labels = opts.expect_digest && !report
                                        ? *opts.expect_digest
                                        : check.trie_digest;
  if (check.flat_digest != want_labels) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "flat label digest %016llx != expected %016llx",
                  static_cast<unsigned long long>(check.flat_digest),
                  static_cast<unsigned long long>(want_labels));
    out.fail(batches, buf);
  }
  const std::uint64_t want_pass =
      report ? (opts.expect_digest ? *opts.expect_digest : passes[0].digest)
             : aggregate_digest(check.trie_aggregate);
  const std::uint64_t want_agg = aggregate_digest(check.trie_aggregate);
  for (const auto* set : {&passes, &traced}) {
    for (const auto& p : *set) {
      if (p.digest != want_pass || p.aggregate_digest != want_agg) {
        out.fail(p.batch_ms.size(),
                 report ? "a pass's report digest differs"
                        : "a pass's aggregate differs from the trie oracle");
      }
      if (p.skipped != 0) out.fail(p.skipped, "records quarantined");
    }
  }

  const auto& ref = passes.front();
  world.flows = static_cast<double>(ref.records);
  world.seconds = median_seconds(passes);
  if (!opts.trace) return;

  auto& m = world.layers;
  const double n_setup = static_cast<double>(kSetups);
  const double n_pass = static_cast<double>(traced.size());
  for (const char* layer :
       {"bgp.mrt_read", "bgp.table_build", "data.rpsl_parse",
        "net.member_scan", "inference.valid_space", "trie.whitelist",
        "classify.compile"}) {
    m[std::string(layer) + "_s"] = tracer.self_seconds(layer) / n_setup;
  }
  for (const char* layer :
       {"net.decode", "classify.kernel", "classify.aggregate",
        "analysis.report_alloc", "analysis.report_add",
        "analysis.report_finish"}) {
    m[std::string(layer) + "_s"] = tracer.self_seconds(layer) / n_pass;
  }
  m["bgp.mrt_records"] = static_cast<double>(ctx->mrt_records);
  m["bgp.table_prefixes"] = static_cast<double>(ctx->table.prefixes().size());
  m["net.members"] = static_cast<double>(ctx->members.size());
  m["setup.peak_rss_mb"] = setup_rss;
  m["net.records"] = static_cast<double>(ref.records);
  m["net.bytes"] = static_cast<double>(std::filesystem::file_size(files.trace));
  m["net.records_skipped"] = static_cast<double>(ref.skipped);
  if (report) {
    m["analysis.evictions"] = static_cast<double>(ref.evictions);
    m["analysis.incidents"] = static_cast<double>(ref.incidents);
  }
  m["driver.uncovered_frac"] = tracer.max_uncovered("pass");
  if (m["driver.uncovered_frac"] > kMaxUncovered) {
    out.fail(1, "trace spans leave more than 15% of a pass uncovered");
  }
  m["trace.overhead_frac"] = median_seconds(traced) / median_seconds(passes) - 1.0;
}

}  // namespace perfbench
