// serve-churn: the resident service (service::Server, 2 shards) on a
// plane loaded through state::PlaneCache, fed pre-decoded 8192-flow
// batches by one load-generator thread — this one — with a barrier
// after each batch. Every 2^18 flows a 100-route reload_updates lands,
// alternating the forward and inverse churn files; every 2^20 flows
// Server::checkpoint() appends to the per-shard delta chains. Replays of
// the trace shift timestamps by whole trace spans, so the detector never
// sees time go backwards.
//
// Phases, cut at fixed flow counts so every run makes the same
// operations in the same phase:
//  - warm-up, closed loop up to the first checkpoint (the chain's base
//    snapshot at 2^20 flows), which also covers the first forward/inverse
//    reload pairs — the first reload remaps the whole base table;
//  - open loop at a fixed 4M flows/s over the chain's 16 delta appends;
//  - closed loop, each batch submitted as soon as the previous barrier
//    returns, over the 16 appends of each of the next two chain cycles.
// The checkpoint after 16 appends rebases the chain: a full snapshot,
// then the 16 links unlinked on the shard thread. Where unlink is slow
// (ext4 mounted with `discard`) that stalls the service for 0.3-2 s, a
// time set by the host's disk that varied 2x from run to run here; one
// such stall in a timed phase swamps everything the program does in it.
// So the step that rebases runs between timed phases: it is made, and
// checked by the oracle, and its checkpoint is reported on its own as
// state.checkpoint_max_s, but no end-to-end metric includes it.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <variant>

#include "bgp/mrt_lite.hpp"
#include "classify/streaming.hpp"
#include "net/flow_batch.hpp"
#include "service/merge.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "setup.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace spoofscope;

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kBatchFlows = 8192;
constexpr std::uint64_t kReloadEvery = std::uint64_t{1} << 18;
constexpr std::uint64_t kCheckpointEvery = std::uint64_t{1} << 20;
constexpr double kOpenLoopFlowsPerSecond = 4e6;
/// Chain cycles the closed loop spans.
constexpr std::uint64_t kClosedLoopCycles = 2;

/// The trace, decoded once into 8192-flow batches and replayed with
/// timestamps shifted by a whole trace span per replay.
class Replayer {
 public:
  explicit Replayer(const net::MappedTrace& trace) {
    net::MappedTraceReader reader(trace, util::ErrorPolicy::kStrict);
    net::FlowBatch batch;
    std::uint32_t lo = UINT32_MAX, hi = 0;
    while (reader.next_batch(batch, kBatchFlows) > 0) {
      for (const std::uint32_t ts : batch.ts()) {
        lo = std::min(lo, ts);
        hi = std::max(hi, ts);
      }
      flows_ += batch.size();
      base_.push_back(batch);
    }
    if (base_.empty()) throw std::runtime_error("empty trace");
    span_ = hi - lo + 1;
  }

  std::size_t batches() const { return base_.size(); }
  std::uint64_t flows() const { return flows_; }
  const std::vector<net::FlowBatch>& base() const { return base_; }

  /// Batch `index` of replay `replay`.
  void make(std::uint32_t replay, std::uint32_t index, net::FlowBatch& out) const {
    const net::FlowBatch& src = base_[index];
    const std::uint32_t shift = replay * span_;
    out.clear();
    out.reserve(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      net::FlowRecord rec = src.record(i);
      rec.ts += shift;
      out.push_back(rec);
    }
  }

 private:
  std::vector<net::FlowBatch> base_;
  std::uint64_t flows_ = 0;
  std::uint32_t span_ = 0;
};

/// One entry of the operation log the oracle replays.
struct Op {
  enum Kind { kBatch, kReload, kCheckpoint } kind;
  std::uint32_t a = 0;  ///< batch: replay; reload: 0 forward, 1 inverse
  std::uint32_t b = 0;  ///< batch: index in the replay
};

std::vector<bgp::UpdateMessage> read_updates(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open updates file: " + path);
  std::vector<bgp::UpdateMessage> out;
  for (auto& rec : bgp::read_mrt(in, util::ErrorPolicy::kStrict)) {
    if (auto* u = std::get_if<bgp::UpdateMessage>(&rec)) out.push_back(*u);
  }
  return out;
}

/// Bytes of every file in `dir` that is new or changed since `seen`.
std::uint64_t changed_bytes(
    const std::string& dir,
    std::map<std::string, std::pair<std::uintmax_t,
                                    std::filesystem::file_time_type>>& seen) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto key = entry.path().filename().string();
    const std::pair now{entry.file_size(), entry.last_write_time()};
    if (seen[key] != now) bytes += now.first;
    seen[key] = now;
  }
  return bytes;
}

/// The load generator: submits batches, drives the churn and checkpoint
/// cadence, and logs every operation for the oracle.
class LoadGen {
 public:
  LoadGen(service::Server& server, const Replayer& replay,
          const InputFiles& files, std::string ckpt_dir)
      : server_(server), replay_(replay), files_(files),
        ckpt_dir_(std::move(ckpt_dir)) {
    advance(next_);
  }

  /// Spans go here; the counters below count only while it is enabled.
  Tracer* tracer = nullptr;

  std::uint64_t reloads = 0, patch_changed = 0, patch_redundant = 0;
  std::uint64_t checkpoints = 0, checkpoint_bytes = 0;
  double first_reload_s = -1;
  double checkpoint_max_s = 0;  ///< slowest checkpoint, traced or not

  std::uint64_t sent() const { return sent_; }
  const std::vector<Op>& log() const { return log_; }
  std::size_t next_size() const { return next_.size(); }

  /// Submits the prepared batch, prepares the following one while the
  /// shards work, barriers, then runs any reload or checkpoint now due.
  /// Returns when the barrier returned.
  Clock::time_point step() {
    {
      const Span span(*tracer, "service.submit");
      server_.submit_batch(next_);
    }
    log_.push_back(pending_);
    const std::uint64_t before = sent_;
    sent_ += next_.size();
    {
      const Span span(*tracer, "loadgen.prepare");
      advance(spare_);
    }
    {
      const Span span(*tracer, "service.barrier_wait");
      server_.barrier();
    }
    const auto done = Clock::now();
    std::swap(next_, spare_);
    if (sent_ / kReloadEvery != before / kReloadEvery) reload();
    if (sent_ / kCheckpointEvery != before / kCheckpointEvery) checkpoint();
    return done;
  }

 private:
  void advance(net::FlowBatch& out) {
    pending_ = {Op::kBatch, replay_no_, index_};
    replay_.make(replay_no_, index_, out);
    if (++index_ == replay_.batches()) {
      index_ = 0;
      ++replay_no_;
    }
  }

  void reload() {
    const std::uint32_t which = static_cast<std::uint32_t>(reload_count_++ % 2);
    const auto t0 = Clock::now();
    service::ReloadResult r;
    {
      const Span span(*tracer, "service.reload");
      r = server_.reload_updates(which == 0 ? files_.forward : files_.inverse);
    }
    if (first_reload_s < 0) first_reload_s = seconds_between(t0, Clock::now());
    log_.push_back({Op::kReload, which, 0});
    if (!tracer->enabled()) return;
    ++reloads;
    patch_changed += r.stats.changed ? 1 : 0;
    patch_redundant += r.stats.redundant;
  }

  void checkpoint() {
    const auto t0 = Clock::now();
    {
      const Span span(*tracer, "state.checkpoint");
      server_.checkpoint();
    }
    checkpoint_max_s =
        std::max(checkpoint_max_s, seconds_between(t0, Clock::now()));
    log_.push_back({Op::kCheckpoint, 0, 0});
    if (!tracer->enabled()) return;
    ++checkpoints;
    checkpoint_bytes += changed_bytes(ckpt_dir_, seen_);
  }

  service::Server& server_;
  const Replayer& replay_;
  const InputFiles& files_;
  std::string ckpt_dir_;
  net::FlowBatch next_, spare_;
  Op pending_{Op::kBatch, 0, 0};
  std::uint32_t replay_no_ = 0, index_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t reload_count_ = 0;
  std::vector<Op> log_;
  std::map<std::string, std::pair<std::uintmax_t,
                                  std::filesystem::file_time_type>> seen_;
};

std::uint64_t detection_digest(const std::vector<classify::SpoofingAlert>& alerts,
                               const classify::DetectorHealth& health) {
  std::uint64_t h = fnv1a64(nullptr, 0);
  for (const auto& a : alerts) {
    const std::string line = service::format_alert(a);
    h = fnv1a64(line.data(), line.size(), h);
    const double exact[] = {a.spoofed_packets_in_window, a.window_share};
    h = fnv1a64(exact, sizeof(exact), h);
  }
  const std::string line = service::format_health(health);
  return fnv1a64(line.data(), line.size(), h);
}

struct ClosedLoop {
  std::uint64_t flows = 0;
  double seconds = 0;

  double flows_per_s() const { return static_cast<double>(flows) / seconds; }
};

/// Submits batch after batch, stopping before the one that would take
/// the flow count to `end`; adds to `r`.
void closed_loop(LoadGen& gen, std::uint64_t end, ClosedLoop& r) {
  const std::uint64_t begin = gen.sent();
  const auto t0 = Clock::now();
  {
    const Span phase(*gen.tracer, "serve.closed");
    while (gen.sent() + gen.next_size() < end) gen.step();
  }
  r.seconds += seconds_between(t0, Clock::now());
  r.flows += gen.sent() - begin;
}

}  // namespace

void run_serve(const Options& opts, Tracer& tracer, Outcome& out,
               WorldResult& world) {
  const InputFiles files = InputFiles::in(opts.inputs);
  const std::string cache_dir = opts.work + "/plane-cache";
  const std::string ckpt_dir = opts.work + "/checkpoints";
  util::ThreadPool pool(1);
  Tracer off(false);

  service::ServerConfig cfg;
  cfg.shards = kShards;
  cfg.checkpoint_dir = ckpt_dir;
  cfg.pool = &pool;

  // Prime the plane cache (a cold start compiles and stores), then time
  // warm restarts: context with a cache hit, Server construction, start.
  std::filesystem::remove_all(cache_dir);
  build_context(files, PlaneSource::kCache, cache_dir, pool, off);
  reset_peak_rss();  // the cold compile is not part of a warm restart
  std::unique_ptr<Context> ctx;
  std::optional<service::Server> server;
  for (std::size_t i = 0; i < kSetups; ++i) {
    server.reset();
    ctx.reset();
    std::filesystem::remove_all(ckpt_dir);
    ++out.attempted;
    const auto t0 = Clock::now();
    ctx = build_context(files, PlaneSource::kCache, cache_dir, pool, tracer);
    {
      const Span span(tracer, "service.start");
      server.emplace(
          std::make_shared<classify::FlatClassifier>(std::move(*ctx->flat)),
          cfg);
      server->start();
    }
    world.setup_s.push_back(seconds_between(t0, Clock::now()));
    if (!ctx->cache_hit) out.fail(1, "plane cache missed on a warm restart");
  }
  const double setup_rss = peak_rss_mb();
  reset_peak_rss();  // peak_rss_mb covers serving, set-up has its own

  const Replayer replay(*ctx->trace);
  std::vector<std::size_t> per_shard(kShards, 0);
  {
    const service::ShardRouter router(kShards);
    std::vector<net::FlowBatch> lanes;
    for (const auto& b : replay.base()) {
      for (auto& lane : lanes) lane.clear();
      router.route(b, lanes);
      for (std::size_t s = 0; s < kShards; ++s) per_shard[s] += lanes[s].size();
    }
  }

  // Checkpoint k goes out when the flow count passes k * 2^20. The
  // chain's first checkpoint is a full snapshot, the next max_chain are
  // delta links, and the one after that rebases the chain: a full
  // snapshot, then every link unlinked. So full snapshots fall at
  // k = 1 + j * cycle, with cycle = max_chain + 1 checkpoints.
  const std::uint64_t cycle = cfg.max_chain + 1;
  const auto before_checkpoint = [&](std::uint64_t k) {
    return k * kCheckpointEvery;
  };

  LoadGen gen(*server, replay, files, ckpt_dir);
  gen.tracer = &off;
  while (gen.sent() < before_checkpoint(1)) gen.step();  // warm-up
  const double first_reload_s = gen.first_reload_s;

  // Open loop over the chain's delta appends, stopping before its
  // rebase. Batch k is due when the flows before it have been offered at
  // the fixed rate; its latency runs from that due time to the return of
  // its barrier, so a stall is charged to the batches queued behind it
  // as well. The generator spins to each due time.
  std::vector<double> latency_ms;
  double late_ms_max = 0;
  {
    const std::uint64_t end = before_checkpoint(1 + cycle);
    auto due = Clock::now();
    while (gen.sent() + gen.next_size() < end) {
      while (Clock::now() < due) {
      }
      late_ms_max =
          std::max(late_ms_max, seconds_between(due, Clock::now()) * 1e3);
      const double offered = static_cast<double>(gen.next_size());
      const auto done = gen.step();
      latency_ms.push_back(seconds_between(due, done) * 1e3);
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(offered / kOpenLoopFlowsPerSecond));
    }
  }

  // Closed loop over the appends of whole chain cycles. Each cycle
  // starts with the untimed step whose checkpoint rebases the chain.
  // Traced runs alternate untraced and traced cycles; comparing the two
  // gives the tracing overhead.
  ClosedLoop closed, traced;
  const std::uint64_t cycles = kClosedLoopCycles * (opts.trace ? 2 : 1);
  for (std::uint64_t i = 0; i < cycles; ++i) {
    gen.tracer = &off;
    gen.step();  // takes the flow count past checkpoint 1 + cycle * (i + 1)
    const bool traced_cycle = opts.trace && i % 2 == 1;
    gen.tracer = traced_cycle ? &tracer : &off;
    closed_loop(gen, before_checkpoint(1 + cycle * (i + 2)),
                traced_cycle ? traced : closed);
  }
  gen.tracer = &off;
  world.peak_rss_mb = peak_rss_mb();

  std::uint64_t batches = 0, reloads = 0, checkpoints = 0;
  for (const Op& op : gen.log()) {
    batches += op.kind == Op::kBatch;
    reloads += op.kind == Op::kReload;
    checkpoints += op.kind == Op::kCheckpoint;
  }
  out.attempted += batches + reloads + checkpoints;

  // Oracle: one StreamingDetector on a freshly compiled plane, fed the
  // same batches with the same churn applied at the same batch indices.
  server->drain();
  const service::ServiceStats stats = server->stats();
  const auto served = detection_digest(server->merged_alerts(), stats.merged);
  server->stop();
  {
    classify::FlatClassifier plane =
        classify::FlatClassifier::compile(*ctx->classifier, pool);
    // Table-1 totals and the label check use the plane before any churn.
    const LabelCheck check = check_labels(*ctx, plane, pool);
    if (out.table1.empty()) out.table1 = table1_lines(check.trie_aggregate);
    if (check.flat_digest != check.trie_digest) {
      out.fail(check.batches, "flat plane labels differ from the trie");
    }
    const std::vector<bgp::UpdateMessage> churn[] = {read_updates(files.forward),
                                                     read_updates(files.inverse)};
    classify::FlatClassifier::UpdateApplyOptions uopts;
    uopts.pool = &pool;
    classify::StreamingDetector detector(plane, cfg.space_idx, cfg.params);
    std::vector<classify::SpoofingAlert> alerts;
    const auto on_alert = [&alerts](const classify::SpoofingAlert& a) {
      alerts.push_back(a);
    };
    net::FlowBatch batch;
    for (const Op& op : gen.log()) {
      if (op.kind == Op::kBatch) {
        replay.make(op.a, op.b, batch);
        detector.ingest_batch(batch, on_alert);
      } else if (op.kind == Op::kReload) {
        plane.apply_updates(churn[op.a], uopts);
      }
    }
    detector.flush(on_alert);
    service::sort_alerts(alerts);
    const classify::DetectorHealth health = detector.health();
    const std::uint64_t want =
        opts.expect_digest
            ? *opts.expect_digest
            : detection_digest(alerts,
                               service::merge_health(
                                   std::span<const classify::DetectorHealth>(
                                       &health, 1)));
    if (served != want) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "served alerts+health digest %016llx != oracle %016llx",
                    static_cast<unsigned long long>(served),
                    static_cast<unsigned long long>(want));
      out.fail(batches, buf);
    }
  }

  world.latency_ms = std::move(latency_ms);
  world.flows = static_cast<double>(closed.flows);
  world.seconds = closed.seconds;
  if (!opts.trace) return;

  auto& m = world.layers;
  const double n_setup = static_cast<double>(kSetups);
  for (const char* layer :
       {"bgp.mrt_read", "bgp.table_build", "data.rpsl_parse",
        "net.member_scan", "inference.valid_space", "trie.whitelist",
        "state.plane_cache_load", "service.start"}) {
    m[std::string(layer) + "_s"] = tracer.self_seconds(layer) / n_setup;
  }
  // Only the traced closed-loop cycles hold spans; their layers are
  // reported per replay of the trace.
  const double replays = static_cast<double>(traced.flows) /
                         static_cast<double>(replay.flows());
  for (const char* layer : {"service.submit", "service.barrier_wait",
                            "service.reload", "state.checkpoint",
                            "loadgen.prepare"}) {
    m[std::string(layer) + "_s"] = tracer.self_seconds(layer) / replays;
  }
  m["service.reloads"] = static_cast<double>(gen.reloads);
  m["service.reload_first_s"] = first_reload_s;
  m["classify.patch_changed"] = static_cast<double>(gen.patch_changed);
  m["classify.patch_redundant"] = static_cast<double>(gen.patch_redundant);
  m["state.checkpoint_bytes"] =
      gen.checkpoints == 0 ? 0.0
                           : static_cast<double>(gen.checkpoint_bytes) /
                                 static_cast<double>(gen.checkpoints);
  m["state.checkpoint_max_s"] = gen.checkpoint_max_s;
  m["classify.detector_max_reorder_depth"] =
      static_cast<double>(stats.merged.max_reorder_depth);
  m["classify.detector_evictions"] = static_cast<double>(
      stats.merged.member_evictions + stats.merged.sample_evictions);
  m["loadgen.late_ms_max"] = late_ms_max;
  m["loadgen.batches"] = static_cast<double>(world.latency_ms.size());
  const double mean_shard = static_cast<double>(replay.flows()) / kShards;
  m["service.shard_skew"] =
      static_cast<double>(*std::max_element(per_shard.begin(), per_shard.end())) /
      mean_shard;
  m["bgp.mrt_records"] = static_cast<double>(ctx->mrt_records);
  m["bgp.table_prefixes"] = static_cast<double>(ctx->table.prefixes().size());
  m["net.members"] = static_cast<double>(ctx->members.size());
  m["setup.peak_rss_mb"] = setup_rss;
  m["driver.uncovered_frac"] = tracer.max_uncovered("serve.closed");
  if (m["driver.uncovered_frac"] > kMaxUncovered) {
    out.fail(1, "trace spans leave more than 15% of a closed loop uncovered");
  }
  m["trace.overhead_frac"] =
      closed.flows_per_s() / traced.flows_per_s() - 1.0;
}

}  // namespace perfbench
