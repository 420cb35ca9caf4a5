#include "setup.hpp"

#include <fstream>
#include <set>
#include <stdexcept>

#include "bgp/mrt_lite.hpp"
#include "data/rpsl.hpp"
#include "inference/builder.hpp"
#include "net/flow_batch.hpp"
#include "state/plane_cache.hpp"
#include "trie/interval_set.hpp"

namespace perfbench {

using namespace spoofscope;

std::unique_ptr<Context> build_context(const InputFiles& files,
                                       PlaneSource source,
                                       const std::string& cache_dir,
                                       util::ThreadPool& pool,
                                       Tracer& tracer) {
  auto ctx = std::make_unique<Context>();
  const Span setup(tracer, "setup");

  std::vector<bgp::MrtRecord> records;
  {
    const Span span(tracer, "bgp.mrt_read");
    std::ifstream in(files.mrt);
    if (!in) throw std::runtime_error("cannot open MRT file: " + files.mrt);
    records = bgp::read_mrt(in, util::ErrorPolicy::kStrict);
  }
  ctx->mrt_records = records.size();
  {
    const Span span(tracer, "bgp.table_build");
    bgp::RoutingTableBuilder builder;
    builder.ingest(records);
    ctx->table = builder.build();
    records = {};
  }
  {
    const Span span(tracer, "data.rpsl_parse");
    std::ifstream in(files.rpsl);
    if (!in) throw std::runtime_error("cannot open RPSL file: " + files.rpsl);
    ctx->whois = data::registry_from_rpsl(
        data::parse_rpsl(in, util::ErrorPolicy::kStrict));
  }
  {
    // The CLI's scan_members: a first pass over the mapping collecting
    // the distinct injecting members into a std::set.
    const Span span(tracer, "net.member_scan");
    ctx->trace.emplace(files.trace);
    net::MappedTraceReader reader(*ctx->trace, util::ErrorPolicy::kStrict);
    net::FlowBatch batch;
    std::set<net::Asn> members;
    while (reader.next_batch(batch, kCliChunkFlows) > 0) {
      for (const net::Asn m : batch.member_in()) members.insert(m);
      batch.clear();
      reader.drop_consumed();
    }
    ctx->members.assign(members.begin(), members.end());
  }
  {
    const Span span(tracer, "inference.valid_space");
    inference::ValidSpaceFactory factory(ctx->table, asgraph::OrgMap{});
    std::vector<inference::ValidSpace> spaces;
    spaces.push_back(
        factory.build(inference::Method::kFullConeOrg, ctx->members, pool));
    ctx->classifier =
        std::make_unique<classify::Classifier>(ctx->table, std::move(spaces));
  }
  {
    const Span span(tracer, "trie.whitelist");
    auto& space = ctx->classifier->mutable_space(0);
    for (const net::Asn m : ctx->members) {
      const std::vector<net::Prefix> extra = ctx->whois->provider_assigned_of(m);
      if (!extra.empty()) {
        space.extend(m, trie::IntervalSet::from_prefixes(extra));
      }
    }
  }
  if (source == PlaneSource::kCompile) {
    const Span span(tracer, "classify.compile");
    ctx->flat.emplace(classify::FlatClassifier::compile(*ctx->classifier, pool));
  } else {
    const Span span(tracer, "state.plane_cache_load");
    state::PlaneCache cache(cache_dir);
    auto loaded = cache.load_or_compile(*ctx->classifier, &pool);
    ctx->cache_hit = loaded.hit;
    ctx->flat.emplace(std::move(loaded.plane));
  }
  return ctx;
}

LabelCheck check_labels(const Context& ctx,
                        const classify::FlatClassifier& plane,
                        util::ThreadPool& pool) {
  LabelCheck check;
  check.flat_digest = check.trie_digest = fnv1a64(nullptr, 0);
  net::MappedTraceReader reader(*ctx.trace, util::ErrorPolicy::kStrict);
  classify::AggregateBuilder builder(ctx.classifier->space_count());
  net::FlowBatch batch;
  std::vector<classify::Label> flat, trie;
  while (reader.next_batch(batch, kCliChunkFlows) > 0) {
    flat.resize(batch.size());
    trie.resize(batch.size());
    plane.classify_batch(batch, flat, pool);
    ctx.classifier->classify_batch(batch, trie, pool);
    check.flat_digest = fnv1a64(flat.data(), flat.size() * sizeof(flat[0]),
                                check.flat_digest);
    check.trie_digest = fnv1a64(trie.data(), trie.size() * sizeof(trie[0]),
                                check.trie_digest);
    builder.add(batch, trie);
    reader.drop_consumed();
    ++check.batches;
  }
  check.trie_aggregate = builder.build();
  return check;
}

}  // namespace perfbench
