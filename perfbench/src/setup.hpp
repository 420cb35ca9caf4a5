// Set-up shared by every workload: the context `spoofscope classify`,
// `report` and `serve` build before their first flow (build_context in
// tools/spoofscope_cli.cpp), rebuilt call for call with a span around
// each layer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgp/routing_table.hpp"
#include "classify/classifier.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/pipeline.hpp"
#include "data/whois.hpp"
#include "inputs.hpp"
#include "net/mapped_trace.hpp"
#include "tracer.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// Flows per batch of the one-shot commands (kChunkFlows in the CLI).
inline constexpr std::size_t kCliChunkFlows = std::size_t{1} << 17;

/// Where the flat plane comes from.
enum class PlaneSource {
  kCompile,  ///< FlatClassifier::compile (classify, report)
  kCache,    ///< state::PlaneCache hit, a warm restart (serve)
};

/// The classifier points into the routing table, so a Context never
/// moves once built.
struct Context {
  std::optional<spoofscope::net::MappedTrace> trace;
  spoofscope::bgp::RoutingTable table;
  std::optional<spoofscope::data::WhoisRegistry> whois;
  std::vector<spoofscope::net::Asn> members;
  std::unique_ptr<spoofscope::classify::Classifier> classifier;
  std::optional<spoofscope::classify::FlatClassifier> flat;
  std::uint64_t mrt_records = 0;
  bool cache_hit = false;

  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
};

/// Maps the trace, reads the routing view and RPSL registry, scans the
/// injecting members, builds FULL+org valid spaces with the RPSL
/// whitelist applied, and compiles (or cache-loads from `cache_dir`)
/// the flat plane. Strict error policy throughout, like the CLI default.
std::unique_ptr<Context> build_context(const InputFiles& files,
                                       PlaneSource source,
                                       const std::string& cache_dir,
                                       spoofscope::util::ThreadPool& pool,
                                       Tracer& tracer);

/// The label oracle for one context: a pass over the trace in CLI-sized
/// batches through both engines, plus the aggregate of the trie labels.
struct LabelCheck {
  std::uint64_t flat_digest = 0;
  std::uint64_t trie_digest = 0;
  std::uint64_t batches = 0;
  spoofscope::classify::Aggregate trie_aggregate;
};

/// Runs the oracle pass with `flat` as the plane under test. Call it
/// before any route churn patches `flat`: the trie is never patched.
LabelCheck check_labels(const Context& ctx,
                        const spoofscope::classify::FlatClassifier& flat,
                        spoofscope::util::ThreadPool& pool);

}  // namespace perfbench
