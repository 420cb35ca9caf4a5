#include "inputs.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <variant>
#include <vector>

#include "bgp/collector.hpp"
#include "bgp/mrt_lite.hpp"
#include "bgp/routing_table.hpp"
#include "bgp/simulator.hpp"
#include "data/rpsl.hpp"
#include "net/trace.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

using namespace spoofscope;

namespace {

std::ofstream open_output(const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::binary);
  if (!out) throw std::runtime_error("cannot open output file: " + path);
  return out;
}

void finish_output(std::ofstream& out, const std::string& path) {
  out.flush();
  if (!out) throw std::runtime_error("write failure on output file: " + path);
}

/// The oscillating 100-route churn pair: 50 pairs that withdraw a routed
/// /N and announce its first /N+1 at the same address, so every
/// canonical prefix rank is preserved (route flap / traffic engineering),
/// and the exact inverse that restores the original view.
void churn_batches(const bgp::RoutingTable& table,
                   std::vector<bgp::UpdateMessage>& forward,
                   std::vector<bgp::UpdateMessage>& inverse) {
  const auto& routed = table.prefixes();
  if (routed.empty()) throw std::runtime_error("routing view is empty");
  const std::set<net::Prefix> in_table(routed.begin(), routed.end());
  const auto add = [](std::vector<bgp::UpdateMessage>& batch,
                      bgp::UpdateMessage::Kind kind, const net::Prefix& p) {
    bgp::UpdateMessage u;
    u.kind = kind;
    u.peer = 65000;
    u.prefix = p;
    u.path = bgp::AsPath{65000};
    batch.push_back(u);
  };
  using Kind = bgp::UpdateMessage::Kind;
  std::size_t pairs = 0;
  for (std::size_t i = 0; pairs < 50 && i < routed.size() * 97; i += 97) {
    const net::Prefix& p = routed[i % routed.size()];
    if (p.length() > 23) continue;
    const net::Prefix split(net::Ipv4Addr(p.first()),
                            static_cast<std::uint8_t>(p.length() + 1));
    if (in_table.count(split) != 0) continue;
    add(forward, Kind::kWithdraw, p);
    add(forward, Kind::kAnnounce, split);
    add(inverse, Kind::kWithdraw, split);
    add(inverse, Kind::kAnnounce, p);
    ++pairs;
  }
  if (pairs != 50) throw std::runtime_error("too few prefixes for churn");
}

void write_updates(const std::string& path,
                   const std::vector<bgp::UpdateMessage>& updates) {
  auto out = open_output(path);
  for (const auto& u : updates) out << bgp::to_mrt_line(u) << '\n';
  finish_output(out, path);
}

}  // namespace

InputFiles InputFiles::in(const std::string& dir) {
  return {dir + "/ixp.trace", dir + "/route-server.mrt",
          dir + "/registry.rpsl", dir + "/churn-forward.mrt",
          dir + "/churn-inverse.mrt"};
}

void generate_inputs(std::uint64_t seed, const std::string& dir,
                     std::size_t threads) {
  std::filesystem::create_directories(dir);
  const InputFiles files = InputFiles::in(dir);

  // What `spoofscope generate --scale ixp --seed N` writes.
  scenario::ScenarioParams params = scenario::ScenarioParams::paper();
  params.seed = seed;
  params.threads = threads;
  const auto world = scenario::build_scenario(params);
  {
    auto out = open_output(files.trace);
    net::write_trace(out, world->trace());
    finish_output(out, files.trace);
  }
  {
    const bgp::Simulator sim(world->topology());
    const auto plan = bgp::make_announcement_plan(world->topology(),
                                                  params.plan, seed ^ 0xb1a);
    std::vector<bgp::CollectorSpec> specs(1);
    specs[0].name = "ixp-route-server";
    specs[0].feeders = world->ixp().route_server_feeders();
    specs[0].full_feed = false;
    auto out = open_output(files.mrt);
    bgp::propagate_collect(
        sim, plan, specs, world->pool(),
        [&out](std::size_t, const bgp::MrtRecord& r) {
          std::visit(
              [&out](const auto& rec) { out << bgp::to_mrt_line(rec) << '\n'; },
              r);
        });
    finish_output(out, files.mrt);
  }
  {
    auto out = open_output(files.rpsl);
    out << data::registry_to_rpsl(world->whois());
    finish_output(out, files.rpsl);
  }

  // The churn is drawn from the routing view the workloads build from
  // route-server.mrt, so every withdrawal hits a routed prefix.
  std::ifstream in(files.mrt);
  bgp::RoutingTableBuilder builder;
  builder.ingest(bgp::read_mrt(in));
  const bgp::RoutingTable table = builder.build();
  std::vector<bgp::UpdateMessage> forward, inverse;
  churn_batches(table, forward, inverse);
  write_updates(files.forward, forward);
  write_updates(files.inverse, inverse);
}

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::map<std::string, std::uint64_t> input_digests(const std::string& dir) {
  const InputFiles files = InputFiles::in(dir);
  std::map<std::string, std::uint64_t> out;
  for (const std::string& path :
       {files.trace, files.mrt, files.rpsl, files.forward, files.inverse}) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open input file: " + path);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    out[std::filesystem::path(path).filename().string()] =
        fnv1a64(bytes.data(), bytes.size());
  }
  return out;
}

}  // namespace perfbench
