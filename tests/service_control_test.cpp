// Units for the service plane's deterministic pieces: the control
// protocol parser, the member-AS shard routing, the cross-shard health
// merge and its JSON schema, the shared alert/health formatting, and
// the per-shard checkpoint naming contract — plus one real socket
// session pinning the control loop's request-line bound.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "classify/streaming.hpp"
#include "detector_fixture.hpp"
#include "net/flow.hpp"
#include "net/flow_batch.hpp"
#include "service/control.hpp"
#include "service/merge.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "state/delta_chain.hpp"

namespace spoofscope::service {
namespace {

// --- control protocol -------------------------------------------------

TEST(ServiceControl, ParsesEveryVerb) {
  std::string error;
  const struct {
    const char* line;
    Verb verb;
    const char* arg;
  } cases[] = {
      {"submit /tmp/seg1.trace", Verb::kSubmit, "/tmp/seg1.trace"},
      {"health", Verb::kHealth, ""},
      {"stats-json", Verb::kStatsJson, ""},
      {"alerts", Verb::kAlerts, ""},
      {"checkpoint", Verb::kCheckpoint, ""},
      {"reload-updates /tmp/churn.mrt", Verb::kReloadUpdates, "/tmp/churn.mrt"},
      {"drain", Verb::kDrain, ""},
      {"shutdown", Verb::kShutdown, ""},
  };
  for (const auto& c : cases) {
    const auto req = parse_request(c.line, error);
    ASSERT_TRUE(req.has_value()) << c.line << ": " << error;
    EXPECT_EQ(req->verb, c.verb) << c.line;
    EXPECT_EQ(req->arg, c.arg) << c.line;
  }
}

TEST(ServiceControl, TrimsWhitespaceAndCarriageReturns) {
  std::string error;
  const auto req = parse_request("  submit   /tmp/a.trace \r", error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->verb, Verb::kSubmit);
  EXPECT_EQ(req->arg, "/tmp/a.trace");
}

TEST(ServiceControl, RejectsMalformedRequests) {
  std::string error;
  EXPECT_FALSE(parse_request("", error).has_value());
  EXPECT_EQ(error, "empty request");
  EXPECT_FALSE(parse_request("submit", error).has_value());
  EXPECT_EQ(error, "submit requires a path argument");
  EXPECT_FALSE(parse_request("health now", error).has_value());
  EXPECT_EQ(error, "health takes no argument");
  EXPECT_FALSE(parse_request("restart", error).has_value());
  EXPECT_EQ(error, "unknown command: restart");
}

TEST(ServiceControl, VerbNamesRoundTrip) {
  for (const Verb v : {Verb::kSubmit, Verb::kHealth, Verb::kStatsJson,
                       Verb::kAlerts, Verb::kCheckpoint, Verb::kReloadUpdates,
                       Verb::kDrain, Verb::kShutdown}) {
    std::string error;
    std::string line(verb_name(v));
    if (v == Verb::kSubmit || v == Verb::kReloadUpdates) line += " /p";
    const auto req = parse_request(line, error);
    ASSERT_TRUE(req.has_value()) << line;
    EXPECT_EQ(req->verb, v);
  }
}

// --- shard routing ----------------------------------------------------

TEST(ServiceRouter, ShardOfIsDeterministicAndInRange) {
  for (const std::size_t n : {1u, 2u, 7u, 4096u}) {
    for (net::Asn m = 1; m < 2000; ++m) {
      const std::size_t s = shard_of(m, n);
      EXPECT_LT(s, n);
      EXPECT_EQ(s, shard_of(m, n)) << "unstable for AS" << m;
    }
  }
}

TEST(ServiceRouter, ConsecutiveAsnsSpreadAcrossShards) {
  // Member ASNs are typically allocated consecutively; Fibonacci
  // hashing must not stripe them all onto one shard.
  const std::size_t n = 7;
  std::vector<std::size_t> hits(n, 0);
  for (net::Asn m = 100; m < 100 + 700; ++m) ++hits[shard_of(m, n)];
  for (std::size_t s = 0; s < n; ++s) {
    EXPECT_GT(hits[s], 700 / n / 2) << "shard " << s << " starved";
    EXPECT_LT(hits[s], 700 / n * 2) << "shard " << s << " overloaded";
  }
}

TEST(ServiceRouter, RoutePreservesPerShardTraceOrder) {
  net::FlowBatch batch;
  for (std::uint32_t i = 0; i < 200; ++i) {
    net::FlowRecord f;
    f.ts = i;
    f.src = net::Ipv4Addr::from_octets(10, 0, 0, 1);
    f.member_in = 1 + (i % 9);
    f.packets = 1;
    batch.push_back(f);
  }
  ShardRouter router(3);
  std::vector<net::FlowBatch> lanes;
  router.route(batch, lanes);
  ASSERT_EQ(lanes.size(), 3u);
  std::size_t total = 0;
  for (std::size_t s = 0; s < lanes.size(); ++s) {
    total += lanes[s].size();
    for (std::size_t i = 0; i < lanes[s].size(); ++i) {
      EXPECT_EQ(shard_of(lanes[s].record(i).member_in, 3), s);
      if (i > 0) {
        EXPECT_LE(lanes[s].record(i - 1).ts, lanes[s].record(i).ts)
            << "shard " << s << " reordered the trace";
      }
    }
  }
  EXPECT_EQ(total, batch.size());
}

// --- health merge + formatting ---------------------------------------

classify::DetectorHealth sample_health(std::uint64_t base) {
  classify::DetectorHealth h;
  h.regressions = base + 1;
  h.late_drops = base + 2;
  h.forced_releases = base + 3;
  h.member_evictions = base + 4;
  h.sample_evictions = base + 5;
  h.reorder_depth = static_cast<std::size_t>(base + 6);
  h.max_reorder_depth = static_cast<std::size_t>(base * 10);
  h.tracked_members = static_cast<std::size_t>(base + 7);
  h.max_window_depth = static_cast<std::size_t>(100 - base);
  return h;
}

TEST(ServiceMerge, SingleElementMergeIsIdentity) {
  const auto h = sample_health(3);
  const auto merged = merge_health({&h, 1});
  EXPECT_EQ(merged, h);
}

TEST(ServiceMerge, CountersSumHighWatersMax) {
  const std::vector<classify::DetectorHealth> parts = {sample_health(1),
                                                       sample_health(5)};
  const auto merged = merge_health(parts);
  EXPECT_EQ(merged.regressions, 2u + 6u);
  EXPECT_EQ(merged.late_drops, 3u + 7u);
  EXPECT_EQ(merged.forced_releases, 4u + 8u);
  EXPECT_EQ(merged.member_evictions, 5u + 9u);
  EXPECT_EQ(merged.sample_evictions, 6u + 10u);
  EXPECT_EQ(merged.reorder_depth, 7u + 11u);
  EXPECT_EQ(merged.tracked_members, 8u + 12u);
  EXPECT_EQ(merged.max_reorder_depth, 50u);  // max(10, 50)
  EXPECT_EQ(merged.max_window_depth, 99u);   // max(99, 95)
}

TEST(ServiceMerge, EmptyMergeIsZero) {
  EXPECT_EQ(merge_health({}), classify::DetectorHealth{});
}

TEST(ServiceMerge, StatsJsonUsesTheDetectorSchema) {
  ServiceStats stats;
  stats.shards = 2;
  stats.processed = 1000;
  stats.alerts = 3;
  stats.segments = 4;
  stats.plane_epoch = 7;
  stats.per_shard = {sample_health(1), sample_health(5)};
  stats.merged = merge_health(stats.per_shard);
  const std::string json = to_json(stats);
  // The "detector" object must be byte-identical to what `detect
  // --stats-json` writes for the same health — one schema, two modes.
  EXPECT_NE(json.find("\"detector\":" + classify::to_json(stats.merged)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shards\":2"), std::string::npos);
  EXPECT_NE(json.find("\"processed\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"per_shard\":[" + classify::to_json(stats.per_shard[0]) +
                      "," + classify::to_json(stats.per_shard[1]) + "]"),
            std::string::npos)
      << json;
}

TEST(ServiceMerge, FormatAlertMatchesTheDetectLine) {
  classify::SpoofingAlert a;
  a.member = 42;
  a.ts = 1234;
  a.dominant_class = classify::TrafficClass::kBogon;
  a.spoofed_packets_in_window = 77;
  a.window_share = 0.5;
  const std::string line = format_alert(a);
  EXPECT_EQ(line.rfind("alert: member AS42 ts=1234 dominant=Bogon", 0), 0u)
      << line;
  EXPECT_NE(line.find("spoofed-pkts=77"), std::string::npos);
  EXPECT_NE(line.find("share=50.00%"), std::string::npos);
}

TEST(ServiceMerge, SortAlertsIsCanonical) {
  classify::SpoofingAlert a;
  a.member = 9;
  a.ts = 100;
  classify::SpoofingAlert b;
  b.member = 2;
  b.ts = 100;
  classify::SpoofingAlert c;
  c.member = 5;
  c.ts = 50;
  std::vector<classify::SpoofingAlert> alerts = {a, b, c};
  sort_alerts(alerts);
  EXPECT_EQ(alerts[0].member, 5u);
  EXPECT_EQ(alerts[1].member, 2u);
  EXPECT_EQ(alerts[2].member, 9u);
}

// --- checkpoint naming ------------------------------------------------

TEST(ServiceCheckpoint, ShardBaseNamesEmbedIndexAndCount) {
  EXPECT_EQ(state::shard_checkpoint_base("/var/lib/spoofscope", 0, 4),
            "/var/lib/spoofscope/shard-0-of-4.ckpt");
  EXPECT_EQ(state::shard_checkpoint_base("ckpt", 6, 7),
            "ckpt/shard-6-of-7.ckpt");
  // The count is part of the name: a restart with a different --shards
  // partitions flows differently and must NOT resume these chains.
  EXPECT_NE(state::shard_checkpoint_base("d", 0, 4),
            state::shard_checkpoint_base("d", 0, 8));
}

// --- control socket -----------------------------------------------------

/// Connects to the control socket, retrying while the loop binds it. Both
/// directions time out after 5 s, so a daemon that never answers fails
/// the test instead of hanging it. Returns -1 when no connection came up.
int connect_control(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const timeval timeout{5, 0};
  for (int attempt = 0; attempt < 400; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// Sends `text` until done or the peer stops taking bytes.
void send_text(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

/// One response line without its LF; whatever arrived before EOF or the
/// receive timeout otherwise.
std::string read_reply(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line += c;
  return line;
}

TEST(ServiceControlSocket, OverlongRequestLineIsRefusedAndOthersAreServed) {
  const auto& fx = testing::detector_fixture();
  Server server(std::make_shared<classify::FlatClassifier>(
                    classify::FlatClassifier::compile(*fx.classifier)),
                ServerConfig{});
  server.start();
  const std::string sock =
      (std::filesystem::temp_directory_path() /
       ("spoofscope-ctl-" + std::to_string(::getpid()) + ".sock"))
          .string();
  std::ostringstream log;
  std::exception_ptr loop_error;
  std::thread loop([&] {
    try {
      run_control_loop(server, sock, log);
    } catch (...) {
      loop_error = std::current_exception();
    }
  });

  // 1 MiB without a LF: answered with an error, then disconnected.
  const int flood = connect_control(sock);
  EXPECT_GE(flood, 0);
  if (flood >= 0) {
    send_text(flood, std::string(std::size_t{1} << 20, 'a'));
    EXPECT_EQ(read_reply(flood), "err request line too long");
    ::close(flood);
  }

  // The loop still serves the next client, and shuts down cleanly.
  const int client = connect_control(sock);
  if (client < 0) {
    loop.join();  // nothing listens any more: the loop has already exited
    FAIL() << "control loop stopped accepting clients";
  }
  send_text(client, "health\n");
  std::string reply;
  do {
    reply = read_reply(client);
  } while (!reply.empty() && reply.rfind("ok", 0) != 0 &&
           reply.rfind("err", 0) != 0);
  EXPECT_EQ(reply, "ok shards=1 processed=0 alerts=0");
  send_text(client, "shutdown\n");
  EXPECT_EQ(read_reply(client), "ok shutting-down");
  ::close(client);
  loop.join();
  EXPECT_FALSE(loop_error);
}

}  // namespace
}  // namespace spoofscope::service
