// Differential suite for the batched zero-copy ingest path:
//
//  - TraceReader::next_batch vs TraceReader::next over clean and
//    corrupted streams, both policies, randomized batch sizes;
//  - MappedTraceReader (mmap window) vs TraceReader (refilled istream
//    buffer) — records delivered and IngestStats must be bit-identical
//    because both drive the same format::RecordScanner;
//  - batch-boundary edges: batch size 1, batch larger than the trace,
//    empty trace, empty file;
//  - a v1 header (the retired checksum-less format) is refused by both
//    readers.
#include "net/trace.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "corruption.hpp"
#include "net/flow_batch.hpp"
#include "net/mapped_trace.hpp"
#include "net/trace_format.hpp"
#include "util/error_policy.hpp"
#include "util/rng.hpp"

namespace spoofscope::net {
namespace {

namespace fs = std::filesystem;

FlowRecord make_flow(util::Rng& rng) {
  FlowRecord f;
  f.ts = rng.uniform_u32(0, kFourWeeks);
  f.src = Ipv4Addr(rng.next_u32());
  f.dst = Ipv4Addr(rng.next_u32());
  f.proto = rng.chance(0.5) ? Proto::kTcp : Proto::kUdp;
  f.sport = static_cast<std::uint16_t>(rng.uniform_u32(0, 65535));
  f.dport = static_cast<std::uint16_t>(rng.uniform_u32(0, 65535));
  f.packets = rng.uniform_u32(1, 1000);
  f.bytes = rng.uniform_u64(40, 1500ull * 1000);
  f.member_in = rng.uniform_u32(1, 65535);
  f.member_out = rng.uniform_u32(1, 65535);
  return f;
}

std::string make_trace_bytes(std::size_t flows, std::uint64_t seed) {
  util::Rng rng(seed);
  Trace t;
  t.meta.sampling_rate = 1000;
  t.meta.window_seconds = kFourWeeks;
  t.meta.seed = seed;
  for (std::size_t i = 0; i < flows; ++i) t.flows.push_back(make_flow(rng));
  std::stringstream ss;
  write_trace(ss, t);
  return ss.str();
}

struct ReadResult {
  std::vector<FlowRecord> records;
  util::IngestStats stats;
  std::string error;  ///< what() of the throw, empty on success
};

/// The four read paths under differential test.
enum class Path { kStreamNext, kStreamBatch, kMappedNext, kMappedBatch };
constexpr Path kPaths[] = {Path::kStreamNext, Path::kStreamBatch,
                           Path::kMappedNext, Path::kMappedBatch};

const char* path_name(Path p) {
  switch (p) {
    case Path::kStreamNext: return "stream/next";
    case Path::kStreamBatch: return "stream/batch";
    case Path::kMappedNext: return "mapped/next";
    case Path::kMappedBatch: return "mapped/batch";
  }
  return "?";
}

/// Reads the whole stream through one path. Batch paths draw each batch
/// size from `rng` in [1, 400] so batch boundaries land everywhere,
/// including mid-resync.
ReadResult read_all(const std::string& bytes, Path path,
                    util::ErrorPolicy policy, util::Rng& rng) {
  ReadResult r;
  const bool batched = path == Path::kStreamBatch || path == Path::kMappedBatch;
  const auto drain = [&](auto& reader) {
    FlowBatch batch;
    if (batched) {
      try {
        while (reader.next_batch(batch, 1 + rng.index(400)) > 0) {
          batch.append_to(r.records);
        }
      } catch (...) {
        // A strict-mode throw mid-batch leaves the records decoded before
        // the damage in the batch; the per-record path had already handed
        // them out, so collect them for a like-for-like comparison.
        batch.append_to(r.records);
        throw;
      }
    } else {
      while (const auto f = reader.next()) r.records.push_back(*f);
    }
  };
  try {
    if (path == Path::kMappedNext || path == Path::kMappedBatch) {
      const MappedTrace trace = MappedTrace::from_buffer(
          std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
      MappedTraceReader reader(trace, policy, &r.stats);
      drain(reader);
    } else {
      std::istringstream in(bytes, std::ios::binary);
      TraceReader reader(in, policy, &r.stats);
      drain(reader);
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

void expect_paths_agree(const std::string& bytes, util::ErrorPolicy policy,
                        std::uint64_t seed, const std::string& what) {
  util::Rng ref_rng(seed);
  const ReadResult ref = read_all(bytes, Path::kStreamNext, policy, ref_rng);
  for (const Path path : kPaths) {
    util::Rng rng(seed);
    const ReadResult got = read_all(bytes, path, policy, rng);
    ASSERT_EQ(got.error, ref.error) << what << " " << path_name(path);
    ASSERT_EQ(got.records.size(), ref.records.size())
        << what << " " << path_name(path);
    for (std::size_t i = 0; i < ref.records.size(); ++i) {
      ASSERT_EQ(got.records[i], ref.records[i])
          << what << " " << path_name(path) << " record " << i;
    }
    // Stats only comparable when the read completed (a strict throw
    // leaves them mid-flight, at an intentionally unspecified point).
    if (ref.error.empty()) {
      EXPECT_EQ(got.stats, ref.stats) << what << " " << path_name(path);
    }
  }
}

// ------------------------------------------------------------- clean v2

TEST(TraceBatch, CleanStreamAllPathsAgree) {
  const std::string bytes = make_trace_bytes(1337, 7);
  for (const auto policy :
       {util::ErrorPolicy::kStrict, util::ErrorPolicy::kSkip}) {
    expect_paths_agree(bytes, policy, 99, "clean");
  }
}

TEST(TraceBatch, BatchContentMatchesPerRecordDecode) {
  const std::string bytes = make_trace_bytes(257, 3);
  std::istringstream a(bytes, std::ios::binary);
  std::istringstream b(bytes, std::ios::binary);
  TraceReader per_record(a);
  TraceReader batched(b);
  FlowBatch batch;
  ASSERT_EQ(batched.next_batch(batch, 257), 257u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto f = per_record.next();
    ASSERT_TRUE(f.has_value());
    // Lane-by-lane against the AoS record: the SoA transposition must
    // not mix up fields.
    EXPECT_EQ(batch.ts()[i], f->ts);
    EXPECT_EQ(batch.src()[i], f->src.value());
    EXPECT_EQ(batch.dst()[i], f->dst.value());
    EXPECT_EQ(batch.proto()[i], static_cast<std::uint8_t>(f->proto));
    EXPECT_EQ(batch.sport()[i], f->sport);
    EXPECT_EQ(batch.dport()[i], f->dport);
    EXPECT_EQ(batch.packets()[i], f->packets);
    EXPECT_EQ(batch.bytes()[i], f->bytes);
    EXPECT_EQ(batch.member_in()[i], f->member_in);
    EXPECT_EQ(batch.member_out()[i], f->member_out);
    EXPECT_EQ(batch.record(i), *f);
  }
  EXPECT_FALSE(per_record.next().has_value());
}

// -------------------------------------------------------- corruption fuzz

TEST(TraceBatch, CorruptedStreamFuzzAllPathsAgree) {
  using Corruptor = std::string (*)(const std::string&, util::Rng&);
  struct NamedCorruptor {
    const char* name;
    Corruptor fn;
  };
  const NamedCorruptor kCorruptors[] = {
      {"truncate",
       [](const std::string& b, util::Rng& rng) {
         return testing::truncate_bytes(b, rng, format::kHeaderSizeV2);
       }},
      {"bit-flip",
       [](const std::string& b, util::Rng& rng) {
         return testing::flip_bits(b, rng, 3, format::kHeaderSizeV2);
       }},
      {"record-drop",
       [](const std::string& b, util::Rng& rng) {
         return testing::drop_fixed_record(b, rng, format::kHeaderSizeV2,
                                           format::kRecordSizeV2);
       }},
      {"splice",
       [](const std::string& b, util::Rng& rng) {
         return testing::splice_garbage(b, rng, format::kHeaderSizeV2, 64);
       }},
  };
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    const std::string clean = make_trace_bytes(300, seed);
    for (const auto& c : kCorruptors) {
      util::Rng rng(seed * 1000003);
      const std::string bad = c.fn(clean, rng);
      for (const auto policy :
           {util::ErrorPolicy::kStrict, util::ErrorPolicy::kSkip}) {
        expect_paths_agree(
            bad, policy, seed ^ 0xbadc0de,
            std::string(c.name) + " seed=" + std::to_string(seed));
      }
    }
  }
}

// ------------------------------------------------------------ boundaries

TEST(TraceBatch, BatchSizeOneEqualsPerRecord) {
  const std::string bytes = make_trace_bytes(64, 5);
  std::istringstream a(bytes, std::ios::binary);
  std::istringstream b(bytes, std::ios::binary);
  TraceReader per_record(a);
  TraceReader batched(b);
  FlowBatch batch;
  while (batched.next_batch(batch, 1) == 1) {
    const auto f = per_record.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(batch.record(0), *f);
  }
  EXPECT_FALSE(per_record.next().has_value());
}

TEST(TraceBatch, BatchLargerThanTraceDeliversEverythingOnce) {
  const std::string bytes = make_trace_bytes(50, 5);
  std::istringstream in(bytes, std::ios::binary);
  TraceReader reader(in);
  FlowBatch batch;
  EXPECT_EQ(reader.next_batch(batch, 1u << 20), 50u);
  EXPECT_EQ(batch.size(), 50u);
  EXPECT_EQ(reader.next_batch(batch, 1u << 20), 0u);
  EXPECT_TRUE(batch.empty());  // next_batch clears even at end of stream
}

TEST(TraceBatch, EmptyTraceYieldsEmptyBatch) {
  const std::string bytes = make_trace_bytes(0, 5);
  std::istringstream in(bytes, std::ios::binary);
  TraceReader reader(in);
  FlowBatch batch;
  EXPECT_EQ(reader.next_batch(batch, 8), 0u);

  const MappedTrace trace = MappedTrace::from_buffer(
      std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  MappedTraceReader mapped(trace);
  EXPECT_EQ(mapped.next_batch(batch, 8), 0u);
}

TEST(TraceBatch, EmptyInputSkipModeYieldsNothingStrictThrows) {
  const std::string bytes;
  util::Rng rng(1);
  const ReadResult skip =
      read_all(bytes, Path::kMappedBatch, util::ErrorPolicy::kSkip, rng);
  EXPECT_TRUE(skip.error.empty());
  EXPECT_TRUE(skip.records.empty());
  EXPECT_EQ(skip.stats.errors[static_cast<int>(util::ErrorKind::kTruncated)],
            1u);
  const ReadResult strict =
      read_all(bytes, Path::kMappedBatch, util::ErrorPolicy::kStrict, rng);
  EXPECT_NE(strict.error.find("truncated header"), std::string::npos);
}

TEST(TraceBatch, InterleavedNextAndBatchCoverTheStreamOnce) {
  const std::string bytes = make_trace_bytes(100, 9);
  util::Rng ref_rng(0);
  const auto ref =
      read_all(bytes, Path::kStreamNext, util::ErrorPolicy::kStrict, ref_rng);
  std::istringstream in(bytes, std::ios::binary);
  TraceReader reader(in);
  std::vector<FlowRecord> got;
  FlowBatch batch;
  util::Rng rng(17);
  while (got.size() < 100) {
    if (rng.chance(0.5)) {
      const auto f = reader.next();
      if (!f) break;
      got.push_back(*f);
    } else {
      if (reader.next_batch(batch, 1 + rng.index(16)) == 0) break;
      batch.append_to(got);
    }
  }
  EXPECT_EQ(got, ref.records);
}

// --------------------------------------------------- mmap vs file fallback

TEST(TraceBatch, MappedFileAndFallbackBufferAgree) {
  const std::string bytes = make_trace_bytes(200, 13);
  const fs::path path =
      fs::temp_directory_path() /
      ("spoofscope-batch-" + std::to_string(::getpid()) + ".trace");
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  const MappedTrace from_file(path.string());
  const MappedTrace from_buf = MappedTrace::from_buffer(
      std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  EXPECT_FALSE(from_buf.mapped());
  ASSERT_EQ(from_file.bytes().size(), from_buf.bytes().size());

  MappedTraceReader a(from_file);
  MappedTraceReader b(from_buf);
  FlowBatch ba, bb;
  for (;;) {
    const std::size_t na = a.next_batch(ba, 77);
    const std::size_t nb = b.next_batch(bb, 77);
    ASSERT_EQ(na, nb);
    if (na == 0) break;
    for (std::size_t i = 0; i < na; ++i) {
      ASSERT_EQ(ba.record(i), bb.record(i));
    }
  }
  fs::remove(path);
}

TEST(TraceBatch, DropConsumedPreservesRecordStreamAndStats) {
  // Releasing consumed pages is purely advisory: a mapped reader that
  // drops after every batch must deliver the identical record stream
  // and stats as one that never drops, on both the real mapping and
  // the fallback buffer (where drop_consumed is a no-op).
  const std::string bytes = make_trace_bytes(500, 21);
  const fs::path path =
      fs::temp_directory_path() /
      ("spoofscope-drop-" + std::to_string(::getpid()) + ".trace");
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  util::Rng ref_rng(0);
  const auto ref =
      read_all(bytes, Path::kStreamNext, util::ErrorPolicy::kStrict, ref_rng);
  const MappedTrace from_file(path.string());
  const MappedTrace from_buf = MappedTrace::from_buffer(
      std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  for (const MappedTrace* trace : {&from_file, &from_buf}) {
    util::IngestStats stats;
    MappedTraceReader reader(*trace, util::ErrorPolicy::kSkip, &stats);
    std::vector<FlowRecord> got;
    FlowBatch batch;
    while (reader.next_batch(batch, 64) > 0) {
      batch.append_to(got);
      reader.drop_consumed();
    }
    reader.drop_consumed();  // past end of stream: must be harmless
    EXPECT_EQ(got, ref.records) << (trace->mapped() ? "mapped" : "buffer");
    EXPECT_EQ(stats, ref.stats) << (trace->mapped() ? "mapped" : "buffer");
  }
  fs::remove(path);
}

TEST(TraceBatch, MappedTraceMissingFileThrows) {
  EXPECT_THROW(MappedTrace("/nonexistent-spoofscope-dir/no.trace"),
               std::runtime_error);
}

// ------------------------------------------------------------- versions

TEST(TraceBatch, VersionOneHeaderIsRefusedByBothReaders) {
  // Only v2 is readable: a v1 header (no checksums) is refused up front
  // by every path instead of being decoded record by record.
  std::string bytes = make_trace_bytes(50, 31);
  format::put_u32(reinterpret_cast<std::uint8_t*>(bytes.data()) + 4, 1);
  for (const Path path : kPaths) {
    util::Rng rng(0);
    const ReadResult strict =
        read_all(bytes, path, util::ErrorPolicy::kStrict, rng);
    EXPECT_NE(strict.error.find("unsupported version"), std::string::npos)
        << path_name(path) << ": " << strict.error;
    EXPECT_TRUE(strict.records.empty()) << path_name(path);

    const ReadResult skip = read_all(bytes, path, util::ErrorPolicy::kSkip, rng);
    EXPECT_TRUE(skip.error.empty()) << path_name(path) << ": " << skip.error;
    EXPECT_TRUE(skip.records.empty()) << path_name(path);
    EXPECT_EQ(
        skip.stats.errors[static_cast<int>(util::ErrorKind::kBadVersion)], 1u)
        << path_name(path);
  }
}

}  // namespace
}  // namespace spoofscope::net
