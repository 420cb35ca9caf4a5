// Binary trace container and (de)serialization for flow records, so that
// generated workloads can be persisted and re-analyzed without re-running
// the generator.
//
// Format v2 (current): fixed little-endian header guarded by an FNV-1a
// checksum, then fixed-size records each carrying their own checksum, so
// bit damage anywhere in the stream is detectable. Other versions
// (including the checksum-less v1) are refused as unsupported.
//
// Two reading modes (util::ErrorPolicy):
//   kStrict  first malformed byte throws (historical behaviour);
//   kSkip    corrupted records are quarantined and counted in an
//            IngestStats; after a checksum failure the reader resyncs by
//            sliding one byte at a time until a record validates again,
//            so a localized splice/flip costs only the records it hit.
//
// The decode state machine itself lives in net/trace_format.hpp and is
// shared with the mmap-backed reader (net/mapped_trace.hpp), so both
// sources deliver bit-identical records and stats for the same bytes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "net/trace_format.hpp"
#include "util/error_policy.hpp"

namespace spoofscope::net {

class FlowBatch;

/// Metadata describing how a trace was captured.
struct TraceMeta {
  std::uint32_t sampling_rate = 10000;       ///< 1-out-of-N packet sampling
  std::uint32_t window_seconds = kFourWeeks; ///< measurement window length
  std::uint64_t seed = 0;                    ///< generator seed (0 = real capture)

  friend bool operator==(const TraceMeta&, const TraceMeta&) = default;
};

/// An in-memory flow trace: metadata plus the sampled flow records.
struct Trace {
  TraceMeta meta;
  std::vector<FlowRecord> flows;

  /// Extrapolation factor from sampled to estimated real counts.
  double scale() const { return static_cast<double>(meta.sampling_rate); }
};

/// Writes a trace in spoofscope binary format v2. Throws
/// std::runtime_error on stream failure.
void write_trace(std::ostream& out, const Trace& trace);

/// Incremental, bounded-memory trace reader: parses the header up front
/// and yields records via next() or next_batch(), so arbitrarily large
/// traces can be processed without materializing a flow vector.
///
/// Strict policy: any malformed input throws std::runtime_error, exactly
/// like read_trace. Skip policy: malformed input is accounted in `stats`
/// (never thrown); a broken header yields an empty record stream, and a
/// broken record starts a byte-wise resync to the next valid record.
class TraceReader {
 public:
  /// Reads and validates the header. `in` and `stats` (optional) must
  /// outlive the reader.
  explicit TraceReader(std::istream& in,
                       util::ErrorPolicy policy = util::ErrorPolicy::kStrict,
                       util::IngestStats* stats = nullptr);

  /// Header metadata (default-constructed if the header was rejected in
  /// skip mode).
  const TraceMeta& meta() const { return meta_; }

  /// Record count the header declared (0 if the header was rejected).
  std::uint64_t declared_count() const { return declared_; }

  /// True if the header parsed and validated.
  bool header_ok() const { return header_ok_; }

  /// Next record, or std::nullopt at end of stream. Strict mode throws
  /// on malformed input; skip mode never throws.
  std::optional<FlowRecord> next();

  /// Clears `out` and refills it with up to `max_records` records,
  /// reusing its lane buffers. Returns the number of records delivered;
  /// 0 means end of stream. Interleaving next() and next_batch() calls
  /// is allowed — together they deliver exactly the record sequence a
  /// pure next() loop would.
  std::size_t next_batch(FlowBatch& out, std::size_t max_records);

  /// Ingest accounting so far (always valid; internal stats are used when
  /// none were supplied).
  const util::IngestStats& stats() const { return *stats_; }

 private:
  void refill();

  std::istream* in_;
  util::ErrorPolicy policy_;
  util::IngestStats own_stats_;
  util::IngestStats* stats_;
  TraceMeta meta_;
  std::uint64_t declared_ = 0;
  bool header_ok_ = false;
  bool done_ = false;
  bool eof_ = false;
  format::RecordScanner scanner_;
  std::vector<std::uint8_t> buf_;  ///< refilled window over the record stream
  std::size_t pos_ = 0;            ///< consumed prefix of buf_
};

/// Reads a whole trace written by write_trace (v2). Strict policy
/// throws std::runtime_error on malformed input (bad magic, checksum
/// mismatch, truncated records, unsupported version); skip policy
/// returns the surviving records and accounts losses in `stats`.
Trace read_trace(std::istream& in, util::ErrorPolicy policy,
                 util::IngestStats* stats = nullptr);

/// Strict-mode convenience (historical signature).
Trace read_trace(std::istream& in);

}  // namespace spoofscope::net
