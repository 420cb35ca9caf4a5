#include "net/trace.hpp"

#include <array>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>

#include "net/flow_batch.hpp"
#include "net/trace_format.hpp"

namespace spoofscope::net {

namespace {

/// Stream refill granularity: large enough that syscall and copy costs
/// amortize over thousands of records per refill.
constexpr std::size_t kReadBlock = 1 << 18;

}  // namespace

void write_trace(std::ostream& out, const Trace& trace) {
  std::array<std::uint8_t, format::kHeaderSizeV2> header{};
  format::put_u32(header.data() + 0, format::kMagic);
  format::put_u32(header.data() + 4, format::kVersionV2);
  format::put_u32(header.data() + 8, trace.meta.sampling_rate);
  format::put_u32(header.data() + 12, trace.meta.window_seconds);
  format::put_u64(header.data() + 16, trace.meta.seed);
  format::put_u64(header.data() + 24, trace.flows.size());
  format::put_u32(header.data() + format::kHeaderBody,
                  format::fnv1a32(header.data(), format::kHeaderBody));
  out.write(reinterpret_cast<const char*>(header.data()), header.size());

  std::array<std::uint8_t, format::kRecordSizeV2> rec;
  for (const auto& f : trace.flows) {
    if (f.member_in > 0xffff || f.member_out > 0xffff) {
      throw std::runtime_error("write_trace: member ASN exceeds 16-bit record field");
    }
    format::encode_record(f, rec.data());
    format::put_u32(rec.data() + format::kPayloadSize,
                    format::fnv1a32(rec.data(), format::kPayloadSize));
    out.write(reinterpret_cast<const char*>(rec.data()), rec.size());
  }
  if (!out) throw std::runtime_error("write_trace: stream failure");
}

TraceReader::TraceReader(std::istream& in, util::ErrorPolicy policy,
                         util::IngestStats* stats)
    : in_(&in), policy_(policy), stats_(stats ? stats : &own_stats_) {
  // Pull in the header; parse_header refuses anything but v2.
  while (buf_.size() < format::kHeaderSizeV2 && *in_) {
    char chunk[format::kHeaderSizeV2];
    in_->read(chunk, static_cast<std::streamsize>(format::kHeaderSizeV2 -
                                                  buf_.size()));
    const std::size_t got = static_cast<std::size_t>(in_->gcount());
    buf_.insert(buf_.end(), chunk, chunk + got);
    if (got == 0) break;
  }
  const format::Header h =
      format::parse_header(std::span<const std::uint8_t>(buf_), policy_, *stats_);
  if (!h.ok) {
    done_ = true;
    buf_.clear();
    return;
  }
  meta_.sampling_rate = h.sampling_rate;
  meta_.window_seconds = h.window_seconds;
  meta_.seed = h.seed;
  declared_ = h.declared;
  header_ok_ = true;
  pos_ = h.size;
  scanner_ = format::RecordScanner(h, policy_, stats_);
}

void TraceReader::refill() {
  // Compact the consumed prefix (at most one partial record when called),
  // then top the window back up to the block size.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  while (buf_.size() < kReadBlock && !eof_) {
    char chunk[1 << 16];
    const std::size_t want = kReadBlock - buf_.size();
    in_->read(chunk, static_cast<std::streamsize>(
                         want < sizeof(chunk) ? want : sizeof(chunk)));
    const std::size_t got = static_cast<std::size_t>(in_->gcount());
    buf_.insert(buf_.end(), chunk, chunk + got);
    if (got == 0) eof_ = true;
  }
}

std::optional<FlowRecord> TraceReader::next() {
  if (done_) return std::nullopt;
  std::optional<FlowRecord> result;
  const auto sink = [&result](const std::uint8_t* p) {
    result = format::decode_record(p);
  };
  for (;;) {
    const std::span<const std::uint8_t> window(buf_.data() + pos_,
                                               buf_.size() - pos_);
    pos_ += scanner_.scan(window, 1, sink);
    if (result || scanner_.done()) break;
    if (eof_) {
      // No further bytes will arrive: account the unconsumed tail.
      const std::size_t tail = buf_.size() - pos_;
      pos_ = buf_.size();
      scanner_.finish(tail);
      break;
    }
    refill();
  }
  if (scanner_.done()) done_ = true;
  return result;
}

std::size_t TraceReader::next_batch(FlowBatch& out, std::size_t max_records) {
  out.clear();
  if (done_ || max_records == 0) return 0;
  const auto sink = [&out](const std::uint8_t* p) {
    out.push_back(format::decode_record(p));
  };
  for (;;) {
    const std::span<const std::uint8_t> window(buf_.data() + pos_,
                                               buf_.size() - pos_);
    pos_ += scanner_.scan(window, max_records - out.size(), sink);
    if (out.size() == max_records || scanner_.done()) break;
    if (eof_) {
      const std::size_t tail = buf_.size() - pos_;
      pos_ = buf_.size();
      scanner_.finish(tail);
      break;
    }
    refill();
  }
  if (scanner_.done()) done_ = true;
  return out.size();
}

Trace read_trace(std::istream& in, util::ErrorPolicy policy,
                 util::IngestStats* stats) {
  TraceReader reader(in, policy, stats);
  Trace trace;
  trace.meta = reader.meta();
  if (reader.header_ok()) {
    trace.flows.reserve(static_cast<std::size_t>(
        reader.declared_count() < (1u << 20) ? reader.declared_count()
                                             : (1u << 20)));
  }
  while (auto f = reader.next()) trace.flows.push_back(*f);
  return trace;
}

Trace read_trace(std::istream& in) {
  return read_trace(in, util::ErrorPolicy::kStrict, nullptr);
}

}  // namespace spoofscope::net
