#include "server/wire_binary.h"

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "mups/mups.h"
#include "pattern/packed_pattern.h"
#include "pattern/pattern.h"
#include "persist/codec.h"

namespace coverage {
namespace wire {
namespace {

using persist::ByteReader;
using persist::ByteWriter;
using persist::Crc32c;

constexpr char kMagic[4] = {'C', 'V', 'W', '2'};
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kMsgAudit = 1;
constexpr std::uint8_t kMsgQueryBatch = 2;
constexpr std::uint8_t kMupsSparseCells = 1;
constexpr std::size_t kHeaderBytes = 4 + 1 + 1 + 4;

void PutStats(const MupSearchStats& stats, ByteWriter* out) {
  out->PutU64(stats.coverage_queries);
  out->PutU64(stats.nodes_generated);
  out->PutU64(stats.nodes_pruned);
  out->PutU64(static_cast<std::uint64_t>(stats.num_mups));
  out->PutU64(std::bit_cast<std::uint64_t>(stats.seconds));
}

Status GetStats(ByteReader* in, MupSearchStats* stats) {
  COVERAGE_RETURN_IF_ERROR(in->GetU64(&stats->coverage_queries));
  COVERAGE_RETURN_IF_ERROR(in->GetU64(&stats->nodes_generated));
  COVERAGE_RETURN_IF_ERROR(in->GetU64(&stats->nodes_pruned));
  std::uint64_t num_mups = 0;
  COVERAGE_RETURN_IF_ERROR(in->GetU64(&num_mups));
  stats->num_mups = static_cast<std::size_t>(num_mups);
  std::uint64_t seconds_bits = 0;
  COVERAGE_RETURN_IF_ERROR(in->GetU64(&seconds_bits));
  stats->seconds = std::bit_cast<double>(seconds_bits);
  return Status::OK();
}

}  // namespace

std::string FrameBinaryMessage(std::uint8_t msg_type, std::string payload) {
  ByteWriter head;
  for (char c : kMagic) head.PutU8(static_cast<std::uint8_t>(c));
  head.PutU8(kVersion);
  head.PutU8(msg_type);
  head.PutU32(Crc32c(payload));
  std::string out = head.Take();
  out += payload;
  return out;
}

/// Validates the frame header and returns the checksummed payload.
StatusOr<std::string_view> UnframeBinaryMessage(std::string_view bytes,
                                                std::uint8_t want_type) {
  if (bytes.size() < kHeaderBytes) {
    return Status::InvalidArgument("binary frame truncated");
  }
  ByteReader head(bytes.substr(0, kHeaderBytes));
  for (char c : kMagic) {
    std::uint8_t got = 0;
    COVERAGE_RETURN_IF_ERROR(head.GetU8(&got));
    if (got != static_cast<std::uint8_t>(c)) {
      return Status::InvalidArgument("bad binary frame magic");
    }
  }
  std::uint8_t version = 0;
  std::uint8_t msg_type = 0;
  std::uint32_t crc = 0;
  COVERAGE_RETURN_IF_ERROR(head.GetU8(&version));
  COVERAGE_RETURN_IF_ERROR(head.GetU8(&msg_type));
  COVERAGE_RETURN_IF_ERROR(head.GetU32(&crc));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported binary frame version " +
                                   std::to_string(version));
  }
  if (msg_type != want_type) {
    return Status::InvalidArgument("unexpected binary message type " +
                                   std::to_string(msg_type));
  }
  const std::string_view payload = bytes.substr(kHeaderBytes);
  if (Crc32c(payload) != crc) {
    return Status::InvalidArgument("binary frame checksum mismatch");
  }
  return payload;
}

void EncodeMupSearchStatsBinary(const MupSearchStats& stats,
                                ByteWriter* out) {
  PutStats(stats, out);
}

Status DecodeMupSearchStatsBinary(ByteReader* in, MupSearchStats* stats) {
  return GetStats(in, stats);
}

std::string EncodeAuditResultBinary(const AuditResult& result) {
  ByteWriter payload;
  payload.PutString(result.algorithm);
  payload.PutI64(result.max_level);
  payload.PutU64(result.num_rows);
  payload.PutString(result.planner_rationale);
  PutStats(result.stats, &payload);
  payload.PutU64(result.tau);
  // Sparse-cell form: only the deterministic cells travel. MUPs live at
  // low levels by construction (the search stops at the first uncovered
  // ancestor), so this beats both the raw 256-bit words and the JSON
  // object by a wide margin. Either representation encodes to the same
  // bytes.
  payload.PutU8(kMupsSparseCells);
  const auto put_cell = [&](int attr, Value v) {
    payload.PutU16(static_cast<std::uint16_t>(attr));
    payload.PutU16(static_cast<std::uint16_t>(v));
  };
  if (result.packed.has_value()) {
    const PatternCodec& codec = result.packed->codec;
    payload.PutU64(result.packed->mups.size());
    for (const PackedPattern& p : result.packed->mups) {
      payload.PutU16(static_cast<std::uint16_t>(p.level()));
      for (int attr = 0; attr < codec.num_attributes(); ++attr) {
        if (codec.is_deterministic(p, attr)) {
          put_cell(attr, codec.cell(p, attr));
        }
      }
    }
  } else {
    payload.PutU64(result.mups.size());
    for (const Pattern& p : result.mups) {
      payload.PutU16(static_cast<std::uint16_t>(p.level()));
      for (int attr = 0; attr < p.num_attributes(); ++attr) {
        if (p.is_deterministic(attr)) put_cell(attr, p.cell(attr));
      }
    }
  }
  return FrameBinaryMessage(kMsgAudit, payload.Take());
}

StatusOr<AuditResult> DecodeAuditResultBinary(std::string_view bytes,
                                              const Schema& schema) {
  StatusOr<std::string_view> payload = UnframeBinaryMessage(bytes, kMsgAudit);
  COVERAGE_RETURN_IF_ERROR(payload.status());
  ByteReader in(*payload);

  AuditResult result;
  COVERAGE_RETURN_IF_ERROR(in.GetString(&result.algorithm));
  std::int64_t max_level = 0;
  COVERAGE_RETURN_IF_ERROR(in.GetI64(&max_level));
  result.max_level = static_cast<int>(max_level);
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&result.num_rows));
  COVERAGE_RETURN_IF_ERROR(in.GetString(&result.planner_rationale));
  COVERAGE_RETURN_IF_ERROR(GetStats(&in, &result.stats));
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&result.tau));

  std::uint8_t kind = 0;
  COVERAGE_RETURN_IF_ERROR(in.GetU8(&kind));
  if (kind != kMupsSparseCells) {
    return Status::InvalidArgument("unknown mup encoding kind " +
                                   std::to_string(kind));
  }
  std::uint64_t count = 0;
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&count));
  // 2 bytes of level prefix per MUP at minimum.
  COVERAGE_RETURN_IF_ERROR(in.Need(static_cast<std::size_t>(count) * 2));
  StatusOr<PatternCodec> codec = PatternCodec::Build(schema);
  COVERAGE_RETURN_IF_ERROR(codec.status());
  PackedMupSet packed;
  packed.codec = *codec;
  packed.mups.reserve(static_cast<std::size_t>(count));
  const PackedPattern root = packed.codec.Root();
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint16_t level = 0;
    COVERAGE_RETURN_IF_ERROR(in.GetU16(&level));
    PackedPattern p = root;
    for (std::uint16_t c = 0; c < level; ++c) {
      std::uint16_t attr = 0;
      std::uint16_t value = 0;
      COVERAGE_RETURN_IF_ERROR(in.GetU16(&attr));
      COVERAGE_RETURN_IF_ERROR(in.GetU16(&value));
      if (attr >= static_cast<std::uint16_t>(schema.num_attributes())) {
        return Status::InvalidArgument("mup cell attribute out of range");
      }
      if (value >= static_cast<std::uint16_t>(schema.cardinality(attr))) {
        return Status::InvalidArgument("mup cell value out of range");
      }
      p = packed.codec.WithCell(p, attr, static_cast<Value>(value));
    }
    // A repeated attribute would overwrite a cell and leave the level
    // short — reject rather than silently reshape the pattern.
    if (p.level() != static_cast<int>(level)) {
      return Status::InvalidArgument("mup cells inconsistent with level");
    }
    packed.mups.push_back(p);
  }
  result.packed = std::move(packed);
  COVERAGE_RETURN_IF_ERROR(in.ExpectDone());
  return result;
}

std::string EncodeQueryBatchResultBinary(const QueryBatchResult& result) {
  ByteWriter payload;
  payload.PutU64(result.coverage_queries);
  payload.PutU64(std::bit_cast<std::uint64_t>(result.seconds));
  payload.PutU64(result.results.size());
  for (const QueryOutcome& q : result.results) {
    payload.PutU64(q.coverage);
    payload.PutU8(q.covered ? 1 : 0);
  }
  return FrameBinaryMessage(kMsgQueryBatch, payload.Take());
}

StatusOr<QueryBatchResult> DecodeQueryBatchResultBinary(
    std::string_view bytes) {
  StatusOr<std::string_view> payload = UnframeBinaryMessage(bytes, kMsgQueryBatch);
  COVERAGE_RETURN_IF_ERROR(payload.status());
  ByteReader in(*payload);

  QueryBatchResult result;
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&result.coverage_queries));
  std::uint64_t seconds_bits = 0;
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&seconds_bits));
  result.seconds = std::bit_cast<double>(seconds_bits);
  std::uint64_t count = 0;
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&count));
  COVERAGE_RETURN_IF_ERROR(in.Need(static_cast<std::size_t>(count) * 9));
  result.results.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    QueryOutcome q;
    COVERAGE_RETURN_IF_ERROR(in.GetU64(&q.coverage));
    std::uint8_t covered = 0;
    COVERAGE_RETURN_IF_ERROR(in.GetU8(&covered));
    if (covered > 1) {
      return Status::InvalidArgument("covered flag must be 0 or 1");
    }
    q.covered = covered != 0;
    result.results.push_back(q);
  }
  COVERAGE_RETURN_IF_ERROR(in.ExpectDone());
  return result;
}

}  // namespace wire
}  // namespace coverage
