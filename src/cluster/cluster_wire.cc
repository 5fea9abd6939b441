#include "cluster/cluster_wire.h"

#include <bit>
#include <utility>

#include "persist/codec.h"
#include "server/json.h"
#include "server/wire_binary.h"

namespace coverage {
namespace cluster {

using persist::ByteReader;
using persist::ByteWriter;

std::string EncodeShardCountsBinary(std::uint64_t num_rows,
                                    const QueryBatchResult& batch) {
  ByteWriter payload;
  payload.PutU64(num_rows);
  payload.PutU64(batch.coverage_queries);
  payload.PutU64(std::bit_cast<std::uint64_t>(batch.seconds));
  payload.PutU64(batch.results.size());
  for (const QueryOutcome& q : batch.results) payload.PutU64(q.coverage);
  return wire::FrameBinaryMessage(kMsgShardCounts, payload.Take());
}

StatusOr<ShardCountsResponse> DecodeShardCountsBinary(std::string_view bytes) {
  StatusOr<std::string_view> payload =
      wire::UnframeBinaryMessage(bytes, kMsgShardCounts);
  COVERAGE_RETURN_IF_ERROR(payload.status());
  ByteReader in(*payload);

  ShardCountsResponse response;
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&response.num_rows));
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&response.coverage_queries));
  std::uint64_t seconds_bits = 0;
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&seconds_bits));
  response.seconds = std::bit_cast<double>(seconds_bits);
  std::uint64_t count = 0;
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&count));
  COVERAGE_RETURN_IF_ERROR(in.Need(static_cast<std::size_t>(count) * 8));
  response.counts.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t coverage = 0;
    COVERAGE_RETURN_IF_ERROR(in.GetU64(&coverage));
    response.counts.push_back(coverage);
  }
  COVERAGE_RETURN_IF_ERROR(in.ExpectDone());
  return response;
}

std::string EncodeShardCandidatesBinary(std::uint64_t num_rows,
                                        const AuditResult& audit) {
  ByteWriter payload;
  payload.PutU64(num_rows);
  payload.PutString(wire::EncodeAuditResultBinary(audit));
  return wire::FrameBinaryMessage(kMsgShardCandidates, payload.Take());
}

StatusOr<ShardCandidatesResponse> DecodeShardCandidatesBinary(
    std::string_view bytes, const Schema& schema) {
  StatusOr<std::string_view> payload =
      wire::UnframeBinaryMessage(bytes, kMsgShardCandidates);
  COVERAGE_RETURN_IF_ERROR(payload.status());
  ByteReader in(*payload);

  ShardCandidatesResponse response;
  COVERAGE_RETURN_IF_ERROR(in.GetU64(&response.num_rows));
  std::string audit_frame;
  COVERAGE_RETURN_IF_ERROR(in.GetString(&audit_frame));
  COVERAGE_RETURN_IF_ERROR(in.ExpectDone());

  StatusOr<AuditResult> audit =
      wire::DecodeAuditResultBinary(audit_frame, schema);
  COVERAGE_RETURN_IF_ERROR(audit.status());
  response.audit = std::move(*audit);

  // The merge algorithm walks materialized patterns; decode once here and
  // drop the packed set so every caller sees one representation.
  response.audit.mups = response.audit.packed->Materialize();
  response.audit.packed.reset();
  return response;
}

namespace {

const char* AlgorithmWireName(MupAlgorithm algorithm) {
  switch (algorithm) {
    case MupAlgorithm::kNaive:
      return "naive";
    case MupAlgorithm::kPatternBreaker:
      return "breaker";
    case MupAlgorithm::kPatternCombiner:
      return "combiner";
    case MupAlgorithm::kDeepDiver:
      return "deepdiver";
    case MupAlgorithm::kApriori:
      return "apriori";
    case MupAlgorithm::kAuto:
      return "auto";
  }
  return "auto";
}

}  // namespace

std::string AuditRequestJson(const AuditRequest& request) {
  json::JsonValue::Object o;
  o["tau"] = request.tau;
  o["max_level"] = request.max_level;
  o["algorithm"] = AlgorithmWireName(request.algorithm);
  o["enumeration_limit"] = request.enumeration_limit;
  return json::Serialize(json::JsonValue(std::move(o)));
}

std::string CountsRequestJson(const std::vector<Pattern>& patterns) {
  json::JsonValue::Array list;
  list.reserve(patterns.size());
  for (const Pattern& p : patterns) list.push_back(p.ToString());
  json::JsonValue::Object o;
  o["patterns"] = std::move(list);
  return json::Serialize(json::JsonValue(std::move(o)));
}

}  // namespace cluster
}  // namespace coverage
