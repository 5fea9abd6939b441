#ifndef COVERAGE_SERVER_WIRE_H_
#define COVERAGE_SERVER_WIRE_H_

#include <string>

#include "common/status.h"
#include "dataset/dataset.h"
#include "dataset/schema.h"
#include "engine/coverage_engine.h"
#include "enhancement/enhancement.h"
#include "mups/mups.h"
#include "pattern/pattern.h"
#include "server/json.h"
#include "service/coverage_service.h"

namespace coverage {
namespace wire {

/// The JSON wire format: one encoder/decoder per service request/response
/// type, used identically by the HTTP server, the blocking client's
/// callers, and `coverage_cli --json` — there is exactly one serializer, so
/// what the CLI prints is byte-for-byte what the server would send
/// (JsonValue objects are key-sorted, making the encoding canonical).
///
/// Encoding conventions:
///  - patterns are objects {"pattern": "X1X0", "label": "race=...", "level"}
///  - 64-bit counters are JSON integers (exact; see json.h)
///  - timing fields ("seconds") are doubles and obviously non-deterministic
///  - request decoders are strict: unknown members are rejected, so typos
///    fail loudly instead of silently running with defaults

// ---------------------------------------------------------------- encoders

json::JsonValue ToJson(const Pattern& pattern, const Schema& schema);
json::JsonValue ToJson(const MupSearchStats& stats);
json::JsonValue ToJson(const AuditResult& result, const Schema& schema);
json::JsonValue ToJson(const QueryBatchResult& result);
json::JsonValue ToJson(const CoveragePlan& plan, const Schema& schema);
json::JsonValue ToJson(const EngineUpdateStats& stats);
json::JsonValue ToJson(const IngestStats& stats);
json::JsonValue ToJson(const Schema& schema);

// ---------------------------------------------------------------- decoders

/// "auto" | "deepdiver" | "breaker" | "pattern-breaker" | "combiner" |
/// "pattern-combiner" | "apriori" | "naive" — the CLI's --algo vocabulary.
StatusOr<MupAlgorithm> AlgorithmFromName(const std::string& name);

/// {"tau": 30, "max_level": -1, "algorithm": "auto", "enumeration_limit": N}
/// — every member optional (struct defaults apply); any other member is
/// rejected.
StatusOr<AuditRequest> AuditRequestFromJson(const json::JsonValue& v);

/// {"tau", "lambda", "rules": ["A in {x, y}"], "min_value_count",
///  "enumeration_limit", "mups": ["X1X0", ...]}.
StatusOr<EnhanceRequest> EnhanceRequestFromJson(const json::JsonValue& v,
                                                const Schema& schema);

/// Either {"queries": [{"pattern": "X1X0", "tau": 0}, ...]} or the
/// shorthand {"patterns": ["X1X0", ...], "tau": 0} (one tau for all).
StatusOr<QueryBatchRequest> QueryBatchRequestFromJson(
    const json::JsonValue& v, const Schema& schema);

/// {"attributes": [{"name": "race", "values": ["white", "black", ...]} |
///                 {"name": "A1", "cardinality": 3}, ...]}
/// (anonymous values "0".."c-1" for the cardinality form).
StatusOr<Schema> SchemaFromJson(const json::JsonValue& v);

/// {"rows": [[cell, ...], ...]} where each cell is the encoded integer or
/// the value's label string ("white"); every row must have one cell per
/// schema attribute.
StatusOr<Dataset> RowsFromJson(const json::JsonValue& v, const Schema& schema);

}  // namespace wire
}  // namespace coverage

#endif  // COVERAGE_SERVER_WIRE_H_
