// Cluster shard-merge wire (cluster/cluster_wire.h): exact round-trips for
// msg types 3 (shard counts) and 4 (shard candidates), strict decoder
// rejection, golden byte pins (tests/golden/*.hex — regenerate with
// COVERAGE_UPDATE_GOLDEN=1), and the request-body builders the coordinator
// shares with the shard-side JSON decoders.

#include "cluster/cluster_wire.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "server/wire.h"
#include "server/wire_binary.h"

namespace coverage {
namespace cluster {
namespace {

Schema TestSchema() { return Schema::Uniform({2, 3, 2}); }

Pattern P(const std::string& text) {
  auto pattern = Pattern::Parse(text, TestSchema());
  EXPECT_TRUE(pattern.ok()) << text;
  return *pattern;
}

/// A fully deterministic candidates payload: every field fixed, seconds an
/// exactly-representable double, so the encoded bytes are pin-able.
AuditResult FixedAudit() {
  AuditResult audit;
  audit.mups = {P("1XX"), P("X2X")};
  audit.algorithm = "BREAKER";
  audit.max_level = -1;
  audit.tau = 30;
  audit.num_rows = 1234;
  audit.planner_rationale = "fixed";
  audit.stats.coverage_queries = 17;
  audit.stats.nodes_generated = 40;
  audit.stats.nodes_pruned = 8;
  audit.stats.num_mups = 2;
  audit.stats.seconds = 0.25;
  return audit;
}

QueryBatchResult FixedCounts() {
  QueryBatchResult batch;
  batch.results.resize(3);
  batch.results[0] = {120, true};
  batch.results[1] = {0, false};
  batch.results[2] = {7, true};
  batch.coverage_queries = 3;
  batch.seconds = 0.03125;
  return batch;
}

std::string HexEncode(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    hex.push_back(digits[c >> 4]);
    hex.push_back(digits[c & 0xf]);
  }
  return hex;
}

std::string GoldenPath(const std::string& name) {
  return std::string(COVERAGE_REPO_DIR) + "/tests/golden/" + name;
}

/// Compares `bytes` against the hex golden, or rewrites it when
/// COVERAGE_UPDATE_GOLDEN is set (review the diff like an API change — the
/// internal protocol is versioned by these pins).
void ExpectGolden(const std::string& name, const std::string& bytes) {
  const std::string path = GoldenPath(name);
  const std::string hex = HexEncode(bytes);
  if (std::getenv("COVERAGE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << hex << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate per tests/golden/README.md)";
  std::string expected;
  in >> expected;
  EXPECT_EQ(hex, expected)
      << "cluster wire bytes drifted from " << name
      << " — if intentional, regenerate with COVERAGE_UPDATE_GOLDEN=1";
}

TEST(ClusterWireTest, CountsRoundTripExact) {
  const std::string bytes = EncodeShardCountsBinary(5000, FixedCounts());
  auto decoded = DecodeShardCountsBinary(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_rows, 5000u);
  EXPECT_EQ(decoded->coverage_queries, 3u);
  EXPECT_EQ(decoded->seconds, 0.03125);
  ASSERT_EQ(decoded->counts.size(), 3u);
  EXPECT_EQ(decoded->counts[0], 120u);
  EXPECT_EQ(decoded->counts[1], 0u);
  EXPECT_EQ(decoded->counts[2], 7u);
}

TEST(ClusterWireTest, CountsGoldenBytes) {
  ExpectGolden("cluster_counts_v1.hex",
               EncodeShardCountsBinary(5000, FixedCounts()));
}

TEST(ClusterWireTest, CandidatesRoundTripExact) {
  const AuditResult audit = FixedAudit();
  const std::string bytes = EncodeShardCandidatesBinary(1234, audit);
  auto decoded = DecodeShardCandidatesBinary(bytes, TestSchema());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_rows, 1234u);
  EXPECT_FALSE(decoded->audit.packed.has_value());
  ASSERT_EQ(decoded->audit.mups.size(), 2u);
  EXPECT_EQ(decoded->audit.mups[0].ToString(), "1XX");
  EXPECT_EQ(decoded->audit.mups[1].ToString(), "X2X");
  EXPECT_EQ(decoded->audit.tau, 30u);
  EXPECT_EQ(decoded->audit.stats.coverage_queries, 17u);
  EXPECT_EQ(decoded->audit.stats.seconds, 0.25);
  EXPECT_EQ(decoded->audit.algorithm, "BREAKER");
}

TEST(ClusterWireTest, CandidatesGoldenBytes) {
  ExpectGolden("cluster_candidates_v1.hex",
               EncodeShardCandidatesBinary(1234, FixedAudit()));
}

TEST(ClusterWireTest, DecodersRejectWrongType) {
  const std::string counts = EncodeShardCountsBinary(1, FixedCounts());
  const std::string candidates =
      EncodeShardCandidatesBinary(1, FixedAudit());
  // A counts frame offered to the candidates decoder (and vice versa) must
  // fail on msg_type, not misparse.
  EXPECT_FALSE(DecodeShardCandidatesBinary(counts, TestSchema()).ok());
  EXPECT_FALSE(DecodeShardCountsBinary(candidates).ok());
}

TEST(ClusterWireTest, DecodersRejectDamage) {
  const std::string bytes = EncodeShardCountsBinary(5000, FixedCounts());
  // Truncation at every prefix length.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeShardCountsBinary(bytes.substr(0, len)).ok()) << len;
  }
  // Trailing garbage.
  EXPECT_FALSE(DecodeShardCountsBinary(bytes + "x").ok());
  // Any single flipped payload byte trips the checksum.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x20);
  EXPECT_FALSE(DecodeShardCountsBinary(corrupt).ok());

  const std::string cand = EncodeShardCandidatesBinary(1, FixedAudit());
  for (std::size_t len = 0; len < cand.size(); len += 3) {
    EXPECT_FALSE(DecodeShardCandidatesBinary(cand.substr(0, len),
                                             TestSchema())
                     .ok())
        << len;
  }
}

TEST(ClusterWireTest, CountsRequestJsonParsesAsQueryBatch) {
  const Schema schema = TestSchema();
  const std::vector<Pattern> patterns = {P("1XX"), P("XX0")};
  const std::string body = CountsRequestJson(patterns);
  auto parsed = json::Parse(body);
  ASSERT_TRUE(parsed.ok());
  auto request = wire::QueryBatchRequestFromJson(*parsed, schema);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  ASSERT_EQ(request->queries.size(), 2u);
  EXPECT_EQ(request->queries[0].pattern.ToString(), "1XX");
  EXPECT_EQ(request->queries[1].pattern.ToString(), "XX0");
}

TEST(ClusterWireTest, AuditRequestJsonRoundTripsEveryKnob) {
  AuditRequest request;
  request.tau = 7;
  request.max_level = 3;
  request.algorithm = MupAlgorithm::kPatternBreaker;
  request.enumeration_limit = 1 << 20;
  const std::string body = AuditRequestJson(request);
  auto parsed = json::Parse(body);
  ASSERT_TRUE(parsed.ok());
  // Exactly the members /v1/audit accepts: a shard rejects any other.
  EXPECT_EQ(parsed->Find("dominance_mode"), nullptr);
  auto decoded = wire::AuditRequestFromJson(*parsed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->tau, 7u);
  EXPECT_EQ(decoded->max_level, 3);
  EXPECT_EQ(decoded->algorithm, MupAlgorithm::kPatternBreaker);
  EXPECT_EQ(decoded->enumeration_limit, std::uint64_t{1} << 20);
}

}  // namespace
}  // namespace cluster
}  // namespace coverage
