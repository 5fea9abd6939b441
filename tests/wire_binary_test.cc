// Wire v2 (server/wire_binary.h): exact round-trips from both MUP
// representations (packed and materialized, both sent as sparse cells),
// the ToJson byte-identity contract, strict rejection of damaged frames, a
// seeded mutation fuzz over the decoders, the >= 60% size win over the
// canonical JSON on a large MUP set, and Accept-header negotiation end to
// end through CoverageServer + HttpClient.

#include "server/wire_binary.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "server/coverage_server.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/wire.h"
#include "service/coverage_service.h"

namespace coverage {
namespace {

using http::HttpClient;
using http::Request;
using http::Response;
using json::JsonValue;

CoverageService MakeCompasService() {
  auto service =
      CoverageService::FromSpec(DatagenSpec{"compas", 0, 13, 42}, {});
  EXPECT_TRUE(service.ok());
  return std::move(*service);
}

std::string CanonicalJson(const AuditResult& result, const Schema& schema) {
  return json::Serialize(wire::ToJson(result, schema));
}

/// Zeroes every "seconds" member so two independently-timed responses
/// compare on everything that is deterministic.
void ZeroTimings(JsonValue& v) {
  if (v.is_array()) {
    for (JsonValue& item : v.AsArray()) ZeroTimings(item);
  } else if (v.is_object()) {
    for (auto& [key, value] : v.AsObject()) {
      if (key == "seconds") {
        value = JsonValue(0);
      } else {
        ZeroTimings(value);
      }
    }
  }
}

std::string Normalized(const std::string& json_text) {
  auto parsed = json::Parse(json_text);
  EXPECT_TRUE(parsed.ok()) << json_text;
  if (!parsed.ok()) return "<unparseable>";
  ZeroTimings(*parsed);
  return json::Serialize(*parsed);
}

// ------------------------------------------------------- round trips --

TEST(WireBinary, AuditRoundTripPackedIsByteIdenticalInJson) {
  const CoverageService service = MakeCompasService();
  AuditRequest request;
  request.tau = 30;
  request.materialize_patterns = false;  // the server's shape: packed only
  auto result = service.Audit(request);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->packed.has_value());
  ASSERT_TRUE(result->mups.empty());

  const std::string bytes = wire::EncodeAuditResultBinary(*result);
  auto decoded = wire::DecodeAuditResultBinary(bytes, service.schema());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->packed.has_value());
  EXPECT_EQ(CanonicalJson(*decoded, service.schema()),
            CanonicalJson(*result, service.schema()));
}

TEST(WireBinary, AuditRoundTripMaterializedIsByteIdenticalInJson) {
  const CoverageService service = MakeCompasService();
  AuditRequest request;
  request.tau = 30;
  auto result = service.Audit(request);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->mups.empty());
  ASSERT_TRUE(result->packed.has_value());
  const std::string from_packed = wire::EncodeAuditResultBinary(*result);
  // Drop the packed set: the materialized-only shape Session::Audit and the
  // coordinator produce. It travels as the same sparse cells.
  result->packed.reset();

  const std::string bytes = wire::EncodeAuditResultBinary(*result);
  EXPECT_EQ(bytes, from_packed);
  auto decoded = wire::DecodeAuditResultBinary(bytes, service.schema());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->packed.has_value());
  EXPECT_EQ(decoded->packed->Materialize(), result->mups);
  EXPECT_EQ(CanonicalJson(*decoded, service.schema()),
            CanonicalJson(*result, service.schema()));
}

TEST(WireBinary, QueryBatchRoundTripIsByteIdenticalInJson) {
  const CoverageService service = MakeCompasService();
  QueryBatchRequest request;
  const Schema& schema = service.schema();
  std::vector<Value> wildcards(
      static_cast<std::size_t>(schema.num_attributes()), kWildcard);
  request.queries.push_back(QueryRequest{Pattern(wildcards), 0});
  std::vector<Value> first = wildcards;
  first[0] = 0;
  request.queries.push_back(QueryRequest{Pattern(first), 10});
  auto result = service.QueryBatch(request);
  ASSERT_TRUE(result.ok());

  const std::string bytes = wire::EncodeQueryBatchResultBinary(*result);
  auto decoded = wire::DecodeQueryBatchResultBinary(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Byte-identical including the timing: seconds travels as IEEE-754 bits.
  EXPECT_EQ(json::Serialize(wire::ToJson(*decoded)),
            json::Serialize(wire::ToJson(*result)));
}

// ------------------------------------------------------- size on wire --

TEST(WireBinary, LargeMupSetShrinksAtLeastSixtyPercent) {
  // ~10k synthetic level-3 MUPs on a 5-attribute schema: the acceptance
  // bar for the binary encoding's reason to exist.
  const Schema schema = Schema::Uniform({11, 11, 11, 11, 11});
  auto codec = PatternCodec::Build(schema);
  ASSERT_TRUE(codec.ok());

  AuditResult result;
  result.algorithm = "DEEPDIVER";
  result.max_level = -1;
  result.tau = 30;
  result.num_rows = 1000000;
  result.planner_rationale = "synthetic fixture for the size bound";
  result.packed.emplace();
  result.packed->codec = *codec;
  for (int a = 0; a < 11 && result.packed->mups.size() < 10000; ++a) {
    for (int b = 0; b < 11; ++b) {
      for (int c = 0; c < 11; ++c) {
        for (int d = 0; d < 11 && result.packed->mups.size() < 10000; ++d) {
          PackedPattern p = codec->Root();
          p = codec->WithCell(p, 0, static_cast<Value>(a));
          p = codec->WithCell(p, 1, static_cast<Value>(b));
          p = codec->WithCell(p, 2, static_cast<Value>(c));
          p = codec->WithCell(p, 3, static_cast<Value>(d));
          result.packed->mups.push_back(p);
        }
      }
    }
  }
  ASSERT_EQ(result.packed->mups.size(), 10000u);
  result.stats.num_mups = result.packed->mups.size();

  const std::string binary = wire::EncodeAuditResultBinary(result);
  const std::string json_text = CanonicalJson(result, schema);
  EXPECT_LE(binary.size(), json_text.size() * 2 / 5)
      << "binary " << binary.size() << " bytes vs JSON " << json_text.size();

  // And the compact form still decodes to the exact same document.
  auto decoded = wire::DecodeAuditResultBinary(binary, schema);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(CanonicalJson(*decoded, schema), json_text);
}

// ------------------------------------------------------- strictness --

TEST(WireBinary, RejectsDamagedFrames) {
  const CoverageService service = MakeCompasService();
  AuditRequest request;
  request.tau = 30;
  request.materialize_patterns = false;
  auto result = service.Audit(request);
  ASSERT_TRUE(result.ok());
  const std::string good = wire::EncodeAuditResultBinary(*result);
  ASSERT_TRUE(wire::DecodeAuditResultBinary(good, service.schema()).ok());

  std::string bad = good;
  bad[0] = 'X';  // magic
  EXPECT_FALSE(wire::DecodeAuditResultBinary(bad, service.schema()).ok());

  bad = good;
  bad[4] ^= 0xFF;  // version
  EXPECT_FALSE(wire::DecodeAuditResultBinary(bad, service.schema()).ok());

  bad = good;
  bad[5] = 2;  // msg_type says query batch
  EXPECT_FALSE(wire::DecodeAuditResultBinary(bad, service.schema()).ok());

  bad = good;
  bad.back() ^= 0x01;  // payload flip breaks the CRC
  EXPECT_FALSE(wire::DecodeAuditResultBinary(bad, service.schema()).ok());

  bad = good + "!";  // trailing garbage breaks the CRC-covered length
  EXPECT_FALSE(wire::DecodeAuditResultBinary(bad, service.schema()).ok());

  EXPECT_FALSE(wire::DecodeAuditResultBinary(
                   std::string_view(good).substr(0, 8), service.schema())
                   .ok());
  EXPECT_FALSE(wire::DecodeAuditResultBinary("", service.schema()).ok());
  EXPECT_FALSE(wire::DecodeQueryBatchResultBinary(good).ok());  // wrong type

  // A well-framed audit whose MUP kind byte says 2, the retired
  // pattern-string encoding. The kind byte follows the frame header, the
  // two length-prefixed strings, max_level, num_rows, five stats words and
  // tau.
  const std::size_t kind_at = 10 + 8 + result->algorithm.size() + 8 + 8 +
                              8 + result->planner_rationale.size() + 5 * 8 + 8;
  ASSERT_EQ(good[kind_at], 1);
  std::string payload = good.substr(10);
  payload[kind_at - 10] = 2;
  const auto kind2 = wire::DecodeAuditResultBinary(
      wire::FrameBinaryMessage(1, payload), service.schema());
  EXPECT_EQ(kind2.status().code(), StatusCode::kInvalidArgument)
      << kind2.status().ToString();
}

TEST(WireBinary, SeededMutationFuzzNeverCrashes) {
  const CoverageService service = MakeCompasService();
  AuditRequest request;
  request.tau = 30;
  request.materialize_patterns = false;
  auto audit = service.Audit(request);
  ASSERT_TRUE(audit.ok());
  QueryBatchRequest qreq;
  std::vector<Value> wildcards(
      static_cast<std::size_t>(service.schema().num_attributes()), kWildcard);
  qreq.queries.push_back(QueryRequest{Pattern(wildcards), 0});
  auto batch = service.QueryBatch(qreq);
  ASSERT_TRUE(batch.ok());

  const std::string seeds[] = {
      wire::EncodeAuditResultBinary(*audit),
      wire::EncodeQueryBatchResultBinary(*batch),
  };
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 4000; ++i) {
    std::string frame = seeds[i % 2];
    const int flips = 1 + static_cast<int>(rng.NextUint64(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.NextUint64(frame.size());
      frame[at] = static_cast<char>(rng.NextUint64(256));
    }
    if (rng.NextUint64(4) == 0) {
      frame.resize(rng.NextUint64(frame.size() + 1));  // random truncation
    }
    // Either decoder must answer with a Status, never a crash or a hang.
    (void)wire::DecodeAuditResultBinary(frame, service.schema());
    (void)wire::DecodeQueryBatchResultBinary(frame);
  }
}

// ---------------------------------------------------- negotiation e2e --

class WireBinaryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CoverageServerOptions options;
    options.http.port = 0;
    options.http.num_threads = 2;
    options.session_defaults.tau = 5;
    server_ = std::make_unique<CoverageServer>(MakeCompasService(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  HttpClient Client(bool accept_binary) {
    HttpClient::Options options;
    options.accept_binary = accept_binary;
    auto client =
        HttpClient::Connect("127.0.0.1", server_->port(), options);
    EXPECT_TRUE(client.ok());
    return std::move(*client);
  }

  std::unique_ptr<CoverageServer> server_;
};

TEST_F(WireBinaryServerTest, AuditNegotiatesBinaryAndMatchesJson) {
  auto json_client = Client(false);
  auto bin_client = Client(true);
  const std::string body = R"({"tau": 30})";

  auto json_response = json_client.Post("/v1/audit", body);
  ASSERT_TRUE(json_response.ok());
  ASSERT_EQ(json_response->status, 200);

  auto bin_response = bin_client.Post("/v1/audit", body);
  ASSERT_TRUE(bin_response.ok());
  ASSERT_EQ(bin_response->status, 200);
  const std::string* content_type = bin_response->FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(*content_type, wire::kBinaryContentType);
  EXPECT_LT(bin_response->body.size(), json_response->body.size());

  auto decoded = wire::DecodeAuditResultBinary(bin_response->body,
                                               server_->service().schema());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(
      Normalized(CanonicalJson(*decoded, server_->service().schema())),
      Normalized(json_response->body));
}

TEST_F(WireBinaryServerTest, QueryNegotiatesBinaryAndMatchesJson) {
  auto json_client = Client(false);
  auto bin_client = Client(true);
  const std::string body = R"({"patterns": ["XXXX", "1XXX", "X0X1"]})";

  auto json_response = json_client.Post("/v1/query", body);
  ASSERT_TRUE(json_response.ok());
  ASSERT_EQ(json_response->status, 200);

  auto bin_response = bin_client.Post("/v1/query", body);
  ASSERT_TRUE(bin_response.ok());
  ASSERT_EQ(bin_response->status, 200);

  auto decoded = wire::DecodeQueryBatchResultBinary(bin_response->body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Normalized(json::Serialize(wire::ToJson(*decoded))),
            Normalized(json_response->body));
}

TEST_F(WireBinaryServerTest, SessionRoutesNegotiateBinary) {
  auto client = Client(true);
  auto created = client.Post("/v1/sessions", R"({"tau": 5})");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201);
  auto parsed = json::Parse(created->body);
  ASSERT_TRUE(parsed.ok());  // control plane stays JSON even when accepted
  const std::string id = *parsed->GetString("session_id");

  auto appended = client.Post(
      "/v1/sessions/" + id + "/append",
      R"({"rows": [[0, 0, 0, 0], [1, 1, 1, 1]]})");
  ASSERT_TRUE(appended.ok());
  ASSERT_EQ(appended->status, 200);

  auto audit = client.Post("/v1/sessions/" + id + "/audit", "{}");
  ASSERT_TRUE(audit.ok());
  ASSERT_EQ(audit->status, 200);
  const std::string* content_type = audit->FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(*content_type, wire::kBinaryContentType);
  auto decoded = wire::DecodeAuditResultBinary(audit->body,
                                               server_->service().schema());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->algorithm, "ENGINE-INCREMENTAL");

  // Errors stay JSON regardless of the Accept header.
  auto bad = client.Post("/v1/audit", R"({"tau": 0})");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
  EXPECT_TRUE(json::Parse(bad->body).ok());
}

}  // namespace
}  // namespace coverage
