// End-to-end cluster tests (cluster/coordinator.h): real CoverageServer
// shard processes-in-miniature (loopback HTTP, internal routes enabled)
// behind a real ClusterCoordinator. Covers: audit/query answers identical
// to a single node over the concatenated rows (JSON and binary), session
// routing through the ring, the structured 503 + error-metric degradation
// when a shard dies, schema-mismatch rejection at boot, and the cluster
// stats/health surfaces.

#include "cluster/coordinator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "datagen/compas.h"
#include "server/coverage_server.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/wire.h"
#include "server/wire_binary.h"
#include "service/coverage_service.h"

namespace coverage {
namespace cluster {
namespace {

using http::HttpClient;
using http::Request;
using json::JsonValue;

Dataset Slice(const Dataset& full, std::size_t index, std::size_t count) {
  Dataset slice(full.schema());
  for (std::size_t r = index; r < full.num_rows(); r += count) {
    slice.AppendRow(full.row(r));
  }
  return slice;
}

CoverageService ServiceOver(const Dataset& data) {
  auto service = CoverageService::FromDataset(data);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

/// N shard CoverageServers over round-robin slices + a coordinator over
/// them, all on loopback ephemeral ports.
struct Cluster {
  std::vector<std::unique_ptr<CoverageServer>> shard_servers;
  std::vector<std::string> endpoints;
  std::unique_ptr<ClusterCoordinator> coordinator;

  std::string endpoint(std::size_t i) const { return endpoints[i]; }
};

Cluster MakeCluster(const Dataset& full, std::size_t num_shards,
                    bool start = true) {
  Cluster cluster;
  for (std::size_t i = 0; i < num_shards; ++i) {
    CoverageServerOptions options;
    options.http.port = 0;
    options.http.num_threads = 2;
    options.enable_internal_routes = true;
    cluster.shard_servers.push_back(std::make_unique<CoverageServer>(
        ServiceOver(Slice(full, i, num_shards)), options));
    EXPECT_TRUE(cluster.shard_servers.back()->Start().ok());
    cluster.endpoints.push_back(
        "127.0.0.1:" +
        std::to_string(cluster.shard_servers.back()->port()));
  }
  CoordinatorOptions options;
  options.http.port = 0;
  options.http.num_threads = 2;
  options.shards = cluster.endpoints;
  options.retry.backoff_ms = 0;
  options.boot_attempts = 5;
  options.boot_backoff_ms = 10;
  cluster.coordinator = std::make_unique<ClusterCoordinator>(options);
  if (start) {
    EXPECT_TRUE(cluster.coordinator->Start().ok());
  }
  return cluster;
}

HttpClient Connect(const Cluster& cluster) {
  auto client =
      HttpClient::Connect("127.0.0.1", cluster.coordinator->port());
  EXPECT_TRUE(client.ok());
  return std::move(*client);
}

std::vector<std::string> MupStrings(const JsonValue& audit_body) {
  std::vector<std::string> out;
  const JsonValue* mups = audit_body.Find("mups");
  EXPECT_NE(mups, nullptr);
  for (const JsonValue& m : mups->AsArray()) {
    out.push_back(*m.GetString("pattern"));
  }
  return out;
}

class ClusterCoordinatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    full_ = datagen::MakeCompas(1200, 42).data;
    cluster_ = MakeCluster(full_, 2);
    reference_ = std::make_unique<CoverageService>(ServiceOver(full_));
  }

  Dataset full_{Schema::Uniform({2})};
  Cluster cluster_;
  std::unique_ptr<CoverageService> reference_;
};

TEST_F(ClusterCoordinatorTest, AuditMatchesSingleNodeOverJson) {
  AuditRequest request;
  request.tau = 12;
  auto expected = reference_->Audit(request);
  ASSERT_TRUE(expected.ok());

  auto client = Connect(cluster_);
  auto response = client.Post("/v1/audit", R"({"tau": 12})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200) << response->body;
  auto body = json::Parse(response->body);
  ASSERT_TRUE(body.ok());

  const std::string expected_body =
      json::Serialize(wire::ToJson(*expected, reference_->schema()));
  auto expected_json = json::Parse(expected_body);
  ASSERT_TRUE(expected_json.ok());
  // The MUP sets — the actual answer — are identical, pattern for pattern,
  // in the same order. Stats legitimately differ (RPC-tier accounting).
  EXPECT_EQ(MupStrings(*body), MupStrings(*expected_json));
  EXPECT_EQ(*body->GetUint("num_rows"), full_.num_rows());
  EXPECT_EQ(*body->GetUint("tau"), 12u);
  EXPECT_EQ(*body->GetString("algorithm"), "DISTRIBUTED-BREAKER");
}

TEST_F(ClusterCoordinatorTest, AuditNegotiatesBinary) {
  auto client = Connect(cluster_);
  Request request;
  request.method = "POST";
  request.target = "/v1/audit";
  request.version = "HTTP/1.1";
  request.headers.push_back({"Accept", wire::kBinaryContentType});
  request.body = R"({"tau": 12})";
  auto response = client.Roundtrip(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  const std::string* content_type = response->FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(*content_type, wire::kBinaryContentType);

  auto decoded =
      wire::DecodeAuditResultBinary(response->body, reference_->schema());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  AuditRequest reference_request;
  reference_request.tau = 12;
  auto expected = reference_->Audit(reference_request);
  ASSERT_TRUE(expected.ok());
  // Wire v2 carries MUPs as sparse cells only; the decoder returns them
  // packed.
  ASSERT_TRUE(decoded->packed.has_value());
  const std::vector<Pattern> mups = decoded->packed->Materialize();
  ASSERT_EQ(mups.size(), expected->mups.size());
  for (std::size_t i = 0; i < mups.size(); ++i) {
    EXPECT_EQ(mups[i].ToString(), expected->mups[i].ToString());
  }
  EXPECT_EQ(decoded->num_rows, full_.num_rows());
}

TEST_F(ClusterCoordinatorTest, QueryCountsMatchSingleNode) {
  QueryBatchRequest batch;
  batch.queries.push_back(
      {*Pattern::Parse("0XXX", reference_->schema()), 5});
  batch.queries.push_back(
      {*Pattern::Parse("X1XX", reference_->schema()), 100000});
  auto expected = reference_->QueryBatch(batch);
  ASSERT_TRUE(expected.ok());

  auto client = Connect(cluster_);
  auto response = client.Post(
      "/v1/query",
      R"({"queries": [{"pattern": "0XXX", "tau": 5},
                      {"pattern": "X1XX", "tau": 100000}]})");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto body = json::Parse(response->body);
  ASSERT_TRUE(body.ok());
  const JsonValue* results = body->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->AsArray().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(*results->AsArray()[i].GetUint("coverage"),
              expected->results[i].coverage)
        << i;
    EXPECT_EQ(*results->AsArray()[i].GetBool("covered"),
              expected->results[i].covered)
        << i;
  }
}

TEST_F(ClusterCoordinatorTest, SessionsRouteThroughTheRing) {
  auto client = Connect(cluster_);
  auto created = client.Post("/v1/sessions", R"({"tau": 3})");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  auto body = json::Parse(created->body);
  ASSERT_TRUE(body.ok());
  const std::string id = *body->GetString("session_id");
  EXPECT_EQ(id, "s1");
  // The coordinator annotates which shard owns the session...
  const std::string shard = *body->GetString("shard");
  EXPECT_TRUE(shard == cluster_.endpoint(0) ||
              shard == cluster_.endpoint(1));
  // ...and it matches the ring's answer.
  EXPECT_EQ(shard, cluster_.coordinator->ring().OwnerOf(id));

  // Mutate and audit through the coordinator: verbs forward to the owner.
  auto append = client.Post("/v1/sessions/" + id + "/append",
                            R"({"rows": [[0, 1, 0, 1], [0, 1, 0, 1],
                                         [0, 1, 0, 1]]})");
  ASSERT_TRUE(append.ok());
  EXPECT_EQ(append->status, 200) << append->body;

  auto audit = client.Post("/v1/sessions/" + id + "/audit", "");
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->status, 200) << audit->body;

  // The merged listing carries the shard annotation too.
  auto list = client.Get("/v1/sessions");
  ASSERT_TRUE(list.ok());
  auto list_body = json::Parse(list->body);
  ASSERT_TRUE(list_body.ok());
  const JsonValue* sessions = list_body->Find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->AsArray().size(), 1u);
  EXPECT_EQ(*sessions->AsArray()[0].GetString("session_id"), id);
  EXPECT_EQ(*sessions->AsArray()[0].GetString("shard"), shard);

  Request del;
  del.method = "DELETE";
  del.target = "/v1/sessions/" + id;
  del.version = "HTTP/1.1";
  auto deleted = client.Roundtrip(del);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->status, 200) << deleted->body;

  auto missing = client.Post("/v1/sessions/" + id + "/audit", "");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(ClusterCoordinatorTest, ShardDownDegradesToStructured503) {
  // Kill shard 1 (ungracefully, as far as the coordinator can tell).
  cluster_.shard_servers[1]->Stop();

  auto client = Connect(cluster_);
  auto response = client.Post("/v1/audit", R"({"tau": 12})");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 503);
  auto body = json::Parse(response->body);
  ASSERT_TRUE(body.ok()) << response->body;
  const JsonValue* error = body->Find("error");
  ASSERT_NE(error, nullptr) << response->body;
  EXPECT_EQ(*error->GetString("code"), "shard_unavailable");
  EXPECT_EQ(*error->GetString("shard"), cluster_.endpoint(1));
  EXPECT_FALSE(error->GetString("message")->empty());

  // The per-shard error counter moved.
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("coverage_cluster_shard_errors_total"),
            std::string::npos);
  const std::string series = "coverage_cluster_shard_errors_total{shard=\"" +
                             cluster_.endpoint(1) + "\"}";
  const std::size_t at = metrics->body.find(series);
  ASSERT_NE(at, std::string::npos) << metrics->body;
  EXPECT_NE(metrics->body.find(series + " 0"), at) << "counter still zero";

  // Queries degrade the same way.
  auto query = client.Post(
      "/v1/query", R"({"queries": [{"pattern": "0XXX", "tau": 1}]})");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->status, 503);

  // The healthy shard still answers routes that only need it — the
  // coordinator itself stays up.
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
}

TEST_F(ClusterCoordinatorTest, StatsExposeTheClusterSection) {
  auto client = Connect(cluster_);
  ASSERT_EQ(client.Post("/v1/audit", R"({"tau": 12})")->status, 200);

  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto body = json::Parse(stats->body);
  ASSERT_TRUE(body.ok());
  const JsonValue* cluster = body->Find("cluster");
  ASSERT_NE(cluster, nullptr) << stats->body;
  EXPECT_EQ(*cluster->GetString("role"), "coordinator");
  EXPECT_EQ(*cluster->GetUint("audits"), 1u);
  const JsonValue* shards = cluster->Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->AsArray().size(), 2u);
  for (const JsonValue& shard : shards->AsArray()) {
    EXPECT_GE(*shard.GetUint("connects"), 1u);
  }
  const JsonValue* ring = cluster->Find("ring");
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(*ring->GetUint("members"), 2u);
}

TEST_F(ClusterCoordinatorTest, SchemaAndHealthReflectTheCluster) {
  auto client = Connect(cluster_);
  auto schema = client.Get("/v1/schema");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->body,
            json::Serialize(wire::ToJson(reference_->schema())));

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  auto body = json::Parse(health->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body->GetString("status"), "serving");
  EXPECT_EQ(*body->GetString("role"), "coordinator");
  EXPECT_EQ(*body->GetUint("shards"), 2u);
}

TEST_F(ClusterCoordinatorTest, EnhanceIsNotDistributed) {
  auto client = Connect(cluster_);
  auto response = client.Post("/v1/enhance", R"({"mups": []})");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400) << response->body;
  EXPECT_NE(response->body.find("not distributed"), std::string::npos);
}

TEST(ClusterBootTest, SchemaMismatchIsRejected) {
  // Shard 0 speaks COMPAS, shard 1 a toy schema — the coordinator must
  // refuse to serve rather than sum counts across different worlds.
  CoverageServerOptions shard_options;
  shard_options.http.port = 0;
  shard_options.enable_internal_routes = true;

  CoverageServer compas(
      ServiceOver(datagen::MakeCompas(200, 1).data), shard_options);
  ASSERT_TRUE(compas.Start().ok());

  Dataset toy(Schema::Uniform({2, 3}));
  toy.AppendRow(std::vector<Value>{0, 1});
  CoverageServer other(ServiceOver(toy), shard_options);
  ASSERT_TRUE(other.Start().ok());

  CoordinatorOptions options;
  options.http.port = 0;
  options.shards = {"127.0.0.1:" + std::to_string(compas.port()),
                    "127.0.0.1:" + std::to_string(other.port())};
  options.retry.backoff_ms = 0;
  options.boot_attempts = 2;
  options.boot_backoff_ms = 1;
  ClusterCoordinator coordinator(options);
  const Status status = coordinator.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("schema"), std::string::npos);

  compas.Stop();
  other.Stop();
}

TEST(ClusterBootTest, UnreachableShardFailsStartAfterRetries) {
  CoordinatorOptions options;
  options.http.port = 0;
  options.shards = {"127.0.0.1:1"};  // nothing listens there
  options.retry.backoff_ms = 0;
  options.retry.max_attempts = 1;
  options.boot_attempts = 2;
  options.boot_backoff_ms = 1;
  ClusterCoordinator coordinator(options);
  EXPECT_FALSE(coordinator.Start().ok());
}

TEST(ClusterBootTest, OptionsValidate) {
  CoordinatorOptions options;
  EXPECT_FALSE(options.Validate().ok());  // no shards
  options.shards = {"127.0.0.1:9000"};
  EXPECT_TRUE(options.Validate().ok());
  options.ring_vnodes = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ClusterBootTest, ParseEndpointAcceptsHostPortOnly) {
  auto good = ParseEndpoint("10.0.0.1:9000");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->first, "10.0.0.1");
  EXPECT_EQ(good->second, 9000);
  // "localhost" is translated to a dialable numeric address.
  auto local = ParseEndpoint("localhost:19100");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->first, "127.0.0.1");
  EXPECT_FALSE(ParseEndpoint("nope").ok());
  EXPECT_FALSE(ParseEndpoint("host:notaport").ok());
  EXPECT_FALSE(ParseEndpoint("host:0").ok());
  EXPECT_FALSE(ParseEndpoint("host:70000").ok());
}

}  // namespace
}  // namespace cluster
}  // namespace coverage
