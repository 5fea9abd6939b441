#include "cluster/coordinator.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "obs/log.h"
#include "obs/prometheus.h"
#include "server/json.h"
#include "server/wire.h"
#include "server/wire_binary.h"

namespace coverage {
namespace cluster {

using http::Request;
using http::Response;
using json::JsonValue;

namespace {

// Mirrors coverage_server.cc's status mapping so a forwarded cluster and a
// single node answer errors identically.
int StatusToHttp(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kInternal: return "internal";
  }
  return "internal";
}

Response ErrorResponse(const Status& status) {
  JsonValue::Object error;
  error["code"] = StatusCodeName(status.code());
  error["message"] = status.message();
  JsonValue::Object body;
  body["error"] = std::move(error);
  return Response::Json(StatusToHttp(status),
                        json::Serialize(JsonValue(std::move(body))));
}

Response OkJson(JsonValue value) {
  return Response::Json(200, json::Serialize(value));
}

Response OkBinary(std::string bytes) {
  Response r;
  r.status = 200;
  r.headers.push_back({"Content-Type", wire::kBinaryContentType});
  r.body = std::move(bytes);
  return r;
}

bool AcceptsBinary(const Request& request) {
  const std::string* accept = request.FindHeader("Accept");
  return accept != nullptr &&
         accept->find(wire::kBinaryContentType) != std::string::npos;
}

StatusOr<JsonValue> ParseBody(const std::string& body) {
  if (body.empty()) return JsonValue(JsonValue::Object{});
  auto parsed = json::Parse(body);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  return parsed;
}

/// One thread per shard, the caller is worker 0 (same shape as the
/// distributed audit's scatter).
template <typename Fn>
void ForEachShard(std::size_t num_shards, Fn&& fn) {
  if (num_shards == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(num_shards - 1);
  for (std::size_t s = 1; s < num_shards; ++s) {
    workers.emplace_back([&fn, s] { fn(s); });
  }
  fn(0);
  for (std::thread& w : workers) w.join();
}

/// The canonical schema bytes — key-sorted JSON — for the boot-time
/// "all shards agree" check.
std::string SchemaFingerprint(const Schema& schema) {
  return json::Serialize(wire::ToJson(schema));
}

}  // namespace

StatusOr<std::pair<std::string, int>> ParseEndpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    return Status::InvalidArgument("shard endpoint must be host:port (got '" +
                                   text + "')");
  }
  int port = 0;
  for (std::size_t i = colon + 1; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') {
      return Status::InvalidArgument("bad port in shard endpoint '" + text +
                                     "'");
    }
    port = port * 10 + (text[i] - '0');
    if (port > 65535) {
      return Status::InvalidArgument("bad port in shard endpoint '" + text +
                                     "'");
    }
  }
  if (port < 1) {
    return Status::InvalidArgument("bad port in shard endpoint '" + text +
                                   "'");
  }
  std::string host = text.substr(0, colon);
  // HttpClient dials numeric IPv4 only; accept the one hostname every
  // smoke script types. The dialed form is also the shard's canonical
  // identity everywhere it surfaces (ring, metrics labels, 503 bodies).
  if (host == "localhost") host = "127.0.0.1";
  return std::make_pair(std::move(host), port);
}

Status CoordinatorOptions::Validate() const {
  COVERAGE_RETURN_IF_ERROR(http.Validate());
  COVERAGE_RETURN_IF_ERROR(retry.Validate());
  if (shards.empty()) {
    return Status::InvalidArgument("coordinator needs at least one shard");
  }
  for (const std::string& shard : shards) {
    COVERAGE_RETURN_IF_ERROR(ParseEndpoint(shard).status());
  }
  if (ring_vnodes < 1) {
    return Status::InvalidArgument("ring_vnodes must be >= 1");
  }
  if (max_batch_patterns < 1) {
    return Status::InvalidArgument("max_batch_patterns must be >= 1");
  }
  if (boot_attempts < 1) {
    return Status::InvalidArgument("boot_attempts must be >= 1");
  }
  return Status::OK();
}

ClusterCoordinator::ClusterCoordinator(CoordinatorOptions options)
    : options_(std::move(options)),
      http_(options_.http,
            [this](const Request& request) { return Handle(request); }),
      ring_(options_.ring_vnodes) {
  if (options_.metrics_registry != nullptr) {
    metrics_ = options_.metrics_registry;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }

  shards_.reserve(options_.shards.size());
  for (const std::string& raw : options_.shards) {
    auto parsed = ParseEndpoint(raw);
    if (!parsed.ok()) continue;  // Validate() rejects these before Start()
    // One canonical identity per shard ("127.0.0.1:9000" even when the
    // flag said "localhost:9000") so the 503 body, the metric label and
    // the ring member always agree.
    const std::string endpoint =
        parsed->first + ":" + std::to_string(parsed->second);
    if (shard_index_.contains(endpoint)) continue;  // dedup

    ClientPoolOptions pool_options;
    pool_options.client = options_.rpc;
    pool_options.retry = options_.retry;
    pool_options.rpc_seconds = metrics_->GetHistogram(
        "coverage_cluster_rpc_seconds",
        "Coordinator-observed shard roundtrip latency (successful calls)",
        {{"shard", endpoint}});
    pool_options.errors = metrics_->GetCounter(
        "coverage_cluster_shard_errors_total",
        "Shard calls that exhausted every retry attempt",
        {{"shard", endpoint}});

    ShardEntry entry;
    entry.endpoint = endpoint;
    entry.pool = std::make_unique<ClientPool>(parsed->first, parsed->second,
                                              std::move(pool_options));
    entry.backend =
        std::make_unique<HttpShardBackend>(entry.pool.get(), &schema_);
    shard_index_[endpoint] = shards_.size();
    shards_.push_back(std::move(entry));
    ring_.AddMember(endpoint);
  }
  backends_.reserve(shards_.size());
  for (ShardEntry& entry : shards_) backends_.push_back(entry.backend.get());

  metrics_
      ->GetGauge("coverage_cluster_ring_members",
                 "Shard members on the consistent-hash ring")
      ->Set(static_cast<std::int64_t>(ring_.num_members()));
  metrics_
      ->GetGauge("coverage_cluster_ring_points",
                 "Virtual nodes on the consistent-hash ring")
      ->Set(static_cast<std::int64_t>(ring_.num_points()));
  audits_total_ = metrics_->GetCounter(
      "coverage_cluster_audits_total",
      "Distributed audits completed successfully");

  static const char* const kRouteKeys[] = {
      "GET /healthz",
      "GET /metrics",
      "GET /v1/stats",
      "GET /v1/schema",
      "POST /v1/audit",
      "POST /v1/query",
      "GET /v1/sessions",
      "POST /v1/sessions",
      "DELETE /v1/sessions/{id}",
      "POST /v1/sessions/{id}/append",
      "POST /v1/sessions/{id}/retract",
      "POST /v1/sessions/{id}/audit",
      "POST /v1/sessions/{id}/query",
  };
  const char* const latency_help =
      "HTTP request latency by route (transport excluded: measured around "
      "the route handler)";
  const char* const errors_help = "HTTP responses with status >= 400";
  for (const char* key : kRouteKeys) {
    routes_[key] = RouteSeries{
        metrics_->GetHistogram("coverage_http_request_seconds", latency_help,
                               {{"route", key}}),
        metrics_->GetCounter("coverage_http_request_errors_total",
                             errors_help, {{"route", key}})};
  }
  unrouted_ = RouteSeries{
      metrics_->GetHistogram("coverage_http_request_seconds", latency_help,
                             {{"route", "unrouted"}}),
      metrics_->GetCounter("coverage_http_request_errors_total", errors_help,
                           {{"route", "unrouted"}})};
}

ClusterCoordinator::~ClusterCoordinator() { Stop(); }

Status ClusterCoordinator::ConnectShards() {
  COVERAGE_RETURN_IF_ERROR(options_.Validate());
  std::string fingerprint;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardEntry& shard = shards_[s];
    StatusOr<http::Response> response =
        Status::Internal("shard never contacted");
    for (int attempt = 0; attempt < options_.boot_attempts; ++attempt) {
      if (attempt > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.boot_backoff_ms));
      }
      response = shard.pool->Get("/v1/schema");
      if (response.ok() && response->status == 200) break;
    }
    if (!response.ok()) {
      return Status::Internal("shard " + shard.endpoint +
                              " unreachable during boot: " +
                              response.status().message());
    }
    if (response->status != 200) {
      return Status::Internal("shard " + shard.endpoint +
                              " answered /v1/schema with " +
                              std::to_string(response->status));
    }
    auto parsed = json::Parse(response->body);
    if (!parsed.ok()) {
      return Status::Internal("shard " + shard.endpoint +
                              ": bad schema body: " +
                              parsed.status().message());
    }
    auto schema = wire::SchemaFromJson(*parsed);
    if (!schema.ok()) {
      return Status::Internal("shard " + shard.endpoint +
                              ": bad schema body: " +
                              schema.status().message());
    }
    const std::string this_fingerprint = SchemaFingerprint(*schema);
    if (s == 0) {
      schema_ = std::move(*schema);
      fingerprint = this_fingerprint;
    } else if (this_fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "shard " + shard.endpoint + " serves a different schema than " +
          shards_[0].endpoint + " — all shards must slice one dataset");
    }
  }
  connected_ = true;
  obs::LogInfo("cluster_connected")
      .Int("shards", static_cast<std::int64_t>(shards_.size()))
      .Int("ring_points", static_cast<std::int64_t>(ring_.num_points()));
  return Status::OK();
}

Status ClusterCoordinator::Start() {
  if (!connected_) COVERAGE_RETURN_IF_ERROR(ConnectShards());
  return http_.Start();
}

void ClusterCoordinator::Stop() { http_.Stop(); }
void ClusterCoordinator::Wait() { http_.Wait(); }
void ClusterCoordinator::StopOnSignal() { http_.StopOnSignal(); }

Response ClusterCoordinator::Handle(const Request& request) {
  Stopwatch timer;
  std::string route_key;
  Response response = Dispatch(request, &route_key);
  const double seconds = timer.ElapsedSeconds();
  auto it = routes_.find(route_key);
  const RouteSeries& series = it != routes_.end() ? it->second : unrouted_;
  series.latency->Observe(seconds);
  if (response.status >= 400) series.errors->Increment();
  return response;
}

Response ClusterCoordinator::Dispatch(const Request& request,
                                      std::string* route_key) {
  std::string path = request.target;
  const std::size_t question = path.find('?');
  if (question != std::string::npos) path.resize(question);

  const auto route = [&](const char* key) {
    *route_key = key;
    return true;
  };

  if (request.method == "GET") {
    if (path == "/healthz" && route("GET /healthz")) return HandleHealth();
    if (path == "/metrics" && route("GET /metrics")) return HandleMetrics();
    if (path == "/v1/stats" && route("GET /v1/stats")) return HandleStats();
    if (path == "/v1/schema" && route("GET /v1/schema")) {
      return OkJson(wire::ToJson(schema_));
    }
    if (path == "/v1/sessions" && route("GET /v1/sessions")) {
      return HandleSessionsList();
    }
  }
  if (request.method == "POST") {
    if (path == "/v1/audit" && route("POST /v1/audit")) {
      return HandleAudit(request.body, AcceptsBinary(request));
    }
    if (path == "/v1/query" && route("POST /v1/query")) {
      return HandleQuery(request.body, AcceptsBinary(request));
    }
    if (path == "/v1/sessions" && route("POST /v1/sessions")) {
      return HandleSessionCreate(request.body);
    }
  }

  // /v1/sessions/{id} and /v1/sessions/{id}/{verb}: route by ring owner.
  const std::string prefix = "/v1/sessions/";
  if (path.compare(0, prefix.size(), prefix) == 0) {
    const std::string rest = path.substr(prefix.size());
    const std::size_t slash = rest.find('/');
    const std::string id = rest.substr(0, slash);
    if (!id.empty()) {
      if (slash == std::string::npos) {
        if (request.method == "DELETE" && route("DELETE /v1/sessions/{id}")) {
          return ForwardToShard(OwnerShard(id), request,
                                /*idempotent=*/false);
        }
      } else {
        const std::string verb = rest.substr(slash + 1);
        if (request.method == "POST" &&
            (verb == "append" || verb == "retract" || verb == "audit" ||
             verb == "query")) {
          *route_key = "POST /v1/sessions/{id}/" + verb;
          // Mutations must never be silently re-sent once they may have
          // reached the shard; reads retry freely.
          const bool idempotent = verb == "audit" || verb == "query";
          return ForwardToShard(OwnerShard(id), request, idempotent);
        }
      }
    }
  }

  static const char* const kPaths[] = {"/healthz", "/metrics", "/v1/stats",
                                       "/v1/schema", "/v1/audit", "/v1/query",
                                       "/v1/sessions"};
  for (const char* known : kPaths) {
    if (path == known) {
      Response r = ErrorResponse(Status::InvalidArgument(
          "method " + request.method + " is not supported on " + path));
      r.status = 405;
      return r;
    }
  }
  if (path == "/v1/enhance") {
    return ErrorResponse(Status::InvalidArgument(
        "/v1/enhance is not distributed; send it to a shard directly"));
  }
  return ErrorResponse(Status::NotFound("no route for " + request.method +
                                        " " + path));
}

Response ClusterCoordinator::ShardUnavailable(const std::string& shard,
                                              const Status& status) const {
  JsonValue::Object error;
  error["code"] = "shard_unavailable";
  error["message"] = status.message();
  error["shard"] = shard;
  JsonValue::Object body;
  body["error"] = std::move(error);
  return Response::Json(503, json::Serialize(JsonValue(std::move(body))));
}

ClusterCoordinator::ShardEntry& ClusterCoordinator::OwnerShard(
    const std::string& session_id) {
  return shards_[shard_index_.at(ring_.OwnerOf(session_id))];
}

Response ClusterCoordinator::ForwardToShard(ShardEntry& shard,
                                            const Request& request,
                                            bool idempotent) {
  Request forward;
  forward.method = request.method;
  forward.target = request.target;
  forward.version = "HTTP/1.1";
  for (const char* header : {"Accept", "Content-Type", "X-Request-Id"}) {
    const std::string* value = request.FindHeader(header);
    if (value != nullptr) forward.headers.push_back({header, *value});
  }
  forward.body = request.body;
  StatusOr<http::Response> response =
      shard.pool->Roundtrip(forward, idempotent);
  if (!response.ok()) {
    return ShardUnavailable(shard.endpoint, response.status());
  }
  Response out;
  out.status = response->status;
  const std::string* content_type = response->FindHeader("Content-Type");
  if (content_type != nullptr) {
    out.headers.push_back({"Content-Type", *content_type});
  }
  out.body = std::move(response->body);
  return out;
}

Response ClusterCoordinator::HandleHealth() const {
  JsonValue::Object o;
  o["status"] = "serving";
  o["role"] = "coordinator";
  o["shards"] = static_cast<std::uint64_t>(shards_.size());
  o["ring_points"] = static_cast<std::uint64_t>(ring_.num_points());
  return OkJson(JsonValue(std::move(o)));
}

Response ClusterCoordinator::HandleMetrics() const {
  Response response = Response::Text(200, obs::RenderPrometheus(*metrics_));
  for (auto& [name, value] : response.headers) {
    if (name == "Content-Type") value = obs::kPrometheusContentType;
  }
  return response;
}

Response ClusterCoordinator::HandleStats() const {
  JsonValue::Object routes;
  for (const auto& [key, series] : routes_) {
    if (series.latency->count() == 0) continue;
    JsonValue::Object r;
    r["count"] = series.latency->count();
    r["errors"] = series.errors->value();
    r["p50_seconds"] = series.latency->QuantileSeconds(0.50);
    r["p99_seconds"] = series.latency->QuantileSeconds(0.99);
    r["total_seconds"] = series.latency->sum_seconds();
    routes[key] = std::move(r);
  }

  JsonValue::Array shard_list;
  for (const ShardEntry& shard : shards_) {
    const ClientPool::Stats stats = shard.pool->stats();
    JsonValue::Object s;
    s["endpoint"] = shard.endpoint;
    s["connects"] = stats.connects;
    s["reuses"] = stats.reuses;
    s["retries"] = stats.retries;
    s["failures"] = stats.failures;
    shard_list.push_back(std::move(s));
  }
  JsonValue::Object ring;
  ring["members"] = static_cast<std::uint64_t>(ring_.num_members());
  ring["vnodes_per_member"] =
      static_cast<std::uint64_t>(ring_.vnodes_per_member());
  ring["points"] = static_cast<std::uint64_t>(ring_.num_points());
  JsonValue::Object last_audit;
  last_audit["patterns_counted"] =
      last_audit_rpc_patterns_.load(std::memory_order_relaxed);
  last_audit["pruned_local"] =
      last_audit_pruned_local_.load(std::memory_order_relaxed);
  JsonValue::Object cluster;
  cluster["role"] = "coordinator";
  cluster["shards"] = std::move(shard_list);
  cluster["ring"] = std::move(ring);
  cluster["audits"] = audits_total_->value();
  cluster["last_audit"] = std::move(last_audit);

  const http::ServerStats hs = http_.stats();
  JsonValue::Object server;
  server["connections_accepted"] = hs.connections_accepted;
  server["requests_handled"] = hs.requests_handled;
  server["protocol_errors"] = hs.protocol_errors;
  server["connections_shed"] = hs.connections_shed;

  JsonValue::Object o;
  o["cluster"] = std::move(cluster);
  o["routes"] = std::move(routes);
  o["server"] = std::move(server);
  return OkJson(JsonValue(std::move(o)));
}

Response ClusterCoordinator::HandleAudit(const std::string& body,
                                         bool binary) {
  auto parsed = ParseBody(body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  auto request = wire::AuditRequestFromJson(*parsed);
  if (!request.ok()) return ErrorResponse(request.status());

  DistributedAuditOptions options;
  options.tau = request->tau;
  options.max_level = request->max_level;
  options.shard_algorithm = request->algorithm;
  options.enumeration_limit = request->enumeration_limit;
  options.max_batch_patterns = options_.max_batch_patterns;

  std::string failed_shard;
  auto result =
      RunDistributedAudit(schema_, backends_, options, &failed_shard);
  if (!result.ok()) {
    if (!failed_shard.empty()) {
      return ShardUnavailable(failed_shard, result.status());
    }
    return ErrorResponse(result.status());
  }
  audits_total_->Increment();
  last_audit_rpc_patterns_.store(result->stats.patterns_counted,
                                 std::memory_order_relaxed);
  last_audit_pruned_local_.store(result->stats.nodes_pruned_local,
                                 std::memory_order_relaxed);
  const AuditResult audit = result->ToAuditResult();
  if (binary) return OkBinary(wire::EncodeAuditResultBinary(audit));
  return OkJson(wire::ToJson(audit, schema_));
}

Response ClusterCoordinator::HandleQuery(const std::string& body,
                                         bool binary) {
  Stopwatch timer;
  auto parsed = ParseBody(body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  auto request = wire::QueryBatchRequestFromJson(*parsed, schema_);
  if (!request.ok()) return ErrorResponse(request.status());

  QueryBatchResult merged;
  merged.results.resize(request->queries.size());
  // Shards only ever answer exact counts (threshold probes are not
  // additive); the threshold semantics are applied after the sum.
  for (std::size_t begin = 0; begin < request->queries.size();
       begin += options_.max_batch_patterns) {
    const std::size_t end = std::min(
        begin + options_.max_batch_patterns, request->queries.size());
    std::vector<Pattern> batch;
    batch.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      batch.push_back(request->queries[i].pattern);
    }
    std::vector<StatusOr<ShardCountsResponse>> slots(
        shards_.size(), StatusOr<ShardCountsResponse>(
                            Status::Internal("shard response missing")));
    ForEachShard(shards_.size(), [&](std::size_t s) {
      slots[s] = backends_[s]->Counts(batch);
    });
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].ok()) {
        return ShardUnavailable(shards_[s].endpoint, slots[s].status());
      }
      merged.coverage_queries += slots[s]->coverage_queries;
    }
    for (std::size_t i = begin; i < end; ++i) {
      std::uint64_t total = 0;
      for (const auto& slot : slots) total += slot->counts[i - begin];
      const std::uint64_t tau = request->queries[i].tau;
      QueryOutcome& out = merged.results[i];
      // Same contract as QueryOutcome: exact count only for tau == 0.
      out.coverage = tau == 0 ? total : 0;
      out.covered = tau > 0 ? total >= tau : total >= 1;
    }
  }
  merged.seconds = timer.ElapsedSeconds();
  if (binary) return OkBinary(wire::EncodeQueryBatchResultBinary(merged));
  return OkJson(wire::ToJson(merged));
}

Response ClusterCoordinator::HandleSessionsList() {
  JsonValue::Array merged;
  for (ShardEntry& shard : shards_) {
    StatusOr<http::Response> response = shard.pool->Get("/v1/sessions");
    if (!response.ok()) {
      return ShardUnavailable(shard.endpoint, response.status());
    }
    if (response->status != 200) {
      return ShardUnavailable(
          shard.endpoint,
          Status::Internal("shard answered /v1/sessions with " +
                           std::to_string(response->status)));
    }
    auto parsed = json::Parse(response->body);
    if (!parsed.ok() || !parsed->is_object()) {
      return ShardUnavailable(shard.endpoint,
                              Status::Internal("bad session list body"));
    }
    const JsonValue* sessions = parsed->Find("sessions");
    if (sessions == nullptr || !sessions->is_array()) continue;
    for (const JsonValue& entry : sessions->AsArray()) {
      JsonValue annotated = entry;
      if (annotated.is_object()) {
        annotated.AsObject()["shard"] = shard.endpoint;
      }
      merged.push_back(std::move(annotated));
    }
  }
  JsonValue::Object o;
  o["sessions"] = std::move(merged);
  return OkJson(JsonValue(std::move(o)));
}

Response ClusterCoordinator::HandleSessionCreate(const std::string& body) {
  auto parsed = ParseBody(body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  if (parsed->Find("session_id") != nullptr) {
    return ErrorResponse(Status::InvalidArgument(
        "session_id is assigned by the coordinator"));
  }

  // Ids come from the coordinator's counter; a collision (shard kept a
  // session from a previous coordinator life) just burns the id and tries
  // the next one.
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::string id = "s" + std::to_string(next_session_id_.fetch_add(
                                     1, std::memory_order_relaxed));
    ShardEntry& owner = OwnerShard(id);
    JsonValue create = *parsed;
    create.AsObject()["session_id"] = id;
    StatusOr<http::Response> response = owner.pool->Roundtrip(
        [&] {
          Request r;
          r.method = "POST";
          r.target = "/internal/v1/sessions";
          r.version = "HTTP/1.1";
          r.headers.push_back({"Content-Type", "application/json"});
          r.body = json::Serialize(create);
          return r;
        }(),
        /*idempotent=*/false);
    if (!response.ok()) {
      return ShardUnavailable(owner.endpoint, response.status());
    }
    if (response->status == 400 &&
        response->body.find("already exists") != std::string::npos) {
      continue;
    }
    Response out;
    out.status = response->status;
    if (response->status == 201) {
      auto created = json::Parse(response->body);
      if (created.ok() && created->is_object()) {
        created->AsObject()["shard"] = owner.endpoint;
        out.headers.push_back({"Content-Type", "application/json"});
        out.body = json::Serialize(*created);
        return out;
      }
    }
    const std::string* content_type = response->FindHeader("Content-Type");
    if (content_type != nullptr) {
      out.headers.push_back({"Content-Type", *content_type});
    }
    out.body = std::move(response->body);
    return out;
  }
  return ErrorResponse(Status::Internal(
      "could not allocate a session id (16 consecutive collisions)"));
}

}  // namespace cluster
}  // namespace coverage
