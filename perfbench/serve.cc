// The `serve` and `cluster` phases: closed-loop HTTP clients over loopback.
//
// serve: an in-process CoverageServer (default options) over AirBnB
// n=100k, d=13. nproc / 2 keep-alive connections from this process; all but
// one send seeded 16-probe /v1/query batches (half exact, half threshold),
// one cycles a level-capped /v1/audit in JSON, the same audit in wire v2,
// and a 64-row append to its own windowed session. server/, net/ and
// dispatch do most of the work.
//
// cluster: the same rows striped over 2 shard CoverageServers behind a
// ClusterCoordinator; one connection sends the query batches and one the
// audits. The difference to serve is the cluster tier's cost.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "cluster/coordinator.h"
#include "cluster/distributed_audit.h"
#include "cluster/shard_backend.h"
#include "datagen/airbnb.h"
#include "mups/mups.h"
#include "server/coverage_server.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/wire.h"
#include "server/wire_binary.h"
#include "service/coverage_service.h"

namespace perfbench {
namespace {

using namespace coverage;
using json::JsonValue;

constexpr std::size_t kRows = 100000;
constexpr int kDims = 13;
constexpr std::uint64_t kTau = 100;
constexpr int kAuditLevel = 3;
constexpr std::size_t kAppendRows = 64;
// The append session is loaded with the first kFillRows served rows at
// set-up, so the loaded run's appends land on a warm session whose cost
// drifts little with how many appends a run manages. The window holds more
// than a run appends: eviction is the stream workload's to measure.
constexpr std::size_t kFillRows = 16384;
constexpr std::size_t kSessionWindow = 1 << 18;
constexpr int kBodies = 64;
constexpr int kShards = 2;
constexpr int kReplays = 5;

const std::string kAuditBody = "{\"tau\": " + std::to_string(kTau) +
                               ", \"max_level\": " + std::to_string(kAuditLevel) +
                               "}";

/// The /v1/query body of each probe batch.
std::vector<std::string> QueryBodies(const std::vector<QueryBatchRequest>& probes) {
  std::vector<std::string> bodies;
  for (const QueryBatchRequest& batch : probes) {
    JsonValue::Array queries;
    for (const QueryRequest& q : batch.queries) {
      JsonValue::Object o;
      o["pattern"] = q.pattern.ToString();
      o["tau"] = q.tau;
      queries.push_back(std::move(o));
    }
    JsonValue::Object o;
    o["queries"] = std::move(queries);
    bodies.push_back(json::Serialize(JsonValue(std::move(o))));
  }
  return bodies;
}

/// /append bodies of `chunk` rows each (a shorter last chunk included).
std::vector<std::string> AppendBodies(const Dataset& rows, std::size_t chunk) {
  std::vector<std::string> bodies;
  for (std::size_t start = 0; start < rows.num_rows(); start += chunk) {
    JsonValue::Array list;
    for (std::size_t r = start; r < std::min(rows.num_rows(), start + chunk); ++r) {
      JsonValue::Array cells;
      for (Value v : rows.row(r)) cells.push_back(static_cast<int>(v));
      list.push_back(std::move(cells));
    }
    JsonValue::Object o;
    o["rows"] = std::move(list);
    bodies.push_back(json::Serialize(JsonValue(std::move(o))));
  }
  return bodies;
}

http::Request Post(const std::string& target, const std::string& body,
                   bool binary) {
  http::Request request;
  request.method = "POST";
  request.target = target;
  request.version = "HTTP/1.1";
  request.headers.push_back({"Content-Type", "application/json"});
  if (binary) request.headers.push_back({"Accept", wire::kBinaryContentType});
  request.body = body;
  return request;
}

/// What the closed loop observed, merged over connections.
struct Load {
  std::vector<double> query_us, audit_ms, append_ms;
  std::vector<double> query_at;  ///< completion time of each query sample
  double connection_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t completed = 0;
  std::map<int, std::string> query_answers;  // body index -> first response
  std::string json_audit, binary_audit;
};

struct ConnectionPlan {
  bool queries = true;   ///< query batches; otherwise the audit cycle
  bool appends = false;  ///< the audit cycle includes the session append
  int offset = 0;        ///< first body index
};

/// Runs the closed loop: one thread per connection for `budget` seconds of
/// the phase's own turns. Before the turn is handed on, every connection
/// parks between two requests; the time until the turn comes back is left
/// out. Failed requests are counted on `ops`.
Load RunLoop(int port, const std::vector<ConnectionPlan>& plans, double budget,
             const std::vector<std::string>& query_bodies,
             const std::vector<std::string>& append_bodies,
             const std::string& append_target, Ops& ops, Turn& turn) {
  std::vector<Load> parts(plans.size());
  std::mutex mu;
  std::condition_variable cv;
  bool open = true, stop = false;
  std::size_t running = plans.size(), parked = 0;
  // Between requests: waits while the connections are parked; false once
  // the loop is over.
  auto pass_gate = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!open && !stop) {
      ++parked;
      cv.notify_all();
      cv.wait(lock, [&] { return open || stop; });
      --parked;
    }
    return !stop;
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < plans.size(); ++c) {
    threads.emplace_back([&, c] {
      const ConnectionPlan& plan = plans[c];
      Load& part = parts[c];
      auto client = http::HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ops.Attempt();
        ops.Fail("connect: " + client.status().ToString());
      }
      const double began = NowSeconds();
      for (std::uint64_t i = 0; client.ok() && pass_gate(); ++i) {
        http::Request request;
        int kind = 0;  // 0 query, 1 json audit, 2 binary audit, 3 append
        int body_index = 0;
        if (plan.queries) {
          body_index = static_cast<int>((i + static_cast<std::uint64_t>(plan.offset)) %
                                        query_bodies.size());
          request = Post("/v1/query", query_bodies[static_cast<std::size_t>(body_index)],
                         false);
        } else {
          const int cycle = plan.appends ? 3 : 2;
          kind = 1 + static_cast<int>(i % static_cast<std::uint64_t>(cycle));
          if (kind == 3) {
            request = Post(append_target,
                           append_bodies[(i / 3) % append_bodies.size()], false);
          } else {
            request = Post("/v1/audit", kAuditBody, kind == 2);
          }
        }
        ops.Attempt();
        const double t0 = NowSeconds();
        auto response = client->Roundtrip(std::move(request));
        const double t1 = NowSeconds();
        if (!response.ok() || response->status != 200) {
          ops.Fail("request kind " + std::to_string(kind) + ": " +
                   (response.ok() ? std::to_string(response->status) + " " +
                                        response->body.substr(0, 200)
                                  : response.status().ToString()));
          continue;
        }
        ++part.completed;
        switch (kind) {
          case 0:
            part.query_us.push_back((t1 - t0) * 1e6);
            part.query_at.push_back(t1);
            part.query_answers.try_emplace(body_index, response->body);
            break;
          case 1:
          case 2:
            part.audit_ms.push_back((t1 - t0) * 1e3);
            if (kind == 1 && part.json_audit.empty()) part.json_audit = response->body;
            if (kind == 2 && part.binary_audit.empty()) part.binary_audit = response->body;
            break;
          default:
            part.append_ms.push_back((t1 - t0) * 1e3);
        }
      }
      part.connection_seconds = NowSeconds() - began;
      std::lock_guard<std::mutex> lock(mu);
      --running;
      cv.notify_all();
    });
  }
  // This thread keeps the clock and hands the turn on.
  const double start = NowSeconds();
  double waited = 0.0;
  while (NowSeconds() - start - waited < budget) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (!turn.Due()) continue;
    std::unique_lock<std::mutex> lock(mu);
    open = false;
    cv.wait(lock, [&] { return parked == running; });
    lock.unlock();
    waited += turn.Yield();
    lock.lock();
    open = true;
    cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
    cv.notify_all();
  }
  for (std::thread& t : threads) t.join();
  Load load;
  load.wall_seconds = NowSeconds() - start - waited;
  for (Load& part : parts) {
    load.query_us.insert(load.query_us.end(), part.query_us.begin(), part.query_us.end());
    load.query_at.insert(load.query_at.end(), part.query_at.begin(), part.query_at.end());
    load.audit_ms.insert(load.audit_ms.end(), part.audit_ms.begin(), part.audit_ms.end());
    load.append_ms.insert(load.append_ms.end(), part.append_ms.begin(), part.append_ms.end());
    load.connection_seconds += part.connection_seconds - waited;
    load.completed += part.completed;
    load.query_answers.merge(part.query_answers);
    if (load.json_audit.empty()) load.json_audit = part.json_audit;
    if (load.binary_audit.empty()) load.binary_audit = part.binary_audit;
  }
  return load;
}

std::set<std::string> PatternStrings(const std::vector<Pattern>& mups) {
  std::set<std::string> out;
  for (const Pattern& p : mups) out.insert(p.ToString());
  return out;
}

/// Checks the loop's sampled answers to `probes` against direct computation
/// on `reference` (a single node over all rows).
void CheckAnswers(const Load& load, const std::vector<QueryBatchRequest>& probes,
                  const CoverageService& reference, Ops& ops) {
  const Schema& schema = reference.schema();
  QueryContext ctx;
  for (const auto& [index, body] : load.query_answers) {
    const QueryBatchRequest& request = probes[static_cast<std::size_t>(index)];
    auto answer = json::Parse(body);
    const JsonValue* results = answer.ok() ? answer->Find("results") : nullptr;
    if (results == nullptr || results->AsArray().size() != request.queries.size()) {
      ops.Fail("query answer malformed");
      continue;
    }
    for (std::size_t i = 0; i < request.queries.size(); ++i) {
      const QueryRequest& q = request.queries[i];
      const std::uint64_t count = reference.oracle().Coverage(q.pattern, ctx);
      const JsonValue& got = results->AsArray()[i];
      const std::uint64_t coverage =
          static_cast<std::uint64_t>(got.Find("coverage")->AsInt());
      const bool covered = got.Find("covered")->AsBool();
      const bool ok = q.tau == 0 ? coverage == count && covered == (count >= 1)
                                 : covered == (count >= q.tau);
      if (!ok) {
        ops.Fail("query answer differs from the oracle: " + q.pattern.ToString());
        break;
      }
    }
  }
  AuditRequest request;
  request.tau = kTau;
  request.max_level = kAuditLevel;
  auto direct = reference.Audit(request);
  if (!direct.ok()) Die("reference audit: " + direct.status().ToString());
  const std::set<std::string> want = PatternStrings(direct->mups);
  auto parsed = json::Parse(load.json_audit);
  std::set<std::string> json_mups;
  const JsonValue* list = parsed.ok() ? parsed->Find("mups") : nullptr;
  if (list != nullptr) {
    for (const JsonValue& m : list->AsArray()) json_mups.insert(m.Find("pattern")->AsString());
  }
  if (json_mups != want) ops.Fail("JSON audit differs from the direct Audit");
  auto decoded = wire::DecodeAuditResultBinary(load.binary_audit, schema);
  if (!decoded.ok()) {
    ops.Fail("binary audit undecodable: " + decoded.status().ToString());
  } else {
    const std::vector<Pattern> mups =
        decoded->mups.empty() && decoded->packed ? decoded->packed->Materialize()
                                                 : decoded->mups;
    if (PatternStrings(mups) != want) ops.Fail("binary audit differs from the direct Audit");
  }
}

/// p50 of a route as the server's own /v1/stats reports it, in µs.
double SideP50Us(const JsonValue& stats, const std::string& route) {
  const JsonValue* routes = stats.Find("routes");
  const JsonValue* r = routes == nullptr ? nullptr : routes->Find(route);
  return r == nullptr ? 0.0 : r->Find("p50_seconds")->AsDouble() * 1e6;
}

JsonValue GetStats(int port) {
  auto client = http::HttpClient::Connect("127.0.0.1", port);
  if (!client.ok()) Die("stats connect: " + client.status().ToString());
  auto response = client->Get("/v1/stats");
  if (!response.ok()) Die("stats: " + response.status().ToString());
  auto parsed = json::Parse(response->body);
  if (!parsed.ok()) Die("stats: " + parsed.status().ToString());
  return *parsed;
}

template <typename F>
double TimeUs(F&& f) {
  const double start = NowSeconds();
  f();
  return (NowSeconds() - start) * 1e6;
}

/// Serial capped audit through a TimingOracle: the oracle's share of search.
double CappedAuditOracleShare(const CoverageService& service) {
  MupSearchOptions search;
  search.tau = kTau;
  search.max_level = kAuditLevel;
  const PlannerDecision decision = PlanMupSearch(service.data(), search);
  TimingOracle oracle(service.oracle());
  const double start = NowSeconds();
  Search(decision.algorithm, oracle, service.schema(), search);
  const double seconds = NowSeconds() - start;
  return seconds > 0 ? oracle.EstimatedSeconds() / seconds : 0.0;
}

}  // namespace

PhaseResult RunServe(const Config& config, double budget, bool traced, Ops& ops,
                     SpanLog& spans, Turn& turn) {
  const Dataset data = datagen::MakeAirbnb(kRows, kDims, config.seed);
  const Schema& schema = data.schema();
  const std::vector<QueryBatchRequest> probes =
      ProbeBatches(schema, config.seed + 3, kBodies, kTau);
  const std::vector<std::string> query_bodies = QueryBodies(probes);
  const Dataset append_pool =
      datagen::MakeAirbnb(kAppendRows * kBodies, kDims, config.seed + 4);
  const std::vector<std::string> append_bodies = AppendBodies(append_pool, kAppendRows);
  const std::vector<std::string> fill_bodies =
      AppendBodies(data.Head(kFillRows), 1024);
  ServiceOptions service_options;
  service_options.num_threads = config.threads;
  JsonValue::Object session_body;
  session_body["schema"] = wire::ToJson(schema);
  session_body["tau"] = kTau;
  session_body["window_max_rows"] = static_cast<std::uint64_t>(kSessionWindow);
  const std::string session_json = json::Serialize(JsonValue(session_body));

  // Set-up: index, start the server, open the append session.
  std::unique_ptr<CoverageServer> server;
  std::string append_target;
  const std::vector<double> setups = RepeatSetUp(config, turn, [&] {
    if (server) server->Stop();
    server.reset();
    const double start = NowSeconds();
    auto service = CoverageService::FromDataset(data, service_options);
    if (!service.ok()) Die("serve set-up: " + service.status().ToString());
    CoverageServerOptions options;
    options.http.port = 0;
    server = std::make_unique<CoverageServer>(std::move(*service), options);
    const Status started = server->Start();
    if (!started.ok()) Die("serve start: " + started.ToString());
    auto client = http::HttpClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) Die("serve connect: " + client.status().ToString());
    auto created = client->Post("/v1/sessions", session_json);
    if (!created.ok() || created->status != 201) Die("serve session create failed");
    append_target =
        "/v1/sessions/" + *json::Parse(created->body)->GetString("session_id") + "/append";
    // Through Handle on this thread: the fill's transient allocations then
    // land in one allocator arena instead of whichever handler thread
    // served each request, which made peak RSS bimodal between runs.
    for (const std::string& body : fill_bodies) {
      if (server->Handle(Post(append_target, body, false)).status != 200) {
        Die("serve session fill failed");
      }
    }
    return NowSeconds() - start;
  });

  std::vector<ConnectionPlan> plans;
  // Half the cores: client threads plus the server's handlers then fit the
  // machine, so tail latency measures the server rather than time slicing.
  const int connections = std::max(2, config.threads / 2);
  plans.push_back({false, true, 0});
  for (int c = 1; c < connections; ++c) plans.push_back({true, false, c * 17});
  const Load load = RunLoop(server->port(), plans, budget, query_bodies,
                            append_bodies, append_target, ops, turn);
  const JsonValue stats = GetStats(server->port());
  CheckAnswers(load, probes, server->service(), ops);

  PhaseResult out;
  out.primary = Median(load.query_us);
  MetricMap& m = out.metrics;
  if (!traced) {
    m["setup_s"] = {Median(setups), "s"};
    m["query_p50_us"] = {Median(load.query_us), "us"};
    m["query_p99_us"] = {WindowedQuantile(load.query_us, load.query_at, 0.99), "us"};
    m["audit_p50_ms"] = {Median(load.audit_ms), "ms"};
    m["append_p50_ms"] = {Median(load.append_ms), "ms"};
    m["requests_per_s"] = {static_cast<double>(load.completed) / load.wall_seconds,
                           "1/s"};
    server->Stop();
    return out;
  }

  // Replays, unloaded: each sampled request over HTTP, through Handle, and
  // as the direct service / session call.
  const CoverageService& service = server->service();
  auto client = http::HttpClient::Connect("127.0.0.1", server->port());
  if (!client.ok()) Die("replay connect: " + client.status().ToString());
  std::map<std::string, std::vector<double>> t1, t2, t3, inner;
  AuditResult direct_audit;
  for (int i = 0; i < 8 * kBodies; ++i) {
    const std::size_t index = static_cast<std::size_t>(i) % probes.size();
    const std::string& body = query_bodies[index];
    const std::uint64_t id = spans.NextRequest();
    double a = NowSeconds();
    (void)client->Roundtrip(Post("/v1/query", body, false));
    double b = NowSeconds();
    const int root = spans.Add("net.query", id, -1, a, b);
    t1["query"].push_back((b - a) * 1e6);
    a = NowSeconds();
    (void)server->Handle(Post("/v1/query", body, false));
    b = NowSeconds();
    const int handle = spans.Add("server.handle.query", id, root, a, b);
    t2["query"].push_back((b - a) * 1e6);
    a = NowSeconds();
    (void)service.QueryBatch(probes[index]);
    b = NowSeconds();
    spans.Add("service.query", id, handle, a, b);
    t3["query"].push_back((b - a) * 1e6);
  }
  for (int i = 0; i < 8 * kReplays; ++i) {
    const bool binary = i % 2 == 1;
    const std::uint64_t id = spans.NextRequest();
    double a = NowSeconds();
    (void)client->Roundtrip(Post("/v1/audit", kAuditBody, binary));
    double b = NowSeconds();
    const int root = spans.Add("net.audit", id, -1, a, b);
    t1["audit"].push_back((b - a) * 1e6);
    a = NowSeconds();
    (void)server->Handle(Post("/v1/audit", kAuditBody, binary));
    b = NowSeconds();
    const int handle = spans.Add("server.handle.audit", id, root, a, b);
    t2["audit"].push_back((b - a) * 1e6);
    AuditRequest request;
    request.tau = kTau;
    request.max_level = kAuditLevel;
    request.materialize_patterns = false;  // as the server's handler asks
    a = NowSeconds();
    auto result = service.Audit(request);
    b = NowSeconds();
    spans.Add("service.audit", id, handle, a, b);
    t3["audit"].push_back((b - a) * 1e6);
    inner["audit"].push_back(result.ok() ? result->stats.seconds * 1e6 : 0.0);
    if (result.ok()) direct_audit = std::move(*result);
  }
  // Appends change the session, so repeating one at each boundary would
  // time different states. Each is sent once over HTTP with ?timing=1
  // instead: the server's own handler time and the engine's epoch time come
  // back in the same response.
  auto created = client->Post("/v1/sessions", session_json);
  if (!created.ok() || created->status != 201) Die("replay session create failed");
  const std::string replay_base =
      "/v1/sessions/" + *json::Parse(created->body)->GetString("session_id") + "/append";
  for (const std::string& body : fill_bodies) {
    (void)server->Handle(Post(replay_base, body, false));
  }
  const std::string replay_target = replay_base + "?timing=1";
  for (std::size_t i = 0; i < append_bodies.size(); ++i) {
    const std::uint64_t id = spans.NextRequest();
    const double a = NowSeconds();
    auto response = client->Roundtrip(
        Post(replay_target, append_bodies[i % append_bodies.size()], false));
    const double b = NowSeconds();
    auto parsed = response.ok() ? json::Parse(response->body)
                                : StatusOr<JsonValue>(response.status());
    const JsonValue* timing = parsed.ok() ? parsed->Find("timing") : nullptr;
    if (timing == nullptr) Die("replay append failed");
    const double handler = timing->Find("total_seconds")->AsDouble();
    const double engine = parsed->Find("seconds")->AsDouble();
    const int root = spans.Add("net.append", id, -1, a, b);
    const int handle = spans.Add("server.handle.append", id, root, a, a + handler);
    spans.Add("engine.append", id, handle, a, a + engine);
    t1["append"].push_back((b - a) * 1e6);
    t2["append"].push_back(handler * 1e6);
    t3["append"].push_back(engine * 1e6);
  }
  const double oracle_us = OracleUsPerBatch(service.oracle(), probes);
  const double audit_share = CappedAuditOracleShare(service);

  std::map<std::string, double> route_us, transport_us, direct_us;
  for (const char* kind : {"query", "audit", "append"}) {
    std::vector<double> route, transport;
    for (std::size_t i = 0; i < t1[kind].size(); ++i) {
      route.push_back(t2[kind][i] - t3[kind][i]);
      transport.push_back(t1[kind][i] - t2[kind][i]);
    }
    route_us[kind] = Median(route);
    transport_us[kind] = Median(transport);
    direct_us[kind] = Median(t3[kind]);
    m[std::string("server.route_us.") + kind] = {route_us[kind], "us"};
    m[std::string("net.transport_us.") + kind] = {transport_us[kind], "us"};
  }
  std::vector<double> json_ms, bin_ms;
  for (int i = 0; i < kReplays; ++i) {
    json_ms.push_back(TimeUs([&] {
      (void)json::Serialize(wire::ToJson(direct_audit, schema));
    }) / 1e3);
    bin_ms.push_back(TimeUs([&] { (void)wire::EncodeAuditResultBinary(direct_audit); }) / 1e3);
  }
  m["server.encode_json_ms"] = {Median(json_ms), "ms"};
  m["server.encode_bin_ms"] = {Median(bin_ms), "ms"};
  m["server.bytes_json"] = {static_cast<double>(load.json_audit.size()), "B"};
  m["server.bytes_bin"] = {static_cast<double>(load.binary_audit.size()), "B"};
  const double side_query = SideP50Us(stats, "POST /v1/query");
  m["server.side_p50_us.query"] = {side_query, "us"};
  m["server.side_p50_us.audit"] = {SideP50Us(stats, "POST /v1/audit"), "us"};
  m["server.side_p50_us.append"] = {
      SideP50Us(stats, "POST /v1/sessions/{id}/append"), "us"};
  m["net.wait_us"] = {Median(load.query_us) - side_query, "us"};
  std::vector<double> plan_ms;
  for (int i = 0; i < kReplays; ++i) {
    MupSearchOptions search;
    search.tau = kTau;
    search.max_level = kAuditLevel;
    search.num_threads = config.threads;
    plan_ms.push_back(TimeUs([&] { (void)PlanMupSearch(service.data(), search); }) / 1e3);
  }
  m["service.plan_ms"] = {Median(plan_ms), "ms"};
  m["service.audit_ms"] = {direct_us["audit"] / 1e3, "ms"};
  m["service.query_us"] = {direct_us["query"], "us"};

  // Self times of the loaded loop, per connection-second: every request's
  // client latency minus the unloaded server, service and kernel parts is
  // net (transport plus queueing under load).
  const double handle_query = Median(t2["query"]), handle_audit = Median(t2["audit"]),
               handle_append = Median(t2["append"]);
  const double search_audit = Median(inner["audit"]);
  SelfTimes self = EmptySelfTimes();
  for (double us : load.query_us) {
    AddNested(&self, {"net", "server", "service", "coverage"}, us / 1e3,
              {handle_query / 1e3, direct_us["query"] / 1e3, oracle_us / 1e3});
  }
  for (double ms : load.audit_ms) {
    AddNested(&self, {"net", "server", "service", "mups", "coverage"}, ms,
              {handle_audit / 1e3, direct_us["audit"] / 1e3, search_audit / 1e3,
               search_audit * audit_share / 1e3});
  }
  for (double ms : load.append_ms) {
    AddNested(&self, {"net", "server", "engine"}, ms,
              {handle_append / 1e3, direct_us["append"] / 1e3});
  }
  ReportSelfTimes(self, load.connection_seconds * 1e3, &m);
  server->Stop();
  return out;
}

PhaseResult RunCluster(const Config& config, double budget, bool traced,
                       Ops& ops, SpanLog& spans, Turn& turn) {
  const Dataset data = datagen::MakeAirbnb(kRows, kDims, config.seed);
  const Schema& schema = data.schema();
  const std::vector<QueryBatchRequest> probes =
      ProbeBatches(schema, config.seed + 3, kBodies, kTau);
  const std::vector<std::string> query_bodies = QueryBodies(probes);
  std::vector<Dataset> slices(kShards, Dataset(schema));
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    slices[r % kShards].AppendRow(data.row(r));
  }
  ServiceOptions service_options;
  service_options.num_threads = config.threads;

  // Set-up: index both slices, start the shards, boot the coordinator
  // (which fetches and compares every shard's schema).
  std::vector<std::unique_ptr<CoverageServer>> shards;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;
  auto stop_all = [&] {
    if (coordinator) coordinator->Stop();
    coordinator.reset();
    for (auto& shard : shards) shard->Stop();
    shards.clear();
  };
  const std::vector<double> setups = RepeatSetUp(config, turn, [&] {
    stop_all();
    const double start = NowSeconds();
    std::vector<std::string> endpoints;
    for (const Dataset& slice : slices) {
      auto service = CoverageService::FromDataset(slice, service_options);
      if (!service.ok()) Die("shard set-up: " + service.status().ToString());
      CoverageServerOptions options;
      options.http.port = 0;
      options.enable_internal_routes = true;
      shards.push_back(std::make_unique<CoverageServer>(std::move(*service), options));
      const Status started = shards.back()->Start();
      if (!started.ok()) Die("shard start: " + started.ToString());
      endpoints.push_back("127.0.0.1:" + std::to_string(shards.back()->port()));
    }
    cluster::CoordinatorOptions options;
    options.http.port = 0;
    options.shards = endpoints;
    options.boot_backoff_ms = 10;
    coordinator = std::make_unique<cluster::ClusterCoordinator>(options);
    const Status started = coordinator->Start();
    if (!started.ok()) Die("coordinator start: " + started.ToString());
    return NowSeconds() - start;
  });

  const std::vector<ConnectionPlan> plans = {{true, false, 0}, {false, false, 0}};
  const Load load =
      RunLoop(coordinator->port(), plans, budget, query_bodies, {}, "", ops, turn);
  auto reference = CoverageService::FromDataset(data, service_options);
  if (!reference.ok()) Die("reference: " + reference.status().ToString());
  CheckAnswers(load, probes, *reference, ops);

  PhaseResult out;
  out.primary = Median(load.query_us);
  MetricMap& m = out.metrics;
  if (!traced) {
    m["setup_s"] = {Median(setups), "s"};
    m["query_p50_us"] = {Median(load.query_us), "us"};
    m["query_p99_us"] = {WindowedQuantile(load.query_us, load.query_at, 0.99), "us"};
    m["audit_p50_ms"] = {Median(load.audit_ms), "ms"};
    m["requests_per_s"] = {static_cast<double>(load.completed) / load.wall_seconds,
                           "1/s"};
    stop_all();
    return out;
  }

  // The same scatter-gather audit in-process over LocalShardBackends, then
  // over HTTP unloaded; the difference is the RPC cost.
  std::vector<std::unique_ptr<cluster::LocalShardBackend>> locals;
  std::vector<cluster::ShardBackend*> backends;
  for (int s = 0; s < kShards; ++s) {
    auto service = CoverageService::FromDataset(slices[static_cast<std::size_t>(s)],
                                                service_options);
    if (!service.ok()) Die("local shard: " + service.status().ToString());
    locals.push_back(std::make_unique<cluster::LocalShardBackend>(
        "local-" + std::to_string(s), std::move(*service)));
    backends.push_back(locals.back().get());
  }
  cluster::DistributedAuditOptions audit_options;
  audit_options.tau = kTau;
  audit_options.max_level = kAuditLevel;
  std::vector<double> local_ms, http_ms, candidates_ms;
  cluster::DistributedAuditStats audit_stats;
  auto client = http::HttpClient::Connect("127.0.0.1", coordinator->port());
  if (!client.ok()) Die("replay connect: " + client.status().ToString());
  for (int i = 0; i < kReplays; ++i) {
    const std::uint64_t id = spans.NextRequest();
    double a = NowSeconds();
    (void)client->Roundtrip(Post("/v1/audit", kAuditBody, false));
    double b = NowSeconds();
    const int root = spans.Add("net.cluster_audit", id, -1, a, b);
    http_ms.push_back((b - a) * 1e3);
    a = NowSeconds();
    auto result = cluster::RunDistributedAudit(schema, backends, audit_options);
    b = NowSeconds();
    spans.Add("cluster.local_audit", id, root, a, b);
    local_ms.push_back((b - a) * 1e3);
    if (!result.ok()) {
      ops.Fail("local distributed audit: " + result.status().ToString());
      continue;
    }
    audit_stats = result->stats;
    double candidates = 0.0;
    for (const auto& shard : result->shards) candidates += shard.candidate_seconds;
    candidates_ms.push_back(candidates * 1e3);
  }
  std::vector<double> q1, q2, q3;
  for (int i = 0; i < 4 * kBodies; ++i) {
    const std::size_t index = static_cast<std::size_t>(i) % probes.size();
    const std::string& body = query_bodies[index];
    std::vector<Pattern> patterns;
    for (const QueryRequest& q : probes[index].queries) patterns.push_back(q.pattern);
    q1.push_back(TimeUs([&] { (void)client->Roundtrip(Post("/v1/query", body, false)); }));
    q2.push_back(TimeUs([&] { (void)coordinator->Handle(Post("/v1/query", body, false)); }));
    double slowest = 0.0;
    for (auto* backend : backends) {
      slowest = std::max(slowest, TimeUs([&] { (void)backend->Counts(patterns); }));
    }
    q3.push_back(slowest);
  }
  const double local = Median(local_ms);
  m["cluster.local_audit_ms"] = {local, "ms"};
  m["cluster.rpc_ms"] = {Median(http_ms) - local, "ms"};
  m["cluster.candidates_ms"] = {Median(candidates_ms), "ms"};
  m["cluster.count_rounds"] = {static_cast<double>(audit_stats.count_rounds), "count"};
  m["cluster.patterns_counted"] = {static_cast<double>(audit_stats.patterns_counted),
                                   "count"};
  m["cluster.prune_ratio"] = {
      audit_stats.nodes_evaluated == 0
          ? 0.0
          : static_cast<double>(audit_stats.nodes_pruned_local) /
                static_cast<double>(audit_stats.nodes_evaluated),
      "ratio"};
  std::vector<double> rpc_p50;
  for (const auto& shard : shards) {
    obs::Histogram* h = coordinator->metrics_registry().GetHistogram(
        "coverage_cluster_rpc_seconds",
        "Coordinator-observed shard roundtrip latency (successful calls)",
        {{"shard", "127.0.0.1:" + std::to_string(shard->port())}});
    rpc_p50.push_back(h->QuantileSeconds(0.5) * 1e6);
  }
  m["cluster.rpc_us"] = {Median(rpc_p50), "us"};
  double retries = 0.0;
  const JsonValue stats = GetStats(coordinator->port());
  if (const JsonValue* c = stats.Find("cluster")) {
    for (const JsonValue& s : c->Find("shards")->AsArray()) {
      retries += s.Find("retries")->AsDouble();
    }
  }
  m["cluster.retries"] = {retries, "count"};

  // Self times: a query splits into net (client minus the coordinator's
  // Handle), cluster (Handle minus the slowest shard's direct count), and
  // service + coverage on the shard (the kernel share from a serial
  // replay); an audit into net, cluster (RPCs + coordinator BFS) and mups
  // (the shards' candidate searches).
  const double oracle_us = OracleUsPerBatch(locals[0]->service().oracle(), probes);
  const double handle_q = Median(q2), shard_q = Median(q3);
  const double audit_handle = Median(http_ms), candidates = Median(candidates_ms);
  SelfTimes self = EmptySelfTimes();
  for (double us : load.query_us) {
    AddNested(&self, {"net", "cluster", "service", "coverage"}, us / 1e3,
              {handle_q / 1e3, shard_q / 1e3, oracle_us / 1e3});
  }
  for (double ms : load.audit_ms) {
    AddNested(&self, {"net", "cluster", "mups"}, ms, {audit_handle, candidates});
  }
  ReportSelfTimes(self, load.connection_seconds * 1e3, &m);
  stop_all();
  return out;
}

}  // namespace perfbench
