#include "serving.h"

#include <algorithm>
#include <string>
#include <thread>

#include "net/client.h"

namespace utcq::e2e {

ServingStack::ServingStack(const shard::ShardedCorpus& corpus,
                           size_t cache_budget_bytes,
                           obs::MetricRegistry& registry)
    : registry_(registry) {
  serve::EngineOptions engine_opts;
  engine_opts.cache_budget_bytes = cache_budget_bytes;
  engine_opts.registry = &registry_;
  engine_ = std::make_unique<serve::QueryEngine>(corpus, engine_opts);
  net::ServerOptions server_opts;
  server_opts.registry = &registry_;
  server_ = std::make_unique<net::TcpServer>(engine_.get(), nullptr,
                                             server_opts);
}

bool SameAnswer(const serve::QueryResult& a, const serve::QueryResult& b) {
  return a.where == b.where && a.when == b.when && a.range == b.range;
}

std::vector<serve::QueryRequest> DrawRequests(const RequestGen& gen,
                                              size_t count, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<serve::QueryRequest> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(gen(rng));
  return out;
}

LoopResult RunClosedLoop(ServingStack& stack, unsigned connections,
                         double seconds, double window_s, uint64_t seed,
                         const RequestGen& gen, size_t keep_head,
                         Tracer& tracer) {
  window_s = std::min(window_s, seconds);
  const auto whole = static_cast<size_t>(seconds / window_s + 1e-9);
  const auto window_ns = static_cast<uint64_t>(window_s * 1e9);
  std::vector<LoopResult> per(connections);
  for (LoopResult& r : per) r.windows.resize(whole + 1);
  std::vector<uint64_t> sent(connections, 0);
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        LoopResult& r = per[c];
        net::Client client;
        if (!client.Connect("127.0.0.1", stack.port())) {
          ++r.failed;
          return;
        }
        common::Rng rng(SubSeed(seed, c));
        for (uint64_t i = 0; NowNs() < deadline; ++i) {
          const serve::QueryRequest req = gen(rng);
          if (c == 0 && r.head.size() < keep_head) r.head.push_back(req);
          const uint64_t id = (static_cast<uint64_t>(c) << 40) | i;
          serve::QueryResult out;
          const uint64_t t0 = NowNs();
          bool ok = false;
          {
            const ScopedSpan span(tracer, "net.Client::Query", id);
            ok = client.Query(req, &out).ok;
          }
          const uint64_t t1 = NowNs();
          ++sent[c];
          if (!ok) {
            ++r.failed;
            break;  // the connection is gone
          }
          const double us = static_cast<double>(t1 - t0) / 1e3;
          r.all.Add(us);
          r.windows[std::min<size_t>((t1 - start) / window_ns, whole)]
              .latency.Add(us);
          if (req.kind == serve::QueryKind::kRange) ++r.ranges;
          ++r.ok;
        }
        client.Close();
      });
    }
    for (std::thread& t : clients) t.join();
  }
  LoopResult total;
  total.windows.resize(whole);
  for (Window& w : total.windows) w.seconds = window_s;
  for (unsigned c = 0; c < connections; ++c) {
    for (size_t k = 0; k < whole; ++k) {
      total.windows[k].latency.Merge(per[c].windows[k].latency);
    }
    total.all.Merge(per[c].all);
    total.ok += per[c].ok;
    total.ranges += per[c].ranges;
    total.failed += per[c].failed;
    stack.CountSent(sent[c]);
  }
  total.head = std::move(per[0].head);
  return total;
}

void WireGate(ServingStack& stack,
              const std::vector<serve::QueryRequest>& requests,
              const std::function<serve::QueryResult(const serve::QueryRequest&)>&
                  expect,
              const char* label, Result& result) {
  net::Client client;
  result.Attempt(requests.size());
  if (!client.Connect("127.0.0.1", stack.port())) {
    result.Fail(std::string(label) + ": connect failed", requests.size());
    return;
  }
  size_t mismatches = 0;
  for (const serve::QueryRequest& req : requests) {
    serve::QueryResult got;
    stack.CountSent(1);
    if (!client.Query(req, &got).ok || !SameAnswer(got, expect(req))) {
      ++mismatches;
    }
  }
  client.Close();
  if (mismatches > 0) {
    result.Fail(std::string(label) + ": " + std::to_string(mismatches) + " of " +
                    std::to_string(requests.size()) +
                    " wire answers differ from in-process",
                mismatches);
  }
}

void Reconcile(ServingStack& stack, Result& result) {
  result.Attempt();
  net::Client client;
  obs::RegistrySnapshot snap;
  if (!client.Connect("127.0.0.1", stack.port()) ||
      !client.Metrics(&snap).ok) {
    result.Fail("reconcile: kMetrics fetch failed");
    return;
  }
  client.Close();
  uint64_t wire_queries = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "net.requests.query") wire_queries = value;
    if (name == "serve.cache.hits") hits = value;
    if (name == "serve.cache.misses") misses = value;
  }
  const serve::EngineStats es = stack.engine().stats();
  if (wire_queries != stack.sent()) {
    result.Fail("reconcile: net.requests.query " +
                std::to_string(wire_queries) + " != " +
                std::to_string(stack.sent()) + " query frames sent");
  }
  if (hits + misses != es.cache_hits + es.cache_misses) {
    result.Fail("reconcile: kMetrics cache hits+misses " +
                std::to_string(hits + misses) + " != engine stats " +
                std::to_string(es.cache_hits + es.cache_misses));
  }
}

}  // namespace utcq::e2e
