#ifndef UTCQ_BENCH_E2E_SERVING_H_
#define UTCQ_BENCH_E2E_SERVING_H_

// The wire side shared by the serving workloads: a query engine behind a
// loopback TCP server on one metric registry, closed-loop clients, the
// wire-vs-in-process answer gate and the kMetrics reconciliation.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "shard/sharded.h"

namespace utcq::e2e {

/// Engine + server over one registry, so the kMetrics snapshot carries
/// net.* and serve.* together. Also counts every kQuery frame this process
/// sends, for the reconciliation.
class ServingStack {
 public:
  /// `corpus` and `registry` must outlive the stack.
  ServingStack(const shard::ShardedCorpus& corpus, size_t cache_budget_bytes,
               obs::MetricRegistry& registry);
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  bool Start() { return server_->Start(); }
  uint16_t port() const { return server_->port(); }
  serve::QueryEngine& engine() { return *engine_; }
  obs::MetricRegistry& registry() { return registry_; }
  void CountSent(uint64_t frames) { sent_ += frames; }
  uint64_t sent() const { return sent_; }

 private:
  obs::MetricRegistry& registry_;
  std::unique_ptr<serve::QueryEngine> engine_;
  std::unique_ptr<net::TcpServer> server_;  // last: stops before the engine
  uint64_t sent_ = 0;
};

/// Draws one request; each connection owns its generator state.
using RequestGen = std::function<serve::QueryRequest(common::Rng&)>;

/// What a closed-loop phase measured on the client side.
struct LoopResult {
  Samples all;  // every request, us
  /// Every request by the window it completed in; only whole windows of
  /// the phase, so requests still in flight at its end are left out.
  std::vector<Window> windows;
  uint64_t ok = 0;
  uint64_t ranges = 0;  // of `ok`, Range queries
  uint64_t failed = 0;
  /// The first requests of connection 0, kept for the traced replay.
  std::vector<serve::QueryRequest> head;
};

/// `connections` closed-loop clients, each sending its next request only
/// after the previous answer arrived, for `seconds`, cut into windows of
/// `window_s` (the whole phase when shorter). Connection c draws from
/// Rng(SubSeed(seed, c)).
LoopResult RunClosedLoop(ServingStack& stack, unsigned connections,
                         double seconds, double window_s, uint64_t seed,
                         const RequestGen& gen, size_t keep_head,
                         Tracer& tracer);

/// Sends `requests` over one fresh connection and checks every answer
/// against `expect` (in-process, uncached). Each request is one attempted
/// operation; each transport failure or differing answer fails one.
void WireGate(ServingStack& stack, const std::vector<serve::QueryRequest>& requests,
              const std::function<serve::QueryResult(const serve::QueryRequest&)>&
                  expect,
              const char* label, Result& result);

/// Fetches the kMetrics snapshot over the wire and checks it accounts for
/// the run: net.requests.query equals the kQuery frames sent, and the
/// cache's hits + misses equal the engine's own stats.
void Reconcile(ServingStack& stack, Result& result);

/// Requests drawn from `gen` with Rng(seed), for gates and replays.
std::vector<serve::QueryRequest> DrawRequests(const RequestGen& gen,
                                              size_t count, uint64_t seed);

bool SameAnswer(const serve::QueryResult& a, const serve::QueryResult& b);

}  // namespace utcq::e2e

#endif  // UTCQ_BENCH_E2E_SERVING_H_
