#ifndef UTCQ_NET_TCP_SERVER_H_
#define UTCQ_NET_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
// Blocking socket I/O must not occupy (or deadlock on) the shared compute
// pool — ThreadPool::Shared() can legitimately have zero workers — so the
// serving tier owns dedicated threads, one per connection plus the
// acceptor. Waived per DESIGN.md §14 "Threading".
#include <thread>  // repo-lint: allow(thread-outside-pool)
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "ingest/ingestor.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"

/// The network serving tier (DESIGN.md §14): a TCP front over the batched
/// serve::QueryEngine and the ingest::StreamIngestor.
///
/// Naming note: `src/net/` is the transport layer; `src/network/` models
/// the road network queries run against. The two never include each other.
///
/// Layering, smallest piece first:
///   - net::Session    — the per-connection protocol state machine. Fully
///                       socket-free: frames in, response bytes out. All
///                       version negotiation, dispatch, pipelining into
///                       ExecuteBatch and error-code policy lives here, so
///                       all of it is unit-testable without a network.
///   - net::Receiver   — the per-connection pump: reads the socket into a
///                       FrameAssembler, hands frame runs to the Session,
///                       writes the response bytes back with a bounded
///                       write buffer for backpressure.
///   - net::TcpServer  — owns listen/accept, the connection table and the
///                       drain-then-close shutdown handshake.

namespace utcq::net {

struct ServerOptions {
  /// 0 binds an ephemeral port; read the real one from port() after
  /// Start(). Listens on 127.0.0.1 only — this tier has no auth story yet
  /// (ROADMAP "Parked", item 7).
  uint16_t port = 0;
  int listen_backlog = 64;
  /// Connections beyond this are answered with kOverloaded and closed.
  size_t max_connections = 64;
  /// Backpressure bound: once this many encoded response bytes are
  /// pending on a connection, the Receiver stops reading and blocks in
  /// send() until the client drains — TCP flow control then pushes back
  /// on the client's writes.
  size_t max_write_buffer_bytes = 1u << 20;
  /// Upper bound on kQuery frames folded into one ExecuteBatch call when
  /// a pipelined burst is waiting in the assembler.
  size_t max_pipeline_batch = 1024;
  /// SO_SNDTIMEO applied to every accepted socket: a client that stops
  /// reading for this long is treated as dead, which keeps a graceful
  /// shutdown from hanging in a blocked send. 0 disables the timeout.
  int send_timeout_ms = 5000;
  /// Where the server's `net.*` instruments live and what kMetrics
  /// exports (DESIGN.md §15). nullptr = the server owns a private
  /// registry; pass the registry shared with the engine/ingestor for a
  /// unified export of every layer.
  obs::MetricRegistry* registry = nullptr;
  /// Time source for the frame-handling histogram; nullptr = the real
  /// steady clock.
  const obs::Clock* clock = nullptr;
};

/// The protocol state machine for one connection. Socket-free by
/// construction: HandleFrames() consumes decoded frames and appends
/// encoded response frames to a byte buffer; the caller moves the bytes.
///
/// Dispatch policy (normative spec: DESIGN.md §14):
///   - First frame must be kHello (else kHelloRequired, close). Hello
///     picks the highest mutually supported version or fails kBadVersion.
///   - A post-Hello frame whose version differs from the negotiated one is
///     answered kBadVersion and the connection closes.
///   - kBadOpcode / kNotSupported are answered and the connection stays
///     open; the stream is still well-framed.
///   - A run of consecutive kQuery frames is folded into one
///     QueryEngine::ExecuteBatch call; responses keep request order.
///   - kGoodbye is answered kGoodbyeOk and the connection closes cleanly.
class Session {
 public:
  /// Either engine may be null: a query-only or ingest-only endpoint
  /// answers the other family's requests with kNotSupported. `registry`
  /// is both what kMetrics snapshots and where the session's own `net.*`
  /// instruments live; with nullptr the session records nothing and
  /// answers kMetrics with kNotSupported (a TcpServer always passes one).
  Session(serve::QueryEngine* engine, ingest::StreamIngestor* ingestor,
          size_t max_pipeline_batch, obs::MetricRegistry* registry = nullptr,
          const obs::Clock* clock = nullptr);

  /// Processes `frames` in order, appending response bytes to `out`.
  /// Returns false when the connection must close after `out` is flushed
  /// (goodbye, protocol violation, or hello failure).
  bool HandleFrames(const std::vector<Frame>& frames,
                    std::vector<uint8_t>* out);

  /// Appends the error frame a broken byte stream is answered with before
  /// the transport closes (FrameAssembler::kBad).
  void HandleFramingError(ErrorCode code, std::vector<uint8_t>* out);

  bool helloed() const { return helloed_; }
  uint64_t frames_handled() const { return frames_handled_; }
  uint64_t errors_sent() const { return errors_sent_; }

 private:
  bool HandleHello(const Frame& frame, std::vector<uint8_t>* out);
  /// Answers frames[begin, end): a run of kQuery folded into one batch.
  void HandleQueryRun(const std::vector<Frame>& frames, size_t begin,
                      size_t end, std::vector<uint8_t>* out);
  bool HandleOne(const Frame& frame, std::vector<uint8_t>* out);
  void AppendError(uint64_t request_id, ErrorCode code, std::string message,
                   std::vector<uint8_t>* out);
  /// Bumps the `net.requests.<opname>` counter for a consumed request
  /// frame (no-op without a registry). Response opcodes arriving as
  /// requests land on `net.requests.unknown`.
  void CountRequest(Op op);

  serve::QueryEngine* engine_;
  ingest::StreamIngestor* ingestor_;
  const size_t max_pipeline_batch_;
  /// What kMetrics exports; nullptr disables the opcode and every
  /// instrument below. Raw pointers: the registry outlives the session
  /// (TcpServer owns it or the caller does), and Session stays copyable
  /// into its Receiver.
  obs::MetricRegistry* registry_ = nullptr;
  const obs::Clock* clock_ = nullptr;
  /// `net.requests.<opname>`, indexed by request opcode - 1; see
  /// CountRequest.
  static constexpr size_t kNumRequestOps =
      static_cast<size_t>(Op::kMetrics);
  obs::Counter* request_counters_[kNumRequestOps] = {};
  obs::Counter* unknown_requests_ = nullptr;
  obs::Counter* errors_counter_ = nullptr;
  obs::Histogram* handle_ns_ = nullptr;
  bool helloed_ = false;
  uint64_t frames_handled_ = 0;
  uint64_t errors_sent_ = 0;
};

/// Pumps one connected socket: recv → FrameAssembler → Session →
/// bounded write buffer → send. Owns no fd — the server does — and runs
/// until EOF, a protocol close, or the server's shutdown(SHUT_RD) wakes
/// the blocking read. Already-received frames are drained and their
/// responses flushed before returning (drain-then-close).
class Receiver {
 public:
  /// `registry` (nullable) receives the connection's `net.bytes.{in,out}`
  /// traffic counters.
  Receiver(int fd, Session session, size_t max_write_buffer_bytes,
           obs::MetricRegistry* registry = nullptr);

  /// Blocks until the connection is done. Returns the number of frames
  /// the session handled.
  uint64_t Run();

 private:
  /// Drains every complete frame out of the assembler through the
  /// session. Returns false when the connection must close.
  bool DrainAssembler();
  bool FlushPending();

  const int fd_;
  Session session_;
  const size_t max_write_buffer_bytes_;
  FrameAssembler assembler_;
  std::vector<uint8_t> pending_;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
};

/// Counters exposed for tests and the load generator.
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;
  uint64_t frames_handled = 0;
};

class TcpServer {
 public:
  /// Either backend may be null (see Session). Both must outlive the
  /// server.
  TcpServer(serve::QueryEngine* engine, ingest::StreamIngestor* ingestor,
            ServerOptions opts = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens and starts the accept thread. False (with the listen
  /// socket closed) if the port cannot be bound.
  bool Start();

  /// Graceful drain-then-close: stop accepting, wake every connection out
  /// of its blocking read via shutdown(SHUT_RD), let each Receiver drain
  /// already-received frames and flush its responses, then join every
  /// thread and close every fd. Idempotent; also run by the destructor.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (the real one when opts.port was 0). 0 before Start().
  uint16_t port() const { return port_; }
  size_t active_connections() const;
  ServerCounters counters() const;
  /// The registry this server records into and serves over kMetrics —
  /// opts.registry, or the server's own when none was passed.
  obs::MetricRegistry& registry() const { return *registry_; }

 private:
  struct Connection {
    int fd = -1;
    // Dedicated per-connection thread; see the <thread> include note.
    std::thread thread;  // repo-lint: allow(thread-outside-pool)
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ReapFinished() UTCQ_REQUIRES(mu_);

  serve::QueryEngine* engine_;
  ingest::StreamIngestor* ingestor_;
  const ServerOptions opts_;
  /// Effective registry (opts_.registry or owned_registry_) and clock,
  /// handed to every Session/Receiver. Declared before the instrument
  /// pointers they back.
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* registry_ = nullptr;
  const obs::Clock* clock_ = nullptr;
  obs::Counter* conns_accepted_ = nullptr;
  obs::Counter* conns_rejected_ = nullptr;
  obs::Gauge* conns_open_ = nullptr;

  int listen_fd_ = -1;
  /// Self-pipe: Shutdown() writes one byte to wake the accept loop's
  /// poll() without racing the listen fd's lifetime.
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // Dedicated acceptor thread; see the <thread> include note.
  std::thread accept_thread_;  // repo-lint: allow(thread-outside-pool)

  mutable common::Mutex mu_;
  std::vector<std::unique_ptr<Connection>> connections_ UTCQ_GUARDED_BY(mu_);
  uint64_t accepted_ UTCQ_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ UTCQ_GUARDED_BY(mu_) = 0;
  uint64_t frames_handled_ UTCQ_GUARDED_BY(mu_) = 0;
};

}  // namespace utcq::net

#endif  // UTCQ_NET_TCP_SERVER_H_
