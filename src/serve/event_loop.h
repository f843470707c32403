#ifndef STPT_SERVE_EVENT_LOOP_H_
#define STPT_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/red.h"
#include "obs/trace_context.h"
#include "serve/registry.h"
#include "serve/wire.h"

namespace stpt::serve {

/// Listener + flow-control configuration. Validated by
/// EventLoopServer::Create.
struct EventLoopOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  ///< 0 picks an ephemeral port; read it back via port()
  int listen_backlog = 128;
  /// Per-connection pending-response budget. A connection whose unsent
  /// bytes exceed this stops being read (and parsed) until the peer drains
  /// its socket — the bounded-memory half of backpressure.
  size_t write_budget_bytes = 8u << 20;
  /// Server-wide cap on dispatched-but-unanswered query batches. Beyond
  /// it, further connections are not read until the backlog drains — the
  /// bounded-work half of backpressure.
  int max_inflight_batches = 64;
  /// SO_SNDBUF for accepted connections (0 = kernel default with
  /// autotuning). Setting it bounds how much the kernel absorbs before the
  /// user-space write budget engages — useful for tests and for keeping
  /// slow readers' memory on a leash.
  int so_sndbuf = 0;
  /// Shutdown drain budget: how long clients get to read the responses of
  /// in-flight batches before their connections are force-closed. It does
  /// not bound how long a running batch may take: Stop() still waits for
  /// every dispatched task to return.
  int drain_timeout_ms = 5000;
  /// Period of the ingest publish timer (0 = no timer). When set and an
  /// ingest sink is attached, a timerfd fires every interval and drives
  /// IngestSink::PublishAll(), so idle shards meet their tick-epoch
  /// deadlines without waiting for another batch to arrive.
  int64_t ingest_publish_interval_ms = 0;
};

/// Where kReadingBatch frames go. The serving tier stays ignorant of how
/// ingestion works (stpt::ingest depends on stpt::serve, not the reverse);
/// it only routes decoded batches to the sink on the exec pool and frames
/// the ack back. Implementations must be thread-safe: batches from
/// different connections can run concurrently on pool workers.
class IngestSink {
 public:
  virtual ~IngestSink() = default;

  /// Applies one decoded reading batch and returns admission counts plus
  /// the currently published epoch of the addressed shard.
  virtual ReadingAck Apply(const ReadingBatch& batch) = 0;

  /// JSON object describing live ingest state (spliced into stats).
  virtual std::string StatsJson() const = 0;

  /// Prometheus text for the stpt_ingest_* families (appended to the
  /// metrics frame).
  virtual std::string MetricsText() const = 0;

  /// Timer-driven epoch sweep: publish every shard whose epoch deadline
  /// has passed. Called periodically by the server's publish timer (see
  /// EventLoopOptions::ingest_publish_interval_ms); the default is a
  /// no-op so sinks without epoch state need not care. Returns the number
  /// of shards published.
  virtual int PublishAll() { return 0; }
};

/// Non-blocking epoll front end over a SnapshotRegistry.
///
/// One event-loop thread owns every connection: it accepts, reads
/// level-triggered readiness into per-connection FrameDecoders, answers
/// light frames (stats/meta/metrics/admin) inline, and dispatches query
/// batches onto the stpt::exec pool. Workers never touch sockets: they
/// push encoded responses onto a completion queue and wake the loop
/// through an eventfd, so all socket and connection state is single-
/// threaded by construction.
///
/// Flow control: each connection has at most one dispatched batch in
/// flight (responses therefore stay in request order), a pending-byte
/// write budget, and the server defers reads entirely once the global
/// dispatch backlog hits max_inflight_batches. The pause/resume state is
/// visible through stpt_serve_backpressure_paused (gauge) and
/// stpt_serve_backpressure_pauses_total.
///
/// Shutdown (Stop() or a client kShutdown frame) drains: accepting and
/// reading cease immediately, in-flight batches complete, their responses
/// are flushed, and only then are connections closed — bounded by
/// drain_timeout_ms. After Stop() returns, no dispatched task is still
/// running, even one that outlived the drain, and every fd the server
/// opened (listener, epoll, eventfd, connections) is closed;
/// open_connections() reads 0.
class EventLoopServer {
 public:
  /// Validates `options` and builds a server over `registry` (not owned;
  /// must outlive the server). Returned stopped; call Start().
  static StatusOr<std::unique_ptr<EventLoopServer>> Create(
      SnapshotRegistry* registry, EventLoopOptions options);

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Stops and joins if still running.
  ~EventLoopServer();

  /// Binds, listens, and spawns the loop thread. kInternal if the address
  /// cannot be bound.
  Status Start();

  /// The actual bound port (useful with options.port == 0).
  int port() const { return port_; }

  /// Blocks until Stop() is called or a client sends kShutdown.
  void Wait();

  /// Requests shutdown, drains, joins the loop thread, waits for every
  /// dispatched task to return, closes every fd. Idempotent; safe to call
  /// while Wait() blocks elsewhere.
  void Stop();

  /// Total connections accepted since Start().
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// Currently open client connections (0 after Stop()).
  int open_connections() const {
    return open_conns_.load(std::memory_order_relaxed);
  }

  /// This server's metric registry (connections, frames, protocol errors,
  /// backpressure gauge/counter, dispatch gauge). Exported by the
  /// kMetricsRequest wire command next to the registry and shard metrics.
  obs::Registry& metrics() const { return registry_metrics_; }

  /// Attaches the ingest sink that kReadingBatch frames dispatch to (not
  /// owned; must outlive the server). Call before Start(); without a sink
  /// the server answers reading batches with a FailedPrecondition error.
  void set_ingest_sink(IngestSink* sink) { ingest_ = sink; }

 private:
  struct Conn;
  struct Completion {
    uint64_t conn_id = 0;
    MsgType type = MsgType::kError;
    std::vector<uint8_t> payload;
    bool close_after = false;
    // RED + tracing bookkeeping, filled for dispatched work (queries,
    // ingest). Empty tenant = inline response, no RED update.
    std::string tenant;
    std::string tile;
    bool error = false;
    uint64_t req_recv_ns = 0;  ///< socket-read time of the request frame
    obs::TraceContext trace;   ///< request context; sampled ⇒ write span
  };

  EventLoopServer(SnapshotRegistry* registry, EventLoopOptions options);

  void LoopThread();
  void AcceptReady();
  void ReadReady(Conn& conn);
  void WriteReady(Conn& conn);
  void ParseFrames(Conn& conn);
  /// Handles one frame; returns false when parsing must stop (a query was
  /// dispatched or the connection is winding down).
  bool HandleFrame(Conn& conn, Frame frame);
  /// Marks `conn` busy and runs `work` on the exec pool (inline in the
  /// serial runtime); its completion is written back by the loop thread.
  void Dispatch(Conn& conn, std::function<Completion()> work);
  void DispatchQuery(Conn& conn, std::shared_ptr<const ShardGeneration> gen,
                     query::Workload batch, const obs::TraceContext& trace);
  void DispatchIngest(Conn& conn, ReadingBatch batch);
  /// Records the loop-side lifecycle spans of a sampled request: the
  /// client's send span (carried start_ns → socket read), the queue wait
  /// (read → parse start) and the parse itself.
  void RecordRequestSpans(const Conn& conn, const obs::TraceContext& ctx,
                          uint64_t parse_start_ns, uint64_t parse_end_ns);
  void HandleAdmin(Conn& conn, const std::vector<uint8_t>& payload);
  std::string MetricsText() const;
  std::string StatsText() const;

  void EnqueueFrame(Conn& conn, MsgType type, const std::vector<uint8_t>& payload);
  void EnqueueError(Conn& conn, const Status& status, bool close_after);
  void FlushWrites(Conn& conn);
  void UpdateInterest(Conn& conn);
  void UpdatePauseAccounting(Conn& conn);
  void CloseConn(uint64_t id);
  void ProcessCompletions();
  void ResumeDeferred();
  void PushCompletion(Completion completion);
  void RequestStop();
  void BeginDrain();
  bool DrainComplete() const;
  void CloseAllConns();

  SnapshotRegistry* registry_;
  EventLoopOptions options_;
  IngestSink* ingest_ = nullptr;  // not owned, may be null

  mutable obs::Registry registry_metrics_;
  /// Per-(tenant,tile) RED families, updated when a dispatched completion
  /// is written back; exported by MetricsText next to the loop metrics.
  obs::RedFamily red_;
  obs::Counter* connections_ctr_ = nullptr;
  obs::Counter* protocol_errors_ctr_ = nullptr;
  obs::Counter* frames_ctr_ = nullptr;
  obs::Counter* dispatches_ctr_ = nullptr;
  obs::Counter* pauses_ctr_ = nullptr;
  obs::Gauge* paused_gauge_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int timer_fd_ = -1;  ///< ingest publish timer, -1 when disabled
  int port_ = 0;

  std::atomic<bool> stop_requested_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<int> open_conns_{0};
  std::atomic<int> inflight_{0};

  mutable std::mutex completions_mu_;
  std::vector<Completion> completions_;

  /// Pool tasks dispatched and not yet returned; Stop() waits for zero.
  std::mutex tasks_mu_;
  std::condition_variable tasks_cv_;
  int tasks_running_ = 0;

  std::mutex mu_;
  std::condition_variable stop_cv_;
  bool stop_flagged_ = false;
  bool started_ = false;
  std::thread loop_thread_;

  // Loop-thread-only state below (no locking needed).
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::deque<uint64_t> deferred_;
  uint64_t next_conn_id_ = 3;  // 0-2 tag the listener, eventfd and timerfd
  bool draining_ = false;
  uint64_t drain_deadline_ns_ = 0;
  int paused_count_ = 0;
};

}  // namespace stpt::serve

#endif  // STPT_SERVE_EVENT_LOOP_H_
