#include "serve/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"

namespace stpt::serve {
namespace {

// epoll user-data tags for the three non-connection fds; connection ids
// start above them.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kTimerTag = 2;

// Per-event read cap: level-triggered epoll re-notifies, so bounding one
// visit keeps a firehose connection from starving the others.
constexpr size_t kMaxReadPerVisit = 256u << 10;

void CloseQuietly(int fd) {
  if (fd >= 0) ::close(fd);
}

// Stage indices for ChildSpanId: every lifecycle span of one request derives
// its id from the client's span id and the stage number, so two hops never
// collide and a reader can recompute the chain. Exec is a request obs::Span;
// the others are intervals the loop times across threads (obs::RecordSpan).
constexpr uint64_t kStageQueue = 1;
constexpr uint64_t kStageParse = 2;
constexpr uint64_t kStageDispatchWait = 3;
constexpr uint64_t kStageExec = 4;
constexpr uint64_t kStageWrite = 5;

}  // namespace

/// All connection state is owned by the loop thread; nothing here is
/// touched from workers (they only see the connection id).
struct EventLoopServer::Conn {
  int fd = -1;
  uint64_t id = 0;
  FrameDecoder decoder;
  std::deque<std::vector<uint8_t>> wqueue;  ///< encoded frames, FIFO
  size_t front_off = 0;       ///< bytes of wqueue.front() already sent
  size_t pending_bytes = 0;   ///< total unsent bytes across wqueue
  uint32_t last_events = 0;   ///< epoll interest currently registered
  bool busy = false;          ///< one dispatched batch in flight
  bool deferred = false;      ///< paused by the global dispatch backlog
  bool closing = false;       ///< flush wqueue, then close
  bool dead = false;          ///< reaped at the next safe point
  bool pause_counted = false; ///< contributes to the backpressure gauge
  uint64_t last_read_ns = 0;  ///< when the socket last yielded bytes
};

EventLoopServer::EventLoopServer(SnapshotRegistry* registry,
                                 EventLoopOptions options)
    : registry_(registry), options_(std::move(options)) {
  connections_ctr_ = registry_metrics_.GetCounter(
      "stpt_serve_connections_total", "TCP connections accepted");
  protocol_errors_ctr_ = registry_metrics_.GetCounter(
      "stpt_serve_protocol_errors_total",
      "Malformed or unexpected frames received");
  frames_ctr_ = registry_metrics_.GetCounter("stpt_serve_frames_total",
                                             "Request frames parsed");
  dispatches_ctr_ = registry_metrics_.GetCounter(
      "stpt_serve_dispatches_total", "Query batches dispatched to the exec pool");
  pauses_ctr_ = registry_metrics_.GetCounter(
      "stpt_serve_backpressure_pauses_total",
      "Connections paused for backpressure (budget or backlog)");
  paused_gauge_ = registry_metrics_.GetGauge(
      "stpt_serve_backpressure_paused",
      "Connections currently paused for backpressure");
  inflight_gauge_ = registry_metrics_.GetGauge(
      "stpt_serve_dispatch_inflight", "Dispatched batches not yet answered");
}

EventLoopServer::~EventLoopServer() { Stop(); }

StatusOr<std::unique_ptr<EventLoopServer>> EventLoopServer::Create(
    SnapshotRegistry* registry, EventLoopOptions options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("event_loop: registry must not be null");
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("event_loop: port must be in [0, 65535], got " +
                                   std::to_string(options.port));
  }
  if (options.listen_backlog < 1) {
    return Status::InvalidArgument("event_loop: listen_backlog must be >= 1");
  }
  if (options.write_budget_bytes < 4096) {
    return Status::InvalidArgument(
        "event_loop: write_budget_bytes must be >= 4096");
  }
  if (options.max_inflight_batches < 1) {
    return Status::InvalidArgument(
        "event_loop: max_inflight_batches must be >= 1");
  }
  if (options.so_sndbuf < 0) {
    return Status::InvalidArgument("event_loop: so_sndbuf must be >= 0");
  }
  if (options.drain_timeout_ms < 0) {
    return Status::InvalidArgument("event_loop: drain_timeout_ms must be >= 0");
  }
  if (options.ingest_publish_interval_ms < 0) {
    return Status::InvalidArgument(
        "event_loop: ingest_publish_interval_ms must be >= 0");
  }
  in_addr parsed{};
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &parsed) != 1) {
    return Status::InvalidArgument("event_loop: bad bind address '" +
                                   options.bind_address + "'");
  }
  return std::unique_ptr<EventLoopServer>(
      new EventLoopServer(registry, std::move(options)));
}

Status EventLoopServer::Start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal("event_loop: cannot create socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  ::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    CloseQuietly(fd);
    return Status::Internal("event_loop: cannot bind " + options_.bind_address +
                            ":" + std::to_string(options_.port) + " (" +
                            std::strerror(errno) + ")");
  }
  if (::listen(fd, options_.listen_backlog) != 0) {
    CloseQuietly(fd);
    return Status::Internal("event_loop: listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    CloseQuietly(fd);
    return Status::Internal("event_loop: getsockname failed");
  }

  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) {
    CloseQuietly(fd);
    return Status::Internal("event_loop: epoll_create1 failed");
  }
  const int wfd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wfd < 0) {
    CloseQuietly(fd);
    CloseQuietly(epfd);
    return Status::Internal("event_loop: eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, wfd, &ev);

  // Periodic ingest publish timer: an idle shard has no batch arrival to
  // carry its tick-epoch deadline, so the loop drives the sweep itself.
  int tfd = -1;
  if (options_.ingest_publish_interval_ms > 0 && ingest_ != nullptr) {
    tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (tfd < 0) {
      CloseQuietly(fd);
      CloseQuietly(epfd);
      CloseQuietly(wfd);
      return Status::Internal("event_loop: timerfd_create failed");
    }
    itimerspec spec{};
    spec.it_interval.tv_sec = options_.ingest_publish_interval_ms / 1000;
    spec.it_interval.tv_nsec =
        (options_.ingest_publish_interval_ms % 1000) * 1'000'000L;
    spec.it_value = spec.it_interval;
    ::timerfd_settime(tfd, 0, &spec, nullptr);
    ev.data.u64 = kTimerTag;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, tfd, &ev);
  }

  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  epoll_fd_ = epfd;
  wake_fd_ = wfd;
  timer_fd_ = tfd;
  stop_requested_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stop_flagged_ = false;
  }
  loop_thread_ = std::thread([this] { LoopThread(); });
  return Status::OK();
}

void EventLoopServer::LoopThread() {
  obs::RegisterCurrentThreadName("stpt-loop");
  std::vector<epoll_event> events(128);
  std::vector<uint64_t> dead;
  auto reap = [this, &dead] {
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second->dead) {
        dead.push_back(it->first);
      }
      ++it;
    }
    for (uint64_t id : dead) CloseConn(id);
    dead.clear();
  };
  while (true) {
    const int timeout_ms = draining_ ? 10 : -1;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd closed or fatal
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.u64 == kListenTag) {
        AcceptReady();
        continue;
      }
      if (ev.data.u64 == kWakeTag) {
        uint64_t drainv = 0;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        continue;
      }
      if (ev.data.u64 == kTimerTag) {
        uint64_t expirations = 0;
        (void)!::read(timer_fd_, &expirations, sizeof(expirations));
        // Runs on the loop thread: the sweep only takes per-shard locks
        // (never loop state), ticks missed while it runs coalesce into the
        // drained expiration count, and nothing can outlive Stop().
        if (ingest_ != nullptr && !draining_) ingest_->PublishAll();
        continue;
      }
      auto it = conns_.find(ev.data.u64);
      if (it == conns_.end() || it->second->dead) continue;
      Conn& conn = *it->second;
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        conn.dead = true;
        continue;
      }
      if (ev.events & EPOLLOUT) WriteReady(conn);
      if (!conn.dead && (ev.events & EPOLLIN)) ReadReady(conn);
    }
    ProcessCompletions();
    reap();
    if (!draining_ && stop_requested_.load(std::memory_order_acquire)) {
      BeginDrain();
    }
    if (draining_ &&
        (DrainComplete() || obs::NowNanos() >= drain_deadline_ns_)) {
      CloseAllConns();
      break;
    }
  }
}

void EventLoopServer::AcceptReady() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or the listener was closed for drain
    }
    if (draining_) {
      CloseQuietly(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                   sizeof(options_.so_sndbuf));
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseQuietly(fd);
      continue;
    }
    conn->last_events = EPOLLIN;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_ctr_->Increment();
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void EventLoopServer::ReadReady(Conn& conn) {
  if (conn.busy || conn.closing || conn.deferred || draining_) return;
  uint8_t buf[65536];
  size_t total = 0;
  while (total < kMaxReadPerVisit) {
    const ssize_t r = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (r > 0) {
      conn.decoder.Append(buf, static_cast<size_t>(r));
      conn.last_read_ns = obs::NowNanos();
      total += static_cast<size_t>(r);
      if (static_cast<size_t>(r) < sizeof(buf)) break;
      continue;
    }
    if (r == 0) {  // clean peer close
      conn.dead = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.dead = true;
    return;
  }
  ParseFrames(conn);
}

void EventLoopServer::ParseFrames(Conn& conn) {
  if (draining_) {
    UpdateInterest(conn);
    return;
  }
  while (!conn.busy && !conn.closing && !conn.dead) {
    if (inflight_.load(std::memory_order_relaxed) >=
        options_.max_inflight_batches) {
      // Query backlog is deep: defer reading (and parsing) until workers
      // catch up. ResumeDeferred picks the connection back up.
      if (!conn.deferred) {
        conn.deferred = true;
        deferred_.push_back(conn.id);
      }
      break;
    }
    if (conn.pending_bytes > options_.write_budget_bytes) break;
    Frame frame;
    auto ready = conn.decoder.Next(&frame);
    if (!ready.ok()) {
      protocol_errors_ctr_->Increment();
      EnqueueError(conn, ready.status(), /*close_after=*/true);
      break;
    }
    if (!*ready) break;
    frames_ctr_->Increment();
    if (!HandleFrame(conn, std::move(frame))) break;
  }
  UpdatePauseAccounting(conn);
  UpdateInterest(conn);
}

bool EventLoopServer::HandleFrame(Conn& conn, Frame frame) {
  switch (frame.type) {
    case MsgType::kQueryRequestV2: {
      const uint64_t parse_start_ns = obs::NowNanos();
      auto request = DecodeTenantQueryRequest(frame.payload);
      if (!request.ok()) {
        protocol_errors_ctr_->Increment();
        EnqueueError(conn, request.status(), /*close_after=*/true);
        return false;
      }
      RecordRequestSpans(conn, request->trace, parse_start_ns, obs::NowNanos());
      const ShardKey key = ResolveShardKey(request->tenant, request->tile);
      auto gen = registry_->Route(key.tenant, key.tile, request->epoch);
      if (!gen.ok()) {
        EnqueueError(conn, gen.status(), /*close_after=*/false);
        return true;
      }
      DispatchQuery(conn, std::move(*gen), std::move(request->batch),
                    request->trace);
      return false;
    }
    case MsgType::kStatsRequest:
      EnqueueFrame(conn, MsgType::kStatsResponse, EncodeString(StatsText()));
      return true;
    case MsgType::kShardStatsRequest: {
      auto request = DecodeShardStatsRequest(frame.payload);
      if (!request.ok()) {
        protocol_errors_ctr_->Increment();
        EnqueueError(conn, request.status(), /*close_after=*/true);
        return false;
      }
      EnqueueFrame(conn, MsgType::kShardStatsResponse,
                   EncodeString(registry_->StatsJson(request->tenant,
                                                     request->tile)));
      return true;
    }
    case MsgType::kMetaRequest: {
      auto request = DecodeShardStatsRequest(frame.payload);
      if (!request.ok()) {
        protocol_errors_ctr_->Increment();
        EnqueueError(conn, request.status(), /*close_after=*/true);
        return false;
      }
      const ShardKey key = ResolveShardKey(request->tenant, request->tile);
      auto gen = registry_->Route(key.tenant, key.tile);
      if (!gen.ok()) {
        EnqueueError(conn, gen.status(), /*close_after=*/false);
        return true;
      }
      EnqueueFrame(conn, MsgType::kMetaResponse,
                   EncodeMetaResponse(
                       {(*gen)->engine->dims(), (*gen)->engine->meta()}));
      return true;
    }
    case MsgType::kMetricsRequest:
      EnqueueFrame(conn, MsgType::kMetricsResponse, EncodeString(MetricsText()));
      return true;
    case MsgType::kReadingBatch: {
      const uint64_t parse_start_ns = obs::NowNanos();
      auto batch = DecodeReadingBatch(frame.payload);
      if (!batch.ok()) {
        protocol_errors_ctr_->Increment();
        EnqueueError(conn, batch.status(), /*close_after=*/true);
        return false;
      }
      RecordRequestSpans(conn, batch->trace, parse_start_ns, obs::NowNanos());
      if (ingest_ == nullptr) {
        EnqueueError(conn,
                     Status::FailedPrecondition(
                         "ingest: server started without an ingest pipeline"),
                     /*close_after=*/false);
        return true;
      }
      DispatchIngest(conn, std::move(*batch));
      return false;
    }
    case MsgType::kAdminRequest:
      HandleAdmin(conn, frame.payload);
      return true;
    case MsgType::kTraceRequest: {
      auto request = DecodeTraceFetchRequest(frame.payload);
      if (!request.ok()) {
        protocol_errors_ctr_->Increment();
        EnqueueError(conn, request.status(), /*close_after=*/true);
        return false;
      }
      EnqueueFrame(conn, MsgType::kTraceResponse,
                   EncodeString(obs::TraceStore::Global().ToJson(
                       request->limit, request->trace_id)));
      return true;
    }
    case MsgType::kShutdown:
      EnqueueFrame(conn, MsgType::kShutdown, {});
      RequestStop();
      return false;
    default:
      protocol_errors_ctr_->Increment();
      EnqueueError(conn, Status::InvalidArgument("wire: unexpected message type"),
                   /*close_after=*/true);
      return false;
  }
}

void EventLoopServer::Dispatch(Conn& conn, std::function<Completion()> work) {
  // One dispatched request per connection: responses stay in request order
  // and a firehose client is paced by its own responses, while the global
  // inflight cap keeps queries and ingest jointly bounded.
  conn.busy = true;
  dispatches_ctr_->Increment();
  inflight_gauge_->Set(static_cast<double>(
      inflight_.fetch_add(1, std::memory_order_acq_rel) + 1));
  if (exec::Threads() <= 1) {
    // Serial runtime: no pool exists; answer inline. The loop drains the
    // completion queue at the bottom of this iteration, so no wake is due.
    PushCompletion(work());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    ++tasks_running_;
  }
  exec::GlobalPool().Submit([this, work = std::move(work)] {
    PushCompletion(work());
    const uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
    // The task's last touch of the server: once the count reaches zero,
    // Stop() may close wake_fd_ and its caller may destroy the server.
    std::lock_guard<std::mutex> lock(tasks_mu_);
    if (--tasks_running_ == 0) tasks_cv_.notify_all();
  });
}

void EventLoopServer::DispatchQuery(Conn& conn,
                                    std::shared_ptr<const ShardGeneration> gen,
                                    query::Workload batch,
                                    const obs::TraceContext& trace) {
  const uint64_t dispatch_ns = obs::NowNanos();
  Dispatch(conn, [id = conn.id, gen = std::move(gen), batch = std::move(batch),
                  trace, dispatch_ns, recv_ns = conn.last_read_ns] {
    // The exec span is the active context while the engine runs, so
    // exemplars, slow-batch logs and ParallelFor lanes chain to it.
    obs::ScopedTraceContext scoped(trace);
    obs::Span span("serve/exec", kStageExec, "worker");
    obs::RecordSpan(trace, obs::ChildSpanId(trace.span_id, kStageDispatchWait),
                    trace.span_id, dispatch_ns, span.start_ns(),
                    "serve/dispatch_wait", "worker");
    Completion comp;
    comp.conn_id = id;
    comp.tenant = gen->key.tenant;
    comp.tile = gen->key.tile;
    comp.req_recv_ns = recv_ns;
    comp.trace = trace;
    StatusOr<QueryResponse> answers = gen->engine->AnswerBatch(batch);
    if (!answers.ok()) {
      // Per-query validation failure: report it but keep the connection —
      // the client's next batch may be fine.
      comp.type = MsgType::kError;
      comp.error = true;
      comp.payload = EncodeString(answers.status().ToString());
    } else {
      TenantQueryResponse response;
      response.epoch = gen->epoch;
      response.answers = std::move(*answers);
      response.trace = trace;  // echo so the client can match its context
      comp.type = MsgType::kQueryResponseV2;
      comp.payload = EncodeTenantQueryResponse(response);
    }
    span.Attr("tenant", gen->key.tenant);
    span.Attr("tile", gen->key.tile);
    span.Attr("epoch", gen->epoch);
    return comp;
  });
}

void EventLoopServer::DispatchIngest(Conn& conn, ReadingBatch batch) {
  const uint64_t dispatch_ns = obs::NowNanos();
  Dispatch(conn, [sink = ingest_, id = conn.id, batch = std::move(batch),
                  dispatch_ns, recv_ns = conn.last_read_ns] {
    // The pipeline's ingest/apply and ingest/publish spans (and the
    // registry's load or swap span) chain under the exec span, linking the
    // batch to the epoch it publishes.
    const obs::TraceContext& trace = batch.trace;
    obs::ScopedTraceContext scoped(trace);
    obs::Span span("serve/exec", kStageExec, "worker");
    obs::RecordSpan(trace, obs::ChildSpanId(trace.span_id, kStageDispatchWait),
                    trace.span_id, dispatch_ns, span.start_ns(),
                    "serve/dispatch_wait", "worker");
    Completion comp;
    comp.conn_id = id;
    ShardKey key = ResolveShardKey(batch.tenant, batch.tile);
    comp.tenant = std::move(key.tenant);
    comp.tile = std::move(key.tile);
    comp.req_recv_ns = recv_ns;
    comp.trace = trace;
    ReadingAck ack = sink->Apply(batch);
    comp.error = ack.rejected > 0 && ack.accepted == 0 && ack.clamped == 0;
    ack.trace = trace;  // echo
    comp.type = MsgType::kReadingAck;
    comp.payload = EncodeReadingAck(ack);
    span.Attr("tenant", comp.tenant);
    span.Attr("tile", comp.tile);
    span.Attr("epoch", ack.epoch);
    return comp;
  });
}

void EventLoopServer::HandleAdmin(Conn& conn,
                                  const std::vector<uint8_t>& payload) {
  const uint64_t parse_start_ns = obs::NowNanos();
  auto request = DecodeAdminRequest(payload);
  if (!request.ok()) {
    protocol_errors_ctr_->Increment();
    EnqueueError(conn, request.status(), /*close_after=*/true);
    return;
  }
  RecordRequestSpans(conn, request->trace, parse_start_ns, obs::NowNanos());
  const ShardKey key{request->tenant, request->tile};
  AdminResponse response;
  response.verb = request->verb;
  response.trace = request->trace;  // echo
  Status failed = Status::OK();
  {
    // The verb runs under its own exec span, as a dispatched query or
    // ingest batch does, so the registry's load or swap span (stage 1 under
    // it) chains verb → build → published epoch without taking the id of
    // serve/queue (stage 1 under the request's span).
    obs::ScopedTraceContext scoped(request->trace);
    obs::Span span("serve/exec", kStageExec, "loop");
    span.Attr("tenant", key.tenant);
    span.Attr("tile", key.tile);
    switch (request->verb) {
      case AdminVerb::kLoad: {
        auto epoch = registry_->LoadFile(key, request->path);
        if (epoch.ok()) {
          response.epoch = *epoch;
        } else {
          failed = epoch.status();
        }
        break;
      }
      case AdminVerb::kSwap: {
        auto epoch = registry_->SwapFile(key, request->path);
        if (epoch.ok()) {
          response.epoch = *epoch;
        } else {
          failed = epoch.status();
        }
        break;
      }
      case AdminVerb::kUnload:
        failed = registry_->Unload(key);
        break;
    }
    span.Attr("epoch", response.epoch);
  }
  if (!failed.ok()) {
    EnqueueError(conn, failed, /*close_after=*/false);
    return;
  }
  response.message = "ok";
  EnqueueFrame(conn, MsgType::kAdminResponse, EncodeAdminResponse(response));
}

void EventLoopServer::RecordRequestSpans(const Conn& conn,
                                         const obs::TraceContext& ctx,
                                         uint64_t parse_start_ns,
                                         uint64_t parse_end_ns) {
  // The client's send span: its id travels on the wire, its start is the
  // stamped send time, and it closes when the bytes landed in our socket
  // read. Meaningful when client and server share a steady clock (same
  // machine, as in tests and the CI smoke); omitted if the stamp is absent
  // or the clocks disagree enough to invert the interval.
  if (ctx.start_ns != 0 && conn.last_read_ns >= ctx.start_ns) {
    obs::RecordSpan(ctx, ctx.span_id, 0, ctx.start_ns, conn.last_read_ns,
                    "client/send", "client");
  }
  if (conn.last_read_ns != 0 && parse_start_ns >= conn.last_read_ns) {
    obs::RecordSpan(ctx, obs::ChildSpanId(ctx.span_id, kStageQueue),
                    ctx.span_id, conn.last_read_ns, parse_start_ns,
                    "serve/queue", "loop");
  }
  obs::RecordSpan(ctx, obs::ChildSpanId(ctx.span_id, kStageParse), ctx.span_id,
                  parse_start_ns, parse_end_ns, "serve/parse", "loop");
}

std::string EventLoopServer::MetricsText() const {
  // Default shard first (its engine's unlabeled stpt_serve_* families),
  // then this server's loop metrics, the registry's admin + labeled
  // per-shard families, and the process-wide registry.
  std::string text;
  auto def = registry_->Route(kDefaultTenant, kDefaultTile);
  if (def.ok()) text += (*def)->engine->metrics().ToPrometheusText();
  text += registry_metrics_.ToPrometheusText();
  text += red_.ToPrometheusText();
  if (ingest_ != nullptr) text += ingest_->MetricsText();
  text += registry_->ToPrometheusText();
  text += obs::Registry::Global().ToPrometheusText();
  return text;
}

std::string EventLoopServer::StatsText() const {
  // The default shard's engine counters lead when that shard is loaded; the
  // trace-region profile, the registry topology and the ingest state of
  // every shard are always there.
  std::string json = "{";
  if (auto def = registry_->Route(kDefaultTenant, kDefaultTile); def.ok()) {
    json = (*def)->engine->stats().ToJson();
    json.back() = ',';
    json += ' ';
  }
  json += "\"top_regions\": " + obs::TraceProfileJson(10) +
          ", \"registry\": " + registry_->StatsJson();
  if (ingest_ != nullptr) json += ", \"ingest\": " + ingest_->StatsJson();
  return json + "}";
}

void EventLoopServer::EnqueueFrame(Conn& conn, MsgType type,
                                   const std::vector<uint8_t>& payload) {
  if (conn.dead) return;
  const uint64_t length = 1 + payload.size();
  if (length > kMaxFrameBytes) {
    conn.dead = true;
    return;
  }
  std::vector<uint8_t> frame;
  frame.reserve(4 + static_cast<size_t>(length));
  frame.push_back(static_cast<uint8_t>(length));
  frame.push_back(static_cast<uint8_t>(length >> 8));
  frame.push_back(static_cast<uint8_t>(length >> 16));
  frame.push_back(static_cast<uint8_t>(length >> 24));
  frame.push_back(static_cast<uint8_t>(type));
  frame.insert(frame.end(), payload.begin(), payload.end());
  conn.pending_bytes += frame.size();
  conn.wqueue.push_back(std::move(frame));
  FlushWrites(conn);
}

void EventLoopServer::EnqueueError(Conn& conn, const Status& status,
                                   bool close_after) {
  if (close_after) conn.closing = true;
  EnqueueFrame(conn, MsgType::kError, EncodeString(status.ToString()));
}

void EventLoopServer::FlushWrites(Conn& conn) {
  if (conn.dead) return;
  while (!conn.wqueue.empty()) {
    const std::vector<uint8_t>& front = conn.wqueue.front();
    const size_t n = front.size() - conn.front_off;
    const ssize_t w =
        ::send(conn.fd, front.data() + conn.front_off, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.dead = true;  // peer hung up mid-response
      return;
    }
    conn.front_off += static_cast<size_t>(w);
    conn.pending_bytes -= static_cast<size_t>(w);
    if (conn.front_off == front.size()) {
      conn.wqueue.pop_front();
      conn.front_off = 0;
    }
  }
  if (conn.wqueue.empty() && conn.closing) {
    conn.dead = true;
    return;
  }
  UpdatePauseAccounting(conn);
  UpdateInterest(conn);
}

void EventLoopServer::WriteReady(Conn& conn) {
  FlushWrites(conn);
  // Dropping back under the write budget may unblock requests that were
  // already sitting in the frame decoder (the socket itself is drained, so
  // no EPOLLIN will fire for them).
  if (!conn.dead && !conn.busy && conn.decoder.buffered() > 0) {
    ParseFrames(conn);
  }
}

void EventLoopServer::UpdateInterest(Conn& conn) {
  if (conn.dead) return;
  uint32_t events = 0;
  const bool want_read = !conn.busy && !conn.closing && !draining_ &&
                         !conn.deferred &&
                         conn.pending_bytes <= options_.write_budget_bytes;
  if (want_read) events |= EPOLLIN;
  if (!conn.wqueue.empty()) events |= EPOLLOUT;
  if (events == conn.last_events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.last_events = events;
}

void EventLoopServer::UpdatePauseAccounting(Conn& conn) {
  const bool paused =
      !conn.dead && !conn.closing &&
      (conn.deferred || conn.pending_bytes > options_.write_budget_bytes);
  if (paused && !conn.pause_counted) {
    conn.pause_counted = true;
    ++paused_count_;
    pauses_ctr_->Increment();
    paused_gauge_->Set(static_cast<double>(paused_count_));
  } else if (!paused && conn.pause_counted) {
    conn.pause_counted = false;
    --paused_count_;
    paused_gauge_->Set(static_cast<double>(paused_count_));
  }
}

void EventLoopServer::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  if (conn.pause_counted) {
    --paused_count_;
    paused_gauge_->Set(static_cast<double>(paused_count_));
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  CloseQuietly(conn.fd);
  conns_.erase(it);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void EventLoopServer::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& comp : batch) {
    inflight_gauge_->Set(static_cast<double>(
        inflight_.fetch_sub(1, std::memory_order_acq_rel) - 1));
    const uint64_t write_start_ns = obs::NowNanos();
    auto it = conns_.find(comp.conn_id);
    if (it == conns_.end() || it->second->dead) continue;
    Conn& conn = *it->second;
    conn.busy = false;
    EnqueueFrame(conn, comp.type, comp.payload);
    if (!comp.tenant.empty()) {
      // RED update: one request per dispatched completion, latency from the
      // request's socket read to its response hitting the write path.
      obs::RedFamily::Cell cell = red_.Get(comp.tenant, comp.tile);
      cell.requests->Increment();
      if (comp.error) cell.errors->Increment();
      const uint64_t now_ns = obs::NowNanos();
      const double latency =
          comp.req_recv_ns != 0 && now_ns >= comp.req_recv_ns
              ? static_cast<double>(now_ns - comp.req_recv_ns)
              : 0.0;
      if (comp.trace.sampled) {
        cell.latency_ns->ObserveWithExemplar(latency, comp.trace.trace_hi,
                                             comp.trace.trace_lo, now_ns);
      } else {
        cell.latency_ns->Observe(latency);
      }
    }
    obs::RecordSpan(comp.trace, obs::ChildSpanId(comp.trace.span_id, kStageWrite),
                    comp.trace.span_id, write_start_ns, obs::NowNanos(),
                    "serve/write", "loop");
    if (comp.close_after) conn.closing = true;
    if (!conn.dead) ParseFrames(conn);  // more frames may be buffered
  }
  ResumeDeferred();
}

void EventLoopServer::ResumeDeferred() {
  while (!deferred_.empty() && inflight_.load(std::memory_order_relaxed) <
                                   options_.max_inflight_batches) {
    const uint64_t id = deferred_.front();
    deferred_.pop_front();
    auto it = conns_.find(id);
    if (it == conns_.end() || it->second->dead) continue;
    Conn& conn = *it->second;
    if (!conn.deferred) continue;
    conn.deferred = false;
    ParseFrames(conn);
  }
}

void EventLoopServer::PushCompletion(Completion completion) {
  std::lock_guard<std::mutex> lock(completions_mu_);
  completions_.push_back(std::move(completion));
}

void EventLoopServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
  std::lock_guard<std::mutex> lock(mu_);
  stop_flagged_ = true;
  stop_cv_.notify_all();
}

void EventLoopServer::BeginDrain() {
  draining_ = true;
  drain_deadline_ns_ =
      obs::NowNanos() +
      static_cast<uint64_t>(options_.drain_timeout_ms) * 1'000'000ull;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    CloseQuietly(listen_fd_);
    listen_fd_ = -1;
  }
  // Stop reading everywhere; in-flight batches and pending writes drain.
  for (auto& [id, conn] : conns_) {
    if (!conn->dead) {
      UpdatePauseAccounting(*conn);
      UpdateInterest(*conn);
    }
  }
}

bool EventLoopServer::DrainComplete() const {
  if (inflight_.load(std::memory_order_acquire) != 0) return false;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    if (!completions_.empty()) return false;
  }
  for (const auto& [id, conn] : conns_) {
    if (!conn->dead && conn->pending_bytes > 0) return false;
  }
  return true;
}

void EventLoopServer::CloseAllConns() {
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConn(id);
}

void EventLoopServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait(lock, [this] { return stop_flagged_ || !started_; });
}

void EventLoopServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
  }
  RequestStop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // A drain that timed out leaves dispatched tasks running, and each one
  // still writes wake_fd_ when it finishes: wait for them before closing.
  {
    std::unique_lock<std::mutex> lock(tasks_mu_);
    tasks_cv_.wait(lock, [this] { return tasks_running_ == 0; });
  }
  CloseQuietly(listen_fd_);
  CloseQuietly(epoll_fd_);
  CloseQuietly(wake_fd_);
  CloseQuietly(timer_fd_);
  listen_fd_ = -1;
  epoll_fd_ = -1;
  wake_fd_ = -1;
  timer_fd_ = -1;
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

}  // namespace stpt::serve
