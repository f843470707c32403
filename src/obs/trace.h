#ifndef STPT_OBS_TRACE_H_
#define STPT_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace stpt::obs {

/// Monotonic wall clock in nanoseconds (steady_clock). The single time
/// source for all latency measurement in the library: Span below, the
/// serve-layer latency histograms, and the bench load generators all read
/// this clock, so their numbers are directly comparable.
uint64_t NowNanos();

/// Aggregated wall-clock statistics for one named trace region.
struct RegionEntry {
  std::string region;
  uint64_t calls = 0;
  uint64_t total_ns = 0;
};

/// Adds one sample to the trace profile. Thread-safe and contention-free on
/// the hot path: each thread accumulates into its own store (guarded by an
/// uncontended per-thread mutex that snapshot readers take), and
/// TraceProfile() merges the per-thread stores on demand. Span calls this on
/// destruction.
void RecordRegion(const char* region, uint64_t ns);

/// Snapshot of the aggregated trace profile (all threads, including exited
/// ones), sorted by descending total time.
std::vector<RegionEntry> TraceProfile();

/// Clears all accumulated region timings (every thread's store).
void ResetTrace();

/// The profile as a JSON array of the `top_n` regions by total time
/// (0 = all): [{"region": ..., "calls": ..., "total_ns": ..., "mean_ns":
/// ...}, ...]. Used by the combined --metrics snapshot and the serve stats
/// endpoint.
std::string TraceProfileJson(size_t top_n = 0);

// --- Event-level tracing ---------------------------------------------------
//
// Opt-in begin/end/counter event capture into per-thread bounded ring
// buffers, exported as Chrome trace-event JSON (load the file in
// chrome://tracing or https://ui.perfetto.dev). Off by default: the only
// cost on the disabled path is one relaxed atomic load per Span
// construction. When enabled, every Span emits a 'B' event at entry and an
// 'E' event at exit on its own thread's buffer, exec pool workers emit
// chunk events labelled with the dispatching span, and TraceCounter turns
// gauge updates into 'C' samples. Capture never touches any Rng, so
// published outputs are bit-identical with tracing on or off.

namespace internal {
extern std::atomic<bool> g_trace_events_enabled;
/// Pushes `region` on the calling thread's span-name stack and buffers a
/// 'B' event. Paired with SpanEnd; Span calls these when capture is on.
void SpanBegin(const char* region, uint64_t ts_ns);
void SpanEnd(const char* region, uint64_t ts_ns);
/// The trace-store half of a sampled request Span; heap-allocated only then.
struct RequestSpan;
}  // namespace internal

/// True while event capture is on. Inline relaxed load: cheap enough for
/// per-op call sites.
inline bool TraceEventsEnabled() {
  return internal::g_trace_events_enabled.load(std::memory_order_relaxed);
}

/// Default per-thread event-ring capacity (events, not bytes).
inline constexpr size_t kDefaultTraceCapacity = 1 << 16;

/// Enables event capture. Clears any previously buffered events and sets
/// the per-thread ring capacity; when a ring fills, the oldest events are
/// overwritten (export drops the then-unmatched halves of truncated spans).
void StartTraceEvents(size_t per_thread_capacity = kDefaultTraceCapacity);

/// Disables event capture. Buffered events are retained for export.
void StopTraceEvents();

/// Buffers one raw duration event (phase 'B' or 'E') on the calling
/// thread. No-op when capture is off. Most callers should use Span; this
/// exists for regions whose begin/end are not lexically scoped (exec pool
/// chunk markers).
void EmitTraceEvent(char phase, const char* name, uint64_t ts_ns);

/// Buffers one counter ('C') sample on the calling thread, timestamped
/// now. No-op when capture is off.
void TraceCounter(const char* name, double value);

/// Names the calling thread's lane in exported traces ("main",
/// "stpt-worker-3", ...). Threads that never register export as
/// "thread-<tid>".
void RegisterCurrentThreadName(const std::string& name);

/// Innermost open Span's region on the calling thread, or nullptr. Only
/// maintained while capture is on; ParallelForRange reads it at dispatch to
/// label worker chunk events after the caller's span.
const char* CurrentSpanName();

/// Number of events currently buffered across all threads (diagnostic /
/// test hook; 0 whenever capture was never started).
size_t TraceEventCount();

/// Serialises the buffered events as Chrome trace-event JSON:
/// {"traceEvents": [...], "displayTimeUnit": "ms"}. Every thread gets a
/// thread_name metadata record, timestamps are microseconds relative to
/// StartTraceEvents, and B/E events are balanced per thread (unmatched
/// halves of ring-truncated spans are dropped).
std::string ExportChromeTrace();

/// Writes ExportChromeTrace() to `path`. Returns false if the file cannot
/// be opened or written.
bool WriteChromeTrace(const std::string& path);

/// RAII trace span: on destruction the elapsed wall time is added to the
/// process-wide trace profile under `region`, and — when a histogram handle
/// is supplied — also observed (in nanoseconds) into that metric, making the
/// stage latency distribution available to the exporters. While event
/// capture is on (StartTraceEvents), the span additionally buffers a B/E
/// event pair on its thread's ring. The region string must outlive the span
/// (string literals in practice). Overhead is two clock reads plus one
/// uncontended per-thread map update per span exit, cheap enough for per-op
/// instrumentation (the nn autograd ops are spanned), but still: prefer
/// phases over inner loops.
///
///   {
///     obs::Span span("stpt/pattern_recognition", StageNsHistogram());
///     ...  // phase body
///   }
///
/// A request span also names a `stage` and a `lane` (see obs/trace_context.h).
/// When the thread's active TraceContext is sampled, it becomes that
/// context's child, with id ChildSpanId(parent span id, stage), and is the
/// active context until it ends; on exit it goes into TraceStore::Global()
/// with the attributes set by Attr. Otherwise it is a plain span, and Attr
/// builds nothing.
///
///   obs::Span span("ingest/apply", kStageApply, "ingest");
///   ...
///   span.Attr("epoch", ack.epoch);
class Span {
 public:
  explicit Span(const char* region, Histogram* latency_ns = nullptr)
      : region_(region), latency_ns_(latency_ns), start_ns_(NowNanos()) {
    if (TraceEventsEnabled()) {
      traced_ = true;
      internal::SpanBegin(region_, start_ns_);
    }
  }

  Span(const char* region, uint64_t stage, const char* lane,
       Histogram* latency_ns = nullptr);

  ~Span() {
    const uint64_t end_ns = NowNanos();
    const uint64_t ns = end_ns - start_ns_;
    RecordRegion(region_, ns);
    if (latency_ns_ != nullptr) latency_ns_->Observe(static_cast<double>(ns));
    if (traced_) internal::SpanEnd(region_, end_ns);
    if (request_ != nullptr) EndRequest(end_ns);
  }

  /// Attaches a key/value attribute to the stored request span, in call
  /// order. No-op unless the span is sampled.
  void Attr(const char* key, const std::string& value) {
    if (request_ != nullptr) AddAttr(key, value);
  }
  void Attr(const char* key, uint64_t value) {
    if (request_ != nullptr) AddAttr(key, std::to_string(value));
  }

  /// When the span opened, on the NowNanos clock.
  uint64_t start_ns() const { return start_ns_; }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void AddAttr(const char* key, std::string value);
  void EndRequest(uint64_t end_ns);

  const char* region_;
  Histogram* latency_ns_;
  uint64_t start_ns_;
  internal::RequestSpan* request_ = nullptr;  ///< set only when sampled
  bool traced_ = false;
};

}  // namespace stpt::obs

#endif  // STPT_OBS_TRACE_H_
