#ifndef STPT_OBS_TRACE_CONTEXT_H_
#define STPT_OBS_TRACE_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace stpt {
class Rng;
}

namespace stpt::obs {

/// --- Request-scoped trace context ------------------------------------------
///
/// A TraceContext identifies one logical request (a query batch, a reading
/// batch, an admin verb) across processes: 128-bit trace id, the sender's
/// 64-bit span id, the sender's span start time, and a head-sampling flag.
/// Ids are drawn deterministically from the `stpt::Rng` fork discipline on
/// the client/feeder side (MakeTraceContext), so a seeded workload replays
/// the identical trace ids. The sampling decision is a pure function of the
/// trace id (TraceSampled) — every hop agrees on it without configuration.
///
/// The context travels on the wire as an optional length-delimited trailing
/// field of the addressed frames (see serve/wire.h); absent means untraced,
/// so pre-trace peers and untraced requests keep their exact byte layout.
struct TraceContext {
  uint64_t trace_hi = 0;  ///< high 64 bits of the 128-bit trace id
  uint64_t trace_lo = 0;  ///< low 64 bits
  uint64_t span_id = 0;   ///< the sender's span covering this request
  uint64_t start_ns = 0;  ///< sender span start, obs::NowNanos clock (0 = unknown)
  bool sampled = false;   ///< head-sampling decision, carried to every hop

  /// A context is on/off by its id: zero id = "no trace" (never encoded).
  bool valid() const { return (trace_hi | trace_lo) != 0; }

  bool operator==(const TraceContext&) const = default;
};

/// FNV-1a over raw bytes; shared by the sampling rule and span-id derivation.
uint64_t TraceFnv1a64(const void* data, size_t size);

/// True iff a trace with this id is kept at sampling period `period`
/// (keep iff Fnv1a(trace_id bytes) % period == 0). period 0 = never sampled,
/// period 1 = always.
bool TraceSampled(uint64_t trace_hi, uint64_t trace_lo, uint32_t period);

/// Builds the context for request number `stream` of a workload seeded by
/// `base`: ids come from `base.Fork(stream)` (order-independent, does not
/// advance `base`, and never touches any noise stream), sampling from
/// TraceSampled with `sample_period`. start_ns is left 0 — stamp it at send.
TraceContext MakeTraceContext(const Rng& base, uint64_t stream,
                              uint32_t sample_period);

/// Deterministic child span id: a hash of (parent span id, seq), never zero.
uint64_t ChildSpanId(uint64_t parent_span_id, uint64_t seq);

/// 32 lowercase hex chars (trace id) / 16 hex chars (span id).
std::string TraceIdHex(const TraceContext& ctx);
std::string SpanIdHex(uint64_t span_id);

/// --- Wire field codec -------------------------------------------------------
///
/// Layout of the optional trailing field (appended only when ctx.valid()):
///   u8  len    == 33 (bytes that follow; strict, future versions bump it)
///   u8  flags  bit0 = sampled, other bits must be zero
///   u64 trace_hi, u64 trace_lo, u64 span_id, u64 start_ns   (little-endian)
/// Decoding is strict so the fuzz canonical-re-encode oracle holds: any
/// accepted field re-encodes byte-identically.
inline constexpr size_t kTraceFieldBytes = 34;

/// Appends the field to `out` iff `ctx.valid()`; no-op otherwise.
void AppendTraceField(std::vector<uint8_t>& out, const TraceContext& ctx);

/// Parses exactly `size` bytes as one trace field. Returns false on any
/// malformation (wrong length, unknown flag bits, zero trace id).
bool DecodeTraceField(const uint8_t* data, size_t size, TraceContext* out);

/// --- Thread-local active context --------------------------------------------
///
/// The serving and ingest tiers set the active context for the duration of a
/// request's execution; exec::ParallelFor re-establishes it on worker lanes,
/// so code arbitrarily deep in a traced request (exemplar observation, slow-
/// request logs, registry swap spans) can name its trace without plumbing.
/// Returns nullptr when no context is active or the active one is invalid.
const TraceContext* CurrentTraceContext();

/// RAII: installs `ctx` as the current thread's active context, restoring
/// the previous one (if any) on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
  bool had_prev_;
};

/// --- Completed-span store ---------------------------------------------------

/// One completed span of a sampled request, as stored for later fetch over
/// kTraceRequest. `lane` names where it ran ("client", "loop", "worker",
/// "ingest", ...); attrs are pre-rendered key/value strings (tenant, tile,
/// epoch, ...).
struct TraceSpan {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::string name;
  std::string lane;
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Bounded in-memory store of recently completed sampled spans. Writers
/// (loop thread, exec workers, ingest publishers) Add under a mutex — the
/// path is only taken for sampled requests, so contention is bounded by the
/// sampling period. Oldest spans are evicted once kMaxSpans is reached.
class TraceStore {
 public:
  static constexpr size_t kMaxSpans = 8192;

  /// The process-wide store the serve tier exposes over kTraceRequest.
  static TraceStore& Global();

  TraceStore() = default;
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  void Add(TraceSpan span);
  void Clear();
  size_t span_count() const;

  /// All stored spans, oldest first (for the Chrome-trace flow splice).
  std::vector<TraceSpan> Snapshot() const;

  /// Spans grouped per trace, insertion order:
  ///   {"traces":[{"trace_id":"...","spans":[{name, span_id,
  ///     parent_span_id, lane, start_ns, end_ns, attrs:{...}}, ...]}]}
  /// `max_traces` > 0 keeps only the most recent N traces;
  /// non-empty `trace_id_hex` keeps only the matching trace.
  std::string ToJson(size_t max_traces = 0,
                     const std::string& trace_id_hex = "") const;

 private:
  mutable std::mutex mu_;
  std::deque<TraceSpan> spans_;
};

}  // namespace stpt::obs

#endif  // STPT_OBS_TRACE_CONTEXT_H_
