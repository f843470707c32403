#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace stpt::obs {
namespace {

struct Accumulator {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
};

struct TraceEvent {
  const char* name = nullptr;
  uint64_t ts_ns = 0;
  double value = 0.0;  // counter samples only
  char phase = 0;      // 'B', 'E', 'C'
};

constexpr int kMaxSpanDepth = 64;

/// All trace state owned by one thread. The per-thread mutex is only ever
/// contended by snapshot/export readers; the owning thread's hot path takes
/// it uncontended. The span-name stack is owner-private (no lock).
struct ThreadState {
  std::mutex mu;
  // Keyed by pointer: regions are string literals, and TraceProfile()
  // re-merges by string value, so distinct addresses of one name are fine.
  std::unordered_map<const char*, Accumulator> profile;
  std::vector<TraceEvent> events;  // ring; empty until first event
  size_t head = 0;                 // next write slot
  size_t count = 0;                // valid events, <= events.size()
  uint64_t tid = 0;
  std::string name;
  bool retired = false;  // owning thread has exited

  const char* span_stack[kMaxSpanDepth];
  int span_depth = 0;
};

std::mutex g_registry_mu;  // ordering: registry mutex before any state mutex

std::vector<std::shared_ptr<ThreadState>>& StateRegistry() {
  static auto* states = new std::vector<std::shared_ptr<ThreadState>>();
  return *states;
}

/// Profile entries of threads that have exited, merged at thread exit so
/// TraceProfile() stays complete without keeping every state alive forever.
std::map<std::string, Accumulator>& RetiredProfile() {
  static auto* profile = new std::map<std::string, Accumulator>();
  return *profile;
}

uint64_t g_next_tid = 0;                   // under g_registry_mu
std::atomic<size_t> g_event_capacity{0};   // per-thread ring size
std::atomic<uint64_t> g_trace_epoch_ns{0};  // ts origin for exports

/// Drops retired states that hold no events (their profile is already in
/// RetiredProfile()). Caller holds g_registry_mu.
void PruneRetiredLocked() {
  auto& states = StateRegistry();
  states.erase(std::remove_if(states.begin(), states.end(),
                              [](const std::shared_ptr<ThreadState>& s) {
                                std::lock_guard<std::mutex> lock(s->mu);
                                return s->retired && s->count == 0;
                              }),
               states.end());
}

struct TlsHandle {
  std::shared_ptr<ThreadState> state;

  ~TlsHandle() {
    if (state == nullptr) return;
    std::lock_guard<std::mutex> registry_lock(g_registry_mu);
    {
      std::lock_guard<std::mutex> lock(state->mu);
      for (const auto& [region, acc] : state->profile) {
        Accumulator& merged = RetiredProfile()[region];
        merged.calls += acc.calls;
        merged.total_ns += acc.total_ns;
      }
      state->profile.clear();
      state->retired = true;  // events stay exportable via StateRegistry
    }
    PruneRetiredLocked();
  }
};

ThreadState& Tls() {
  thread_local TlsHandle handle;
  if (handle.state == nullptr) {
    handle.state = std::make_shared<ThreadState>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    handle.state->tid = g_next_tid++;
    StateRegistry().push_back(handle.state);
  }
  return *handle.state;
}

void PushEvent(ThreadState& state, char phase, const char* name, uint64_t ts_ns,
               double value) {
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.events.empty()) {
    const size_t capacity = g_event_capacity.load(std::memory_order_relaxed);
    if (capacity == 0) return;  // capture stopped before this thread's ring grew
    state.events.resize(capacity);
    state.head = 0;
    state.count = 0;
  }
  state.events[state.head] = TraceEvent{name, ts_ns, value, phase};
  state.head = (state.head + 1) % state.events.size();
  if (state.count < state.events.size()) ++state.count;
}

/// One thread's snapshot for export: events in chronological order.
struct ThreadSnapshot {
  uint64_t tid = 0;
  std::string name;
  std::vector<TraceEvent> events;
};

/// Drops the unmatched halves of spans the ring truncated: a stack pass
/// keeps only B/E pairs that nest properly with matching names, so the
/// export is always loadable and golden-testable as balanced.
void BalanceEvents(ThreadSnapshot& snap) {
  std::vector<char> keep(snap.events.size(), 0);
  std::vector<size_t> open;  // indices of pending 'B' events
  for (size_t i = 0; i < snap.events.size(); ++i) {
    const TraceEvent& e = snap.events[i];
    if (e.phase == 'C') {
      keep[i] = 1;
    } else if (e.phase == 'B') {
      open.push_back(i);
    } else if (e.phase == 'E' && !open.empty() &&
               std::strcmp(snap.events[open.back()].name, e.name) == 0) {
      keep[open.back()] = 1;
      keep[i] = 1;
      open.pop_back();
    }
  }
  std::vector<TraceEvent> balanced;
  balanced.reserve(snap.events.size());
  for (size_t i = 0; i < snap.events.size(); ++i) {
    if (keep[i]) balanced.push_back(snap.events[i]);
  }
  snap.events = std::move(balanced);
}

std::vector<ThreadSnapshot> SnapshotEvents() {
  std::vector<ThreadSnapshot> snaps;
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (const auto& state : StateRegistry()) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->count == 0) continue;
    ThreadSnapshot snap;
    snap.tid = state->tid;
    snap.name = state->name;
    snap.events.reserve(state->count);
    const size_t size = state->events.size();
    const size_t oldest = state->count == size ? state->head : 0;
    for (size_t i = 0; i < state->count; ++i) {
      snap.events.push_back(state->events[(oldest + i) % size]);
    }
    snaps.push_back(std::move(snap));
  }
  return snaps;
}

}  // namespace

namespace internal {

std::atomic<bool> g_trace_events_enabled{false};

void SpanBegin(const char* region, uint64_t ts_ns) {
  ThreadState& state = Tls();
  if (state.span_depth < kMaxSpanDepth) state.span_stack[state.span_depth] = region;
  ++state.span_depth;
  PushEvent(state, 'B', region, ts_ns, 0.0);
}

void SpanEnd(const char* region, uint64_t ts_ns) {
  ThreadState& state = Tls();
  if (state.span_depth > 0) --state.span_depth;
  // Emit even if capture stopped mid-span; export-time balancing drops the
  // pair if its 'B' was never buffered.
  PushEvent(state, 'E', region, ts_ns, 0.0);
}

}  // namespace internal

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RecordRegion(const char* region, uint64_t ns) {
  ThreadState& state = Tls();
  std::lock_guard<std::mutex> lock(state.mu);
  Accumulator& acc = state.profile[region];
  ++acc.calls;
  acc.total_ns += ns;
}

std::vector<RegionEntry> TraceProfile() {
  std::map<std::string, Accumulator> merged;
  {
    std::lock_guard<std::mutex> registry_lock(g_registry_mu);
    merged = RetiredProfile();
    for (const auto& state : StateRegistry()) {
      std::lock_guard<std::mutex> lock(state->mu);
      for (const auto& [region, acc] : state->profile) {
        Accumulator& m = merged[region];
        m.calls += acc.calls;
        m.total_ns += acc.total_ns;
      }
    }
  }
  std::vector<RegionEntry> out;
  out.reserve(merged.size());
  for (const auto& [name, acc] : merged) {
    out.push_back({name, acc.calls, acc.total_ns});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RegionEntry& a, const RegionEntry& b) {
                     return a.total_ns > b.total_ns;
                   });
  return out;
}

void ResetTrace() {
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  RetiredProfile().clear();
  for (const auto& state : StateRegistry()) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->profile.clear();
  }
  PruneRetiredLocked();
}

std::string TraceProfileJson(size_t top_n) {
  std::vector<RegionEntry> profile = TraceProfile();
  if (top_n > 0 && profile.size() > top_n) profile.resize(top_n);
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& e : profile) {
    if (!first) os << ", ";
    first = false;
    const uint64_t mean_ns = e.calls == 0 ? 0 : e.total_ns / e.calls;
    os << "{\"region\": \"" << JsonEscape(e.region)
       << "\", \"calls\": " << e.calls << ", \"total_ns\": " << e.total_ns
       << ", \"mean_ns\": " << mean_ns << "}";
  }
  os << "]";
  return os.str();
}

void StartTraceEvents(size_t per_thread_capacity) {
  if (per_thread_capacity == 0) per_thread_capacity = 1;
  {
    std::lock_guard<std::mutex> registry_lock(g_registry_mu);
    g_event_capacity.store(per_thread_capacity, std::memory_order_relaxed);
    for (const auto& state : StateRegistry()) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->events.clear();
      state->head = 0;
      state->count = 0;
    }
    PruneRetiredLocked();
    g_trace_epoch_ns.store(NowNanos(), std::memory_order_relaxed);
  }
  internal::g_trace_events_enabled.store(true, std::memory_order_release);
}

void StopTraceEvents() {
  internal::g_trace_events_enabled.store(false, std::memory_order_release);
}

void EmitTraceEvent(char phase, const char* name, uint64_t ts_ns) {
  if (!TraceEventsEnabled()) return;
  PushEvent(Tls(), phase, name, ts_ns, 0.0);
}

void TraceCounter(const char* name, double value) {
  if (!TraceEventsEnabled()) return;
  PushEvent(Tls(), 'C', name, NowNanos(), value);
}

void RegisterCurrentThreadName(const std::string& name) {
  ThreadState& state = Tls();
  std::lock_guard<std::mutex> lock(state.mu);
  state.name = name;
}

const char* CurrentSpanName() {
  ThreadState& state = Tls();
  if (state.span_depth <= 0 || state.span_depth > kMaxSpanDepth) return nullptr;
  return state.span_stack[state.span_depth - 1];
}

size_t TraceEventCount() {
  size_t total = 0;
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (const auto& state : StateRegistry()) {
    std::lock_guard<std::mutex> lock(state->mu);
    total += state->count;
  }
  return total;
}

std::string ExportChromeTrace() {
  std::vector<ThreadSnapshot> snaps = SnapshotEvents();
  const uint64_t epoch_ns = g_trace_epoch_ns.load(std::memory_order_relaxed);

  // Flatten to (snapshot index, event) and sort by timestamp; stable so each
  // thread's B-before-E order survives equal timestamps.
  struct Flat {
    size_t snap;
    const TraceEvent* event;
  };
  std::vector<Flat> flat;
  for (size_t s = 0; s < snaps.size(); ++s) {
    BalanceEvents(snaps[s]);
    for (const TraceEvent& e : snaps[s].events) flat.push_back({s, &e});
  }
  std::stable_sort(flat.begin(), flat.end(), [](const Flat& a, const Flat& b) {
    return a.event->ts_ns < b.event->ts_ns;
  });

  std::ostringstream os;
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const ThreadSnapshot& snap : snaps) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " << snap.tid
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \"";
    if (snap.name.empty()) {
      os << "thread-" << snap.tid;
    } else {
      os << JsonEscape(snap.name);
    }
    os << "\"}}";
  }
  char ts_buf[32];
  for (const Flat& f : flat) {
    const TraceEvent& e = *f.event;
    const uint64_t rel_ns = e.ts_ns >= epoch_ns ? e.ts_ns - epoch_ns : 0;
    std::snprintf(ts_buf, sizeof(ts_buf), "%.3f",
                  static_cast<double>(rel_ns) * 1e-3);
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\": \"" << e.phase << "\", \"pid\": 1, \"tid\": "
       << snaps[f.snap].tid << ", \"ts\": " << ts_buf << ", \"name\": \""
       << JsonEscape(e.name) << "\", \"cat\": \"stpt\"";
    if (e.phase == 'C') {
      char value_buf[64];
      // Non-finite samples would make the JSON unloadable.
      std::snprintf(value_buf, sizeof(value_buf), "%.17g",
                    std::isfinite(e.value) ? e.value : 0.0);
      os << ", \"args\": {\"value\": " << value_buf << "}";
    }
    os << "}";
  }

  // Splice the completed-span store (sampled request traces) in as its own
  // process: one synthetic lane per span origin ("client", "loop", "worker",
  // "ingest", ...) with 'X' complete events, plus flow events binding each
  // trace's spans together so Perfetto draws cross-lane/cross-process arrows.
  const std::vector<TraceSpan> stored = TraceStore::Global().Snapshot();
  if (!stored.empty()) {
    constexpr int kStorePid = 2;
    std::map<std::string, int> lane_tids;
    for (const TraceSpan& s : stored) {
      lane_tids.emplace(s.lane, static_cast<int>(lane_tids.size()) + 1);
    }
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\": \"M\", \"pid\": " << kStorePid
       << ", \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": "
          "\"sampled requests\"}}";
    for (const auto& [lane, tid] : lane_tids) {
      os << ",\n{\"ph\": \"M\", \"pid\": " << kStorePid << ", \"tid\": " << tid
         << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
         << JsonEscape(lane) << "\"}}";
    }
    std::map<std::pair<uint64_t, uint64_t>, size_t> spans_seen;
    for (const TraceSpan& s : stored) {
      const int tid = lane_tids[s.lane];
      const uint64_t start_rel = s.start_ns >= epoch_ns ? s.start_ns - epoch_ns : 0;
      const uint64_t end_rel = s.end_ns >= epoch_ns ? s.end_ns - epoch_ns : 0;
      const uint64_t dur_ns = end_rel >= start_rel ? end_rel - start_rel : 0;
      char start_buf[32], dur_buf[32];
      std::snprintf(start_buf, sizeof(start_buf), "%.3f",
                    static_cast<double>(start_rel) * 1e-3);
      std::snprintf(dur_buf, sizeof(dur_buf), "%.3f",
                    static_cast<double>(dur_ns) * 1e-3);
      TraceContext id{s.trace_hi, s.trace_lo, 0, 0, false};
      os << ",\n{\"ph\": \"X\", \"pid\": " << kStorePid << ", \"tid\": " << tid
         << ", \"ts\": " << start_buf << ", \"dur\": " << dur_buf
         << ", \"name\": \"" << JsonEscape(s.name)
         << "\", \"cat\": \"stpt.trace\", \"args\": {\"trace_id\": \""
         << TraceIdHex(id) << "\", \"span_id\": \"" << SpanIdHex(s.span_id)
         << "\", \"parent_span_id\": \"" << SpanIdHex(s.parent_span_id) << "\"";
      for (const auto& [k, v] : s.attrs) {
        os << ", \"" << JsonEscape(k) << "\": \"" << JsonEscape(v) << "\"";
      }
      os << "}}";
      // Flow: start on the trace's first stored span, step on every later
      // one; matching ids stitch the arrows.
      const size_t seen = spans_seen[{s.trace_hi, s.trace_lo}]++;
      os << ",\n{\"ph\": \"" << (seen == 0 ? 's' : 'f') << "\", \"pid\": "
         << kStorePid << ", \"tid\": " << tid << ", \"ts\": " << start_buf
         << ", \"name\": \"request\", \"cat\": \"stpt.flow\", \"id\": \""
         << TraceIdHex(id) << "\"";
      if (seen != 0) os << ", \"bp\": \"e\"";
      os << "}";
    }
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return os.str();
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::string json = ExportChromeTrace();
  const bool ok = std::fwrite(json.data(), 1, json.size(), out) == json.size();
  return std::fclose(out) == 0 && ok;
}

}  // namespace stpt::obs
