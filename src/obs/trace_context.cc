#include "obs/trace_context.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "common/rng.h"
#include "obs/metrics.h"

namespace stpt::obs {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void PutU64Le(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint64_t GetU64Le(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

std::string HexU64(uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[v & 0xF];
    v >>= 4;
  }
  return out;
}

thread_local TraceContext t_current;

}  // namespace

uint64_t TraceFnv1a64(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = kFnvOffset;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

bool TraceSampled(uint64_t trace_hi, uint64_t trace_lo, uint32_t period) {
  if (period == 0) return false;
  if (period == 1) return true;
  uint8_t id[16];
  for (int i = 0; i < 8; ++i) id[i] = static_cast<uint8_t>(trace_hi >> (8 * i));
  for (int i = 0; i < 8; ++i) {
    id[8 + i] = static_cast<uint8_t>(trace_lo >> (8 * i));
  }
  return TraceFnv1a64(id, sizeof id) % period == 0;
}

TraceContext MakeTraceContext(const Rng& base, uint64_t stream,
                              uint32_t sample_period) {
  Rng child = base.Fork(stream);
  TraceContext ctx;
  ctx.trace_hi = child.NextUint64();
  ctx.trace_lo = child.NextUint64();
  if (!ctx.valid()) ctx.trace_lo = 1;  // zero id means "untraced" on the wire
  ctx.span_id = child.NextUint64();
  if (ctx.span_id == 0) ctx.span_id = 1;
  ctx.sampled = TraceSampled(ctx.trace_hi, ctx.trace_lo, sample_period);
  return ctx;
}

uint64_t ChildSpanId(uint64_t parent_span_id, uint64_t seq) {
  uint8_t buf[16];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<uint8_t>(parent_span_id >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) buf[8 + i] = static_cast<uint8_t>(seq >> (8 * i));
  const uint64_t h = TraceFnv1a64(buf, sizeof buf);
  return h == 0 ? 1 : h;
}

std::string TraceIdHex(const TraceContext& ctx) {
  return HexU64(ctx.trace_hi) + HexU64(ctx.trace_lo);
}

std::string SpanIdHex(uint64_t span_id) { return HexU64(span_id); }

void AppendTraceField(std::vector<uint8_t>& out, const TraceContext& ctx) {
  if (!ctx.valid()) return;
  out.push_back(static_cast<uint8_t>(kTraceFieldBytes - 1));
  out.push_back(ctx.sampled ? 1 : 0);
  PutU64Le(out, ctx.trace_hi);
  PutU64Le(out, ctx.trace_lo);
  PutU64Le(out, ctx.span_id);
  PutU64Le(out, ctx.start_ns);
}

bool DecodeTraceField(const uint8_t* data, size_t size, TraceContext* out) {
  if (size != kTraceFieldBytes) return false;
  if (data[0] != kTraceFieldBytes - 1) return false;
  const uint8_t flags = data[1];
  if ((flags & ~uint8_t{1}) != 0) return false;
  TraceContext ctx;
  ctx.sampled = (flags & 1) != 0;
  ctx.trace_hi = GetU64Le(data + 2);
  ctx.trace_lo = GetU64Le(data + 10);
  ctx.span_id = GetU64Le(data + 18);
  ctx.start_ns = GetU64Le(data + 26);
  if (!ctx.valid()) return false;  // a present field must carry a real id
  *out = ctx;
  return true;
}

const TraceContext* CurrentTraceContext() {
  return t_current.valid() ? &t_current : nullptr;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx)
    : prev_(t_current) {
  t_current = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { t_current = prev_; }

TraceStore& TraceStore::Global() {
  static TraceStore* store = new TraceStore();
  return *store;
}

void TraceStore::Add(TraceSpan span) {
  if ((span.trace_hi | span.trace_lo) == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  while (spans_.size() > kMaxSpans) spans_.pop_front();
}

void TraceStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

size_t TraceStore::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<TraceSpan> TraceStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TraceSpan>(spans_.begin(), spans_.end());
}

std::string TraceStore::ToJson(size_t max_traces,
                               const std::string& trace_id_hex) const {
  const std::vector<TraceSpan> spans = Snapshot();
  // Group by trace id, keeping first-seen order of traces.
  std::vector<std::string> order;
  std::map<std::string, std::vector<const TraceSpan*>> by_trace;
  for (const TraceSpan& s : spans) {
    TraceContext id{s.trace_hi, s.trace_lo, 0, 0, false};
    std::string key = TraceIdHex(id);
    if (!trace_id_hex.empty() && key != trace_id_hex) continue;
    auto [it, inserted] = by_trace.try_emplace(std::move(key));
    if (inserted) order.push_back(it->first);
    it->second.push_back(&s);
  }
  size_t first = 0;
  if (max_traces > 0 && order.size() > max_traces) {
    first = order.size() - max_traces;  // most recent N traces
  }
  std::ostringstream os;
  os << "{\"traces\":[";
  for (size_t i = first; i < order.size(); ++i) {
    if (i != first) os << ',';
    os << "{\"trace_id\":\"" << order[i] << "\",\"spans\":[";
    const auto& list = by_trace[order[i]];
    for (size_t j = 0; j < list.size(); ++j) {
      const TraceSpan& s = *list[j];
      if (j != 0) os << ',';
      os << "{\"name\":\"" << JsonEscape(s.name) << "\",\"span_id\":\""
         << SpanIdHex(s.span_id) << "\",\"parent_span_id\":\""
         << SpanIdHex(s.parent_span_id) << "\",\"lane\":\""
         << JsonEscape(s.lane) << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"attrs\":{";
      for (size_t k = 0; k < s.attrs.size(); ++k) {
        if (k != 0) os << ',';
        os << '"' << JsonEscape(s.attrs[k].first) << "\":\""
           << JsonEscape(s.attrs[k].second) << '"';
      }
      os << "}}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

void RecordSpan(const TraceContext& ctx, uint64_t span_id,
                uint64_t parent_span_id, uint64_t start_ns, uint64_t end_ns,
                const char* name, const char* lane,
                std::vector<std::pair<std::string, std::string>> attrs) {
  if (!ctx.sampled) return;
  TraceStore::Global().Add(TraceSpan{ctx.trace_hi, ctx.trace_lo, span_id,
                                     parent_span_id, start_ns, end_ns, name,
                                     lane, std::move(attrs)});
}

}  // namespace stpt::obs
