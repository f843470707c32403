#include "exec/parallel.h"

#include <condition_variable>
#include <exception>
#include <mutex>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace stpt::exec {
namespace {

/// Pool instrumentation, resolved once from the global registry. Counting
/// happens outside the worker tasks so it cannot perturb the deterministic
/// fork-by-index execution order.
obs::Counter& InlineRegions() {
  static obs::Counter* c = obs::Registry::Global().GetCounter(
      "stpt_exec_regions_inline_total",
      "Parallel regions executed inline on the calling thread");
  return *c;
}

obs::Counter& DispatchedRegions() {
  static obs::Counter* c = obs::Registry::Global().GetCounter(
      "stpt_exec_regions_dispatched_total",
      "Parallel regions dispatched to the worker pool");
  return *c;
}

obs::Histogram& RegionNs() {
  static obs::Histogram* h = obs::Registry::Global().GetHistogram(
      "stpt_exec_region_ns", "Wall time of pool-dispatched parallel regions",
      obs::LatencyBucketsNs());
  return *h;
}

/// Synchronisation state for one blocking parallel region.
struct Region {
  std::mutex mu;
  std::condition_variable done_cv;
  int pending = 0;
  std::exception_ptr first_error;

  void Finish(std::exception_ptr err) {
    std::lock_guard<std::mutex> lock(mu);
    if (err && !first_error) first_error = err;
    if (--pending == 0) done_cv.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [this] { return pending == 0; });
    if (first_error) std::rethrow_exception(first_error);
  }
};

}  // namespace

void ParallelForRange(int64_t n,
                      const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  const int threads = Threads();
  if (threads <= 1 || n < kParallelForMinWork || ThreadPool::InWorker()) {
    InlineRegions().Increment();
    fn(0, n);
    return;
  }
  DispatchedRegions().Increment();
  const uint64_t region_start_ns = obs::NowNanos();
  // Chunk label for event tracing: the span enclosing the dispatch (e.g.
  // "stpt/sanitize"), captured once here so workers tag their lanes with the
  // region they execute on behalf of. nullptr when tracing is off — the
  // per-chunk emit below then compiles down to two untaken branches.
  const char* trace_label = nullptr;
  if (obs::TraceEventsEnabled()) {
    trace_label = obs::CurrentSpanName();
    if (trace_label == nullptr) trace_label = "exec/chunk";
  }
  // Same capture-at-dispatch discipline for the request trace context: the
  // dispatching thread's active context is re-established on every worker
  // lane, so code inside the chunks can still name its trace. With none
  // active, the lanes install an invalid context, which reads as none.
  const obs::TraceContext* active_ctx = obs::CurrentTraceContext();
  const obs::TraceContext trace_ctx =
      active_ctx != nullptr ? *active_ctx : obs::TraceContext{};
  const int64_t num_chunks = n < threads ? n : threads;
  const int64_t base = n / num_chunks;
  const int64_t rem = n % num_chunks;

  ThreadPool& pool = GlobalPool();
  Region region;
  region.pending = static_cast<int>(num_chunks);
  int64_t begin = 0;
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t len = base + (c < rem ? 1 : 0);
    const int64_t end = begin + len;
    pool.Submit([&fn, &region, begin, end, trace_label, trace_ctx] {
      // Raw B/E events (not a Span): chunks are already aggregated into
      // stpt_exec_region_ns by the dispatcher, so a Span here would
      // double-count the region in the profile.
      if (trace_label != nullptr) {
        obs::EmitTraceEvent('B', trace_label, obs::NowNanos());
      }
      obs::ScopedTraceContext scoped_ctx(trace_ctx);
      std::exception_ptr err;
      try {
        fn(begin, end);
      } catch (...) {
        err = std::current_exception();
      }
      if (trace_label != nullptr) {
        obs::EmitTraceEvent('E', trace_label, obs::NowNanos());
      }
      region.Finish(err);
    });
    begin = end;
  }
  region.Wait();
  RegionNs().Observe(static_cast<double>(obs::NowNanos() - region_start_ns));
}

void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  ParallelForRange(n, [&fn](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace stpt::exec
