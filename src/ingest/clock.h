#ifndef STPT_INGEST_CLOCK_H_
#define STPT_INGEST_CLOCK_H_

#include <atomic>
#include <cstdint>

#include "obs/trace.h"

namespace stpt::ingest {

/// Injected time source for wall-tick epoch boundaries. The pipeline never
/// reads ambient time directly: production wires a SystemClock, tests wire a
/// ManualClock and advance it explicitly, so epoch triggers are exactly as
/// deterministic as the reading sequence that drives them.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic nanoseconds. Only differences are meaningful.
  virtual int64_t NowNanos() = 0;
};

/// Production clock: the same steady-clock source all latency measurement
/// uses (obs::NowNanos).
class SystemClock final : public Clock {
 public:
  int64_t NowNanos() override { return static_cast<int64_t>(obs::NowNanos()); }
};

/// Test clock: starts at zero and moves only when told to. Thread-safe so a
/// test can advance it while the pipeline reads it from pool workers.
class ManualClock final : public Clock {
 public:
  int64_t NowNanos() override { return now_.load(std::memory_order_relaxed); }

  void Advance(int64_t ns) { now_.fetch_add(ns, std::memory_order_relaxed); }
  void Set(int64_t ns) { now_.store(ns, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> now_{0};
};

}  // namespace stpt::ingest

#endif  // STPT_INGEST_CLOCK_H_
