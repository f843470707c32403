#ifndef STPT_OBS_METRICS_H_
#define STPT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace stpt::obs {

/// --- Metric primitives ----------------------------------------------------
///
/// All three metric types are lock-free on the hot path: one relaxed atomic
/// operation per Increment/Set/Observe. Handles are created once through a
/// Registry (which owns the storage) and are stable for the registry's
/// lifetime, so instrumented code resolves a metric by name exactly once and
/// then touches only the returned pointer.
///
/// Naming convention (enforced lexically by the registry):
/// `stpt_<subsystem>_<name>`, snake_case, counters suffixed `_total`,
/// histograms suffixed with their unit (`_ns`). See DESIGN.md §8.

/// Monotonically increasing counter.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class Registry;
  friend class RedFamily;
  Counter() = default;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (e.g. remaining privacy budget).
class Gauge {
 public:
  void Set(double v) { bits_.store(Pack(v), std::memory_order_relaxed); }
  /// Atomic read-modify-write add (CAS loop; rare-path only).
  void Add(double delta);
  double Value() const { return Unpack(bits_.load(std::memory_order_relaxed)); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class Registry;
  Gauge() = default;
  void Reset() { Set(0.0); }

  static uint64_t Pack(double v);
  static double Unpack(uint64_t bits);

  std::atomic<uint64_t> bits_{0};
};

/// The most recent sampled-trace observation a histogram bucket has seen,
/// attached OpenMetrics-style to the bucket's exposition line:
///   `name_bucket{le="..."} N # {trace_id="<32 hex>"} value ts_seconds`
/// so a latency outlier in a scrape links straight to a fetchable trace.
struct HistogramExemplar {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  double value = 0.0;
  uint64_t ts_ns = 0;
  bool set = false;
};

/// Fixed-bucket histogram: `bounds` are strictly increasing finite upper
/// bounds (inclusive, Prometheus `le` semantics); one implicit overflow
/// bucket catches everything above the last bound. Recording is a binary
/// search plus two relaxed atomic adds; quantile reads are linear scans over
/// the bucket counters.
class Histogram {
 public:
  void Observe(double value);

  /// Observe() plus exemplar capture: the chosen bucket remembers this
  /// trace id / value / timestamp, replacing any earlier exemplar. Takes a
  /// mutex — callers only use it on sampled requests, so the hot path stays
  /// the lock-free Observe().
  void ObserveWithExemplar(double value, uint64_t trace_hi, uint64_t trace_lo,
                           uint64_t ts_ns);

  /// Per-bucket exemplars (index bounds().size() is overflow). Empty vector
  /// until the first ObserveWithExemplar.
  std::vector<HistogramExemplar> Exemplars() const;

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;

  /// Upper bound of the bucket containing quantile `q` (clamped to [0, 1]).
  /// Returns 0 when empty. Samples in the overflow bucket report the largest
  /// finite bound (the Prometheus `histogram_quantile` convention), so the
  /// result is always finite.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() is overflow.
  std::vector<uint64_t> BucketCounts() const;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class Registry;
  friend class RedFamily;
  explicit Histogram(std::vector<double> bounds);
  void Reset();
  size_t BucketIndex(double value) const;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  ///< bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  ///< bit-cast double, CAS-accumulated

  mutable std::mutex exemplar_mu_;  ///< sampled-path only; see above
  std::vector<HistogramExemplar> exemplars_;  ///< lazily bounds_.size() + 1
};

/// Power-of-`factor` bucket bounds: start, start*factor, ... (count bounds).
std::vector<double> ExponentialBuckets(double start, double factor, int count);

/// Escapes a Prometheus label value per the exposition format: `\` → `\\`,
/// `"` → `\"`, newline → `\n`. Every exporter that emits `{label="value"}`
/// with a runtime string must route it through here — tenant names are
/// client-controlled.
std::string PromEscapeLabel(const std::string& value);

/// Escapes `text` for a JSON string literal: `"` → `\"`, `\` → `\\`, and
/// every byte below 0x20 → lowercase `\u00xx`. Every other byte (0x7f and
/// UTF-8 included) passes through unchanged. This is the one JSON escaper
/// of the ledger, log, Chrome-export, trace-store, registry and ingest
/// JSON; AuditLedger::ParseJsonl reads back exactly these escapes.
std::string JsonEscape(std::string_view text);

/// Shortest-clean metric value rendering shared by the exporters: integral
/// values print without an exponent, everything else round-trips.
std::string FormatMetricValue(double v);

/// The OpenMetrics exemplar suffix of a `_bucket` exposition line (without
/// the leading space): `# {trace_id="..."} value ts_seconds`.
std::string ExemplarSuffix(const HistogramExemplar& ex);

/// Default latency buckets in nanoseconds: powers of two from 1 ns to ~4 s.
const std::vector<double>& LatencyBucketsNs();

/// --- Registry -------------------------------------------------------------

/// A named collection of metrics. Registration takes a mutex; returned
/// handles are lock-free and valid for the registry's lifetime. Most code
/// uses the process-wide Registry::Global(); components that need isolated
/// counters (e.g. one serve::QueryServer per snapshot) own an instance.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide default registry.
  static Registry& Global();

  /// Returns the counter registered under `name`, creating it on first use.
  /// Returns nullptr if `name` is not a valid metric name ([a-zA-Z_]
  /// followed by [a-zA-Z0-9_]*) or is already registered as another kind.
  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  /// As above; additionally requires at least one strictly increasing finite
  /// bound. Re-registration ignores `bounds` and returns the original.
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds);

  /// Zeroes every metric's value; registrations and handles stay valid.
  void Reset();

  size_t NumMetrics() const;

  /// Prometheus text exposition format (# HELP / # TYPE / samples), metrics
  /// in lexicographic name order. Histograms emit cumulative `_bucket{le=}`
  /// series plus `_sum` and `_count`.
  std::string ToPrometheusText() const;

  /// The same snapshot as a JSON object:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {count, sum, p50, p95, p99, buckets: [...]}}}
  std::string ToJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Metric {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  // std::map keeps exporter output stable and diffable across runs.
  std::map<std::string, Metric> metrics_;
};

}  // namespace stpt::obs

#endif  // STPT_OBS_METRICS_H_
