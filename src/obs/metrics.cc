#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/trace_context.h"

namespace stpt::obs {
namespace {

bool ValidName(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_')) {
    return false;
  }
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) return false;
  }
  return true;
}

/// Shortest-clean rendering: integral values print without an exponent or
/// trailing digits ("42"), everything else gets full round-trip precision.
std::string FormatDouble(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string PromEscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string JsonEscape(std::string_view text) {
  constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xF];
    } else {
      out += c;
    }
  }
  return out;
}

std::string FormatMetricValue(double v) { return FormatDouble(v); }

/// The OpenMetrics exemplar suffix appended to a `_bucket` line (without the
/// leading space): `# {trace_id="..."} value ts_seconds`.
std::string ExemplarSuffix(const HistogramExemplar& ex) {
  std::ostringstream os;
  os << "# {trace_id=\"" << TraceIdHex({ex.trace_hi, ex.trace_lo})
     << "\"} " << FormatDouble(ex.value) << " "
     << FormatDouble(static_cast<double>(ex.ts_ns) * 1e-9);
  return os.str();
}

void Gauge::Add(double delta) {
  uint64_t old = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(old, Pack(Unpack(old) + delta),
                                      std::memory_order_relaxed)) {
  }
}

uint64_t Gauge::Pack(double v) { return std::bit_cast<uint64_t>(v); }
double Gauge::Unpack(uint64_t bits) { return std::bit_cast<double>(bits); }

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]{}) {}

size_t Histogram::BucketIndex(double value) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<size_t>(it - bounds_.begin());  // == size: overflow
}

void Histogram::Observe(double value) {
  const size_t idx = BucketIndex(value);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      old, std::bit_cast<uint64_t>(std::bit_cast<double>(old) + value),
      std::memory_order_relaxed)) {
  }
}

void Histogram::ObserveWithExemplar(double value, uint64_t trace_hi,
                                    uint64_t trace_lo, uint64_t ts_ns) {
  Observe(value);
  if ((trace_hi | trace_lo) == 0) return;
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  if (exemplars_.empty()) exemplars_.resize(bounds_.size() + 1);
  HistogramExemplar& ex = exemplars_[BucketIndex(value)];
  ex.trace_hi = trace_hi;
  ex.trace_lo = trace_lo;
  ex.value = value;
  ex.ts_ns = ts_ns;
  ex.set = true;
}

std::vector<HistogramExemplar> Histogram::Exemplars() const {
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  return exemplars_;
}

double Histogram::Sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen > rank) {
      return i < bounds_.size() ? bounds_[i] : bounds_.back();
    }
  }
  return bounds_.back();
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i < bounds_.size() + 1; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  exemplars_.clear();
}

std::vector<double> ExponentialBuckets(double start, double factor, int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(std::max(count, 0)));
  double b = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

const std::vector<double>& LatencyBucketsNs() {
  static const std::vector<double> kBuckets = ExponentialBuckets(1.0, 2.0, 33);
  return kBuckets;
}

Registry& Registry::Global() {
  static auto* registry = new Registry();
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name, const std::string& help) {
  if (!ValidName(name)) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    return it->second.kind == Kind::kCounter ? it->second.counter.get() : nullptr;
  }
  Metric m;
  m.kind = Kind::kCounter;
  m.help = help;
  m.counter.reset(new Counter());
  return metrics_.emplace(name, std::move(m)).first->second.counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help) {
  if (!ValidName(name)) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    return it->second.kind == Kind::kGauge ? it->second.gauge.get() : nullptr;
  }
  Metric m;
  m.kind = Kind::kGauge;
  m.help = help;
  m.gauge.reset(new Gauge());
  return metrics_.emplace(name, std::move(m)).first->second.gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name, const std::string& help,
                                  std::vector<double> bounds) {
  if (!ValidName(name)) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    return it->second.kind == Kind::kHistogram ? it->second.histogram.get() : nullptr;
  }
  if (bounds.empty()) return nullptr;
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (!std::isfinite(bounds[i])) return nullptr;
    if (i > 0 && !(bounds[i] > bounds[i - 1])) return nullptr;
  }
  Metric m;
  m.kind = Kind::kHistogram;
  m.help = help;
  m.histogram.reset(new Histogram(std::move(bounds)));
  return metrics_.emplace(name, std::move(m)).first->second.histogram.get();
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, m] : metrics_) {
    switch (m.kind) {
      case Kind::kCounter: m.counter->Reset(); break;
      case Kind::kGauge: m.gauge->Reset(); break;
      case Kind::kHistogram: m.histogram->Reset(); break;
    }
  }
}

size_t Registry::NumMetrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

std::string Registry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, m] : metrics_) {
    if (!m.help.empty()) os << "# HELP " << name << " " << m.help << "\n";
    switch (m.kind) {
      case Kind::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << " " << m.counter->Value() << "\n";
        break;
      case Kind::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << FormatDouble(m.gauge->Value()) << "\n";
        break;
      case Kind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        const Histogram& h = *m.histogram;
        const std::vector<uint64_t> counts = h.BucketCounts();
        const std::vector<HistogramExemplar> exemplars = h.Exemplars();
        uint64_t cumulative = 0;
        for (size_t i = 0; i <= h.bounds().size(); ++i) {
          cumulative += counts[i];
          os << name << "_bucket{le=\"";
          if (i < h.bounds().size()) {
            os << FormatDouble(h.bounds()[i]);
          } else {
            os << "+Inf";
          }
          os << "\"} " << cumulative;
          if (i < exemplars.size() && exemplars[i].set) {
            os << " " << ExemplarSuffix(exemplars[i]);
          }
          os << "\n";
        }
        os << name << "_sum " << FormatDouble(h.Sum()) << "\n";
        os << name << "_count " << h.Count() << "\n";
        break;
      }
    }
  }
  return os.str();
}

std::string Registry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream counters, gauges, histograms;
  bool first_c = true, first_g = true, first_h = true;
  for (const auto& [name, m] : metrics_) {
    switch (m.kind) {
      case Kind::kCounter:
        if (!first_c) counters << ", ";
        first_c = false;
        counters << "\"" << name << "\": " << m.counter->Value();
        break;
      case Kind::kGauge:
        if (!first_g) gauges << ", ";
        first_g = false;
        gauges << "\"" << name << "\": " << FormatDouble(m.gauge->Value());
        break;
      case Kind::kHistogram: {
        if (!first_h) histograms << ", ";
        first_h = false;
        const Histogram& h = *m.histogram;
        histograms << "\"" << name << "\": {\"count\": " << h.Count()
                   << ", \"sum\": " << FormatDouble(h.Sum())
                   << ", \"p50\": " << FormatDouble(h.Quantile(0.50))
                   << ", \"p95\": " << FormatDouble(h.Quantile(0.95))
                   << ", \"p99\": " << FormatDouble(h.Quantile(0.99))
                   << ", \"buckets\": [";
        const std::vector<uint64_t> counts = h.BucketCounts();
        for (size_t i = 0; i < counts.size(); ++i) {
          if (i > 0) histograms << ", ";
          histograms << "{\"le\": ";
          if (i < h.bounds().size()) {
            histograms << FormatDouble(h.bounds()[i]);
          } else {
            histograms << "\"+Inf\"";
          }
          histograms << ", \"count\": " << counts[i] << "}";
        }
        histograms << "]";
        const std::vector<HistogramExemplar> exemplars = h.Exemplars();
        bool first_ex = true;
        for (size_t i = 0; i < exemplars.size(); ++i) {
          if (!exemplars[i].set) continue;
          histograms << (first_ex ? ", \"exemplars\": [" : ", ");
          first_ex = false;
          histograms << "{\"le\": ";
          if (i < h.bounds().size()) {
            histograms << FormatDouble(h.bounds()[i]);
          } else {
            histograms << "\"+Inf\"";
          }
          histograms << ", \"trace_id\": \""
                     << TraceIdHex({exemplars[i].trace_hi, exemplars[i].trace_lo})
                     << "\", \"value\": " << FormatDouble(exemplars[i].value)
                     << ", \"ts_ns\": " << exemplars[i].ts_ns << "}";
        }
        if (!first_ex) histograms << "]";
        histograms << "}";
        break;
      }
    }
  }
  std::ostringstream os;
  os << "{\"counters\": {" << counters.str() << "}, \"gauges\": {" << gauges.str()
     << "}, \"histograms\": {" << histograms.str() << "}}";
  return os.str();
}

}  // namespace stpt::obs
