// batch_release: the paper's Algorithm 1 (Stpt::Publish) run in-process on a
// CER digital twin, with the release's accuracy (MRE, Eq. 5) on the §5.1
// random query workload.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>

#include "common/rng.h"
#include "core/stpt.h"
#include "datagen/dataset.h"
#include "exec/timing.h"
#include "kernels/backend.h"
#include "obs/metrics.h"
#include "query/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace stpt;

constexpr int kHouseholds = 5000;
constexpr int kDays = 220;
constexpr int kTTrain = 100;
// Training epochs per predictor: a quarter of the paper's 20, so that
// several releases fit in one run. Every stage still runs; training, which
// dominates, shrinks in proportion.
constexpr int kTrainEpochs = 5;
constexpr int kMreQueries = 10000;
constexpr size_t kMinReleases = 3;

/// Delegating kernel backend that counts and times the MatMul family, so
/// the traced pass can attribute nn cost without touching nn code.
class CountingBackend final : public kernels::Backend {
 public:
  explicit CountingBackend(const kernels::Backend* inner) : inner_(inner) {}
  const std::string& name() const override { return inner_->name(); }
  void MatMulFwd(const double* a, const double* b, double* c,
                 const kernels::MatMulShape& s) const override {
    const uint64_t t0 = NowNs();
    inner_->MatMulFwd(a, b, c, s);
    Count(fwd_, t0, s);
  }
  void MatMulBwdA(const double* g, const double* b, double* ga,
                  const kernels::MatMulShape& s) const override {
    const uint64_t t0 = NowNs();
    inner_->MatMulBwdA(g, b, ga, s);
    Count(bwd_, t0, s);
  }
  void MatMulBwdB(const double* g, const double* a, double* gb,
                  const kernels::MatMulShape& s) const override {
    const uint64_t t0 = NowNs();
    inner_->MatMulBwdB(g, a, gb, s);
    Count(bwd_, t0, s);
  }
  Status FftPow2(std::complex<double>* data, size_t n, bool inverse) const override {
    return inner_->FftPow2(data, n, inverse);
  }
  void HaarLevelFwd(const double* in, double* out, size_t half) const override {
    inner_->HaarLevelFwd(in, out, half);
  }
  void HaarLevelInv(const double* in, double* out, size_t half) const override {
    inner_->HaarLevelInv(in, out, half);
  }
  void ScanT(const double* src, double* dst, int64_t pillars, int ct,
             int t_lo) const override {
    inner_->ScanT(src, dst, pillars, ct, t_lo);
  }
  void ScanY(const double* src, double* dst, int cx, int cy, int ct,
             int t_lo) const override {
    inner_->ScanY(src, dst, cx, cy, ct, t_lo);
  }
  void ScanX(const double* src, double* dst, int cx, int cy, int ct,
             int t_lo) const override {
    inner_->ScanX(src, dst, cx, cy, ct, t_lo);
  }
  void LaplaceBatch(const double* in, double* out, size_t n, double scale,
                    const Rng& base) const override {
    inner_->LaplaceBatch(in, out, n, scale, base);
  }
  void GeometricBatch(const int64_t* in, int64_t* out, size_t n, double alpha,
                      const Rng& base) const override {
    inner_->GeometricBatch(in, out, n, alpha, base);
  }

  struct Tally {
    std::atomic<uint64_t> calls{0}, ns{0}, flops{0};
  };
  const Tally& fwd() const { return fwd_; }
  const Tally& bwd() const { return bwd_; }

 private:
  static void Count(Tally& t, uint64_t t0, const kernels::MatMulShape& s) {
    t.ns += NowNs() - t0;
    t.calls += 1;
    t.flops += static_cast<uint64_t>(2 * s.flops());  // multiply + add
  }
  const kernels::Backend* inner_;
  mutable Tally fwd_, bwd_;
};

/// User + system CPU time of every thread of this process, in seconds.
double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double PeakRssSelfMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

std::map<std::string, obs::RegionEntry> Profile() {
  std::map<std::string, obs::RegionEntry> out;
  for (const obs::RegionEntry& e : obs::TraceProfile()) out[e.region] = e;
  return out;
}

double RegionDeltaNs(const std::map<std::string, obs::RegionEntry>& a,
                     const std::map<std::string, obs::RegionEntry>& b,
                     const std::string& name) {
  const auto ib = b.find(name);
  if (ib == b.end()) return 0.0;
  const auto ia = a.find(name);
  return static_cast<double>(ib->second.total_ns -
                             (ia == a.end() ? 0 : ia->second.total_ns));
}

double CounterValue(const char* name) {
  return static_cast<double>(obs::Registry::Global().GetCounter(name, "")->Value());
}

struct Inputs {
  grid::ConsumptionMatrix cons;
  grid::PrefixSum3D truth{grid::ConsumptionMatrix()};
  query::Workload mre_workload;
};

}  // namespace

void RunBatchRelease(const Args& args, Report& report) {
  const std::string wl = "batch_release";
  const datagen::DatasetSpec spec = datagen::CerSpec();
  const double unit = datagen::UnitSensitivity(spec, 24);
  // Set-up: generate the twin and aggregate it into day slices; repeated
  // three times (cold each time) for a stable median.
  std::vector<double> setup_times;
  Inputs in;
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t t0 = NowNs();
    Rng rng(args.seed);
    datagen::GenerateOptions opt;
    opt.hours = kDays * 24;
    auto ds = datagen::GenerateDataset(spec, datagen::SpatialDistribution::kUniform, opt, rng);
    auto cons = datagen::BuildConsumptionMatrix(*ds, 24);
    auto test = core::TestRegion(*cons, kTTrain);
    Inputs fresh;
    fresh.cons = std::move(*cons);
    fresh.truth = grid::PrefixSum3D(*test);
    Rng qrng(args.seed ^ 0x5eed);
    fresh.mre_workload =
        *query::MakeWorkload(query::WorkloadKind::kRandom, test->dims(), kMreQueries, qrng);
    setup_times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    in = std::move(fresh);
  }
  core::StptConfig config;
  config.t_train = kTTrain;
  config.eps_pattern = 10.0;
  config.eps_sanitize = 20.0;
  config.quadtree_depth = 3;  // stpt_cli publish's default
  config.training.epochs = kTrainEpochs;
  const core::Stpt stpt(config);

  struct Release {
    double seconds = 0;
    double cpu_seconds = 0;
    double mre = 0;
    std::vector<double> data;
  };
  const auto publish = [&]() {
    Release r;
    Rng rng(args.seed * 31 + 7);
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t t0 = NowNs();
    auto result = stpt.Publish(in.cons, unit, rng);
    r.seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    r.cpu_seconds = ProcessCpuSeconds() - cpu0;
    if (!result.ok()) {
      report.Check("publish succeeds", false, result.status().ToString());
      return r;
    }
    r.mre = query::MeanRelativeError(in.truth, grid::PrefixSum3D(result->sanitized),
                                     in.mre_workload);
    r.data = result->sanitized.data();
    return r;
  };

  // Releases repeat with the same seed until the run's time is spent, at
  // least kMinReleases. The traced run alternates plain releases with
  // releases under the counting backend, at least kMinReleases of each; the
  // last counting release supplies the per-layer figures.
  std::vector<Release> releases;
  Samples plain_s, counting_s, cpu_s;
  uint64_t failed = 0;
  const uint64_t run_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t start = NowNs();
  std::unique_ptr<CountingBackend> counting;
  const kernels::Backend* active_backend = kernels::Default();
  std::map<std::string, obs::RegionEntry> prof_before, prof_after;
  double dispatched = 0, inline_regions = 0;
  const size_t min_releases = args.trace ? 2 * kMinReleases : kMinReleases;
  while (releases.size() < min_releases || NowNs() - start < run_ns) {
    const bool count = args.trace && releases.size() % 2 == 1;
    if (count) {
      counting = std::make_unique<CountingBackend>(active_backend);
      kernels::SetDefault(counting.get());
      prof_before = Profile();
      dispatched = CounterValue("stpt_exec_regions_dispatched_total");
      inline_regions = CounterValue("stpt_exec_regions_inline_total");
    }
    Release r = publish();
    if (count) {
      prof_after = Profile();
      dispatched = CounterValue("stpt_exec_regions_dispatched_total") - dispatched;
      inline_regions = CounterValue("stpt_exec_regions_inline_total") - inline_regions;
      kernels::SetDefault(active_backend);
    }
    if (r.data.empty()) ++failed;
    (count ? counting_s : plain_s).Add(r.seconds);
    if (!count) cpu_s.Add(r.cpu_seconds);
    releases.push_back(std::move(r));
  }
  bool reproducible = true;
  for (const Release& r : releases) {
    reproducible = reproducible && r.data.size() == releases[0].data.size() &&
                   std::memcmp(r.data.data(), releases[0].data.data(),
                               r.data.size() * sizeof(double)) == 0 &&
                   std::memcmp(&r.mre, &releases[0].mre, sizeof(double)) == 0;
  }
  report.Check("release: repeated publishes are bitwise identical",
               reproducible && !releases[0].data.empty(),
               Fmt("%zu releases, MRE %.17g", releases.size(), releases[0].mre));
  report.Attempted(releases.size());
  report.Failed(failed);

  // Host steal only adds wall time, so the fastest release is the figure.
  const double setup_s = MedianOf(setup_times);
  const double peak = PeakRssSelfMb();
  const double best_s = plain_s.Min();
  const double readings = static_cast<double>(kHouseholds) * kDays * 24;
  const double cpu_us = cpu_s.Pct(50) * 1e6 / readings;
  Named(report, wl, "setup_s", setup_s, "s");
  Named(report, wl, "peak_rss_mb", peak, "MB", "benchmark process VmHWM");
  Named(report, wl, "publish_s", best_s, "s",
        Fmt("fastest of %zu releases (median %.4f s, max %.4f s)", plain_s.size(),
            plain_s.Pct(50), plain_s.Max()));
  Named(report, wl, "publish_cpu_s", cpu_s.Pct(50), "s", "CPU time of all threads, median");
  Named(report, wl, "release_mre_pct", releases[0].mre, "%",
        Fmt("%d random queries, eps=30, t_train=%d, %d training epochs", kMreQueries, kTTrain,
            kTrainEpochs));
  Named(report, wl, "readings_released_per_s", readings / best_s, "1/s",
        Fmt("%d households x %d hours", kHouseholds, kDays * 24));
  if (!args.trace) {
    report.Metric("setup_s", setup_s, "s");
    report.Metric("peak_rss_mb", peak, "MB");
    report.Metric("cpu_us_per_op", cpu_us, "us");
    report.Metric("throughput_per_s", readings / best_s, "1/s");
    report.Metric("latency_p50_ms", best_s * 1e3, "ms");
    return;
  }
  // No TraceContext reaches an in-process release: the overhead here is the
  // counting backend's, fastest counted release against fastest plain one.
  report.Metric("obs.trace_overhead_pct", 100.0 * (counting_s.Min() / best_s - 1.0), "%");
  report.Info(Fmt("%s overhead base: counting-backend overhead, fastest of %zu counted releases "
                  "%.4f s vs fastest of %zu plain releases %.4f s",
                  wl.c_str(), counting_s.size(), counting_s.Min(), plain_s.size(), best_s));
  report.Metric("stpt.pattern_recognition_s",
                RegionDeltaNs(prof_before, prof_after, "stpt/pattern_recognition") * 1e-9, "s");
  report.Metric("stpt.partition_ms",
                RegionDeltaNs(prof_before, prof_after, "stpt/partition") * 1e-6, "ms");
  report.Metric("stpt.budget_allocation_ms",
                RegionDeltaNs(prof_before, prof_after, "stpt/budget_allocation") * 1e-6, "ms");
  report.Metric("stpt.sanitize_ms",
                RegionDeltaNs(prof_before, prof_after, "stpt/sanitize") * 1e-6, "ms");
  report.Metric("nn.train_s", RegionDeltaNs(prof_before, prof_after, "nn/train") * 1e-9, "s");
  const auto& fwd = counting->fwd();
  const auto& bwd = counting->bwd();
  report.Metric("nn.matmul_calls", static_cast<double>(fwd.calls + bwd.calls), "count");
  report.Metric("nn.matmul_fwd_us_per_call",
                fwd.calls ? static_cast<double>(fwd.ns) * 1e-3 / static_cast<double>(fwd.calls) : 0,
                "us");
  report.Metric("nn.matmul_bwd_us_per_call",
                bwd.calls ? static_cast<double>(bwd.ns) * 1e-3 / static_cast<double>(bwd.calls) : 0,
                "us");
  report.Metric("kernels.matmul_flops", static_cast<double>(fwd.flops + bwd.flops), "count");
  report.Metric("exec.dispatched_regions", dispatched, "count");
  report.Metric("exec.inline_regions", inline_regions, "count");
}

}  // namespace perfbench
