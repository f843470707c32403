#include "dp/mechanisms.h"

#include <cassert>

#include "obs/metrics.h"

namespace stpt::dp {
namespace {

/// Noise-draw counter (process-wide registry), resolved once. Draw counts
/// are an auditing aid: each draw corresponds to one mechanism invocation
/// against the data, so the counter doubles as a sanity check on the budget
/// accounting.
obs::Counter& LaplaceDraws() {
  static obs::Counter* c = obs::Registry::Global().GetCounter(
      "stpt_dp_laplace_draws_total", "Laplace noise samples drawn");
  return *c;
}

}  // namespace

StatusOr<LaplaceMechanism> LaplaceMechanism::Create(double epsilon, double sensitivity) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("LaplaceMechanism: epsilon must be > 0");
  }
  if (!(sensitivity > 0.0)) {
    return Status::InvalidArgument("LaplaceMechanism: sensitivity must be > 0");
  }
  return LaplaceMechanism(epsilon, sensitivity);
}

double LaplaceMechanism::AddNoise(double value, Rng& rng) const {
  LaplaceDraws().Increment();
  return value + rng.Laplace(scale_);
}

double ClipReading(double value, double bound) {
  assert(bound > 0.0);
  if (value < 0.0) return 0.0;
  if (value > bound) return bound;
  return value;
}

size_t ClipSeries(std::vector<double>* series, double bound) {
  size_t clipped = 0;
  for (double& v : *series) {
    const double c = ClipReading(v, bound);
    if (c != v) ++clipped;
    v = c;
  }
  return clipped;
}

}  // namespace stpt::dp
