#ifndef STPT_DP_MECHANISMS_H_
#define STPT_DP_MECHANISMS_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace stpt::dp {

/// The Laplace mechanism (Dwork et al., 2006).
///
/// Adds zero-mean Laplace noise with scale sensitivity/epsilon to a
/// real-valued query answer, achieving epsilon-DP for queries with the given
/// L1 sensitivity (paper Eq. 4).
class LaplaceMechanism {
 public:
  /// Creates a mechanism. Returns InvalidArgument if epsilon or sensitivity
  /// is non-positive.
  static StatusOr<LaplaceMechanism> Create(double epsilon, double sensitivity);

  /// Returns value + Lap(sensitivity/epsilon).
  double AddNoise(double value, Rng& rng) const;

  /// The Laplace scale b = sensitivity / epsilon.
  double scale() const { return scale_; }
  double epsilon() const { return epsilon_; }
  double sensitivity() const { return sensitivity_; }

  /// Variance of the injected noise: 2 b^2.
  double NoiseVariance() const { return 2.0 * scale_ * scale_; }

 private:
  LaplaceMechanism(double epsilon, double sensitivity)
      : epsilon_(epsilon), sensitivity_(sensitivity), scale_(sensitivity / epsilon) {}

  double epsilon_;
  double sensitivity_;
  double scale_;
};

/// Clips a value into [0, bound]; used to enforce the per-reading
/// sensitivity-clipping factor of Table 2 before any DP release.
double ClipReading(double value, double bound);

/// Clips a whole series in place and reports how many readings were clipped.
size_t ClipSeries(std::vector<double>* series, double bound);

}  // namespace stpt::dp

#endif  // STPT_DP_MECHANISMS_H_
