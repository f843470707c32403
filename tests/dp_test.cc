#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "dp/budget_accountant.h"
#include "dp/mechanisms.h"
#include "gtest/gtest.h"

namespace stpt::dp {
namespace {

// --------------------------- LaplaceMechanism ---------------------------

TEST(LaplaceMechanismTest, RejectsInvalidParams) {
  EXPECT_FALSE(LaplaceMechanism::Create(0.0, 1.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(-1.0, 1.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(1.0, 0.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(1.0, -2.0).ok());
}

TEST(LaplaceMechanismTest, ScaleIsSensitivityOverEpsilon) {
  auto m = LaplaceMechanism::Create(0.5, 2.0);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->scale(), 4.0);
  EXPECT_DOUBLE_EQ(m->NoiseVariance(), 32.0);
}

TEST(LaplaceMechanismTest, NoiseIsUnbiased) {
  auto m = LaplaceMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(m.ok());
  Rng rng(42);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += m->AddNoise(10.0, rng);
  EXPECT_NEAR(sum / n, 10.0, 0.02);
}

TEST(LaplaceMechanismTest, EmpiricalVarianceMatchesTheory) {
  auto m = LaplaceMechanism::Create(2.0, 3.0);  // b = 1.5, var = 4.5
  ASSERT_TRUE(m.ok());
  Rng rng(43);
  const int n = 200000;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = m->AddNoise(0.0, rng);
    sumsq += d * d;
  }
  EXPECT_NEAR(sumsq / n, m->NoiseVariance(), 0.15);
}

/// Empirical DP check: for the Laplace mechanism on neighbouring answers
/// v and v + sensitivity, the density ratio at any output must be <= e^eps.
/// We histogram both output distributions and compare bucket frequencies.
TEST(LaplaceMechanismTest, EmpiricalPrivacyLossBounded) {
  const double eps = 1.0;
  const double sens = 1.0;
  auto m = LaplaceMechanism::Create(eps, sens);
  ASSERT_TRUE(m.ok());
  Rng rng(45);
  const int n = 400000;
  const int buckets = 40;
  const double lo = -5.0, hi = 6.0;
  std::vector<double> ha(buckets, 0.0), hb(buckets, 0.0);
  for (int i = 0; i < n; ++i) {
    const double a = m->AddNoise(0.0, rng);
    const double b = m->AddNoise(sens, rng);
    auto bucket = [&](double v) {
      return std::clamp(static_cast<int>((v - lo) / (hi - lo) * buckets), 0,
                        buckets - 1);
    };
    ha[bucket(a)] += 1.0;
    hb[bucket(b)] += 1.0;
  }
  // Allow slack for sampling error; the true bound is e^eps ~ 2.718.
  const double bound = std::exp(eps) * 1.25;
  for (int i = 0; i < buckets; ++i) {
    if (ha[i] < 500 || hb[i] < 500) continue;  // skip noisy tail buckets
    EXPECT_LE(ha[i] / hb[i], bound) << "bucket " << i;
    EXPECT_LE(hb[i] / ha[i], bound) << "bucket " << i;
  }
}

// --------------------------- Clipping ---------------------------

TEST(ClippingTest, ClipReadingBounds) {
  EXPECT_EQ(ClipReading(-0.5, 2.0), 0.0);
  EXPECT_EQ(ClipReading(1.0, 2.0), 1.0);
  EXPECT_EQ(ClipReading(5.0, 2.0), 2.0);
}

TEST(ClippingTest, ClipSeriesCountsModifiedReadings) {
  std::vector<double> s = {-1.0, 0.5, 3.0, 2.0};
  EXPECT_EQ(ClipSeries(&s, 2.0), 2u);
  EXPECT_EQ(s, (std::vector<double>{0.0, 0.5, 2.0, 2.0}));
}

// --------------------------- BudgetAccountant ---------------------------

TEST(BudgetAccountantTest, RejectsNonPositiveTotal) {
  EXPECT_FALSE(BudgetAccountant::Create(0.0).ok());
  EXPECT_FALSE(BudgetAccountant::Create(-1.0).ok());
}

TEST(BudgetAccountantTest, SequentialChargesAdd) {
  auto acc = BudgetAccountant::Create(10.0);
  ASSERT_TRUE(acc.ok());
  EXPECT_TRUE(acc->Charge("t0", 3.0).ok());
  EXPECT_TRUE(acc->Charge("t1", 4.0).ok());
  EXPECT_DOUBLE_EQ(acc->ConsumedEpsilon(), 7.0);
  EXPECT_DOUBLE_EQ(acc->RemainingEpsilon(), 3.0);
  EXPECT_EQ(acc->NumGroups(), 2u);
}

TEST(BudgetAccountantTest, ParallelChargesTakeMax) {
  auto acc = BudgetAccountant::Create(10.0);
  ASSERT_TRUE(acc.ok());
  // Disjoint spatial cells within one time slice share a group.
  EXPECT_TRUE(acc->Charge("slice0", 2.0).ok());
  EXPECT_TRUE(acc->Charge("slice0", 3.0).ok());
  EXPECT_TRUE(acc->Charge("slice0", 1.0).ok());
  EXPECT_DOUBLE_EQ(acc->ConsumedEpsilon(), 3.0);
}

TEST(BudgetAccountantTest, RefusesOverBudget) {
  auto acc = BudgetAccountant::Create(5.0);
  ASSERT_TRUE(acc.ok());
  EXPECT_TRUE(acc->Charge("a", 4.0).ok());
  const Status s = acc->Charge("b", 2.0);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // Failed charge must not be recorded.
  EXPECT_DOUBLE_EQ(acc->ConsumedEpsilon(), 4.0);
}

TEST(BudgetAccountantTest, ParallelUpgradeWithinGroupRespectsBudget) {
  auto acc = BudgetAccountant::Create(5.0);
  ASSERT_TRUE(acc.ok());
  EXPECT_TRUE(acc->Charge("g", 3.0).ok());
  // Raising the group max from 3 to 4 consumes only the delta.
  EXPECT_TRUE(acc->Charge("g", 4.0).ok());
  EXPECT_DOUBLE_EQ(acc->ConsumedEpsilon(), 4.0);
  EXPECT_FALSE(acc->Charge("g", 6.0).ok());
}

TEST(BudgetAccountantTest, RejectsNonPositiveCharge) {
  auto acc = BudgetAccountant::Create(5.0);
  ASSERT_TRUE(acc.ok());
  EXPECT_EQ(acc->Charge("g", 0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(acc->Charge("g", -1.0).code(), StatusCode::kInvalidArgument);
}

TEST(BudgetAccountantTest, ManySlicesExactlyExhaustBudget) {
  // The Identity pattern: ct slices at eps_tot / ct each.
  const int ct = 120;
  const double eps_tot = 30.0;
  auto acc = BudgetAccountant::Create(eps_tot);
  ASSERT_TRUE(acc.ok());
  for (int t = 0; t < ct; ++t) {
    EXPECT_TRUE(acc->Charge("slice" + std::to_string(t), eps_tot / ct).ok());
  }
  EXPECT_NEAR(acc->ConsumedEpsilon(), eps_tot, 1e-9);
  EXPECT_FALSE(acc->Charge("extra", 0.5).ok());
}

/// Parameterized: allocation of Theorem 8 respects the total budget for a
/// variety of sensitivity profiles (checked again at the accountant level).
class BudgetSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(BudgetSweepTest, ChargesUpToTotalSucceed) {
  const double eps_tot = GetParam();
  auto acc = BudgetAccountant::Create(eps_tot);
  ASSERT_TRUE(acc.ok());
  const int parts = 8;
  for (int i = 0; i < parts; ++i) {
    EXPECT_TRUE(acc->Charge("p" + std::to_string(i), eps_tot / parts).ok());
  }
  EXPECT_NEAR(acc->RemainingEpsilon(), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweepTest,
                         ::testing::Values(0.1, 1.0, 5.0, 10.0, 30.0, 100.0));

}  // namespace
}  // namespace stpt::dp
