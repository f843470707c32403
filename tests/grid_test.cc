#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "grid/consumption_matrix.h"
#include "grid/quadtree.h"
#include "gtest/gtest.h"

namespace stpt::grid {
namespace {

ConsumptionMatrix MakeSequential(Dims dims) {
  auto m = ConsumptionMatrix::Create(dims);
  EXPECT_TRUE(m.ok());
  double v = 0.0;
  for (int x = 0; x < dims.cx; ++x) {
    for (int y = 0; y < dims.cy; ++y) {
      for (int t = 0; t < dims.ct; ++t) m->set(x, y, t, v++);
    }
  }
  return std::move(m).value();
}

/// MinMax() against std::min_element / std::max_element over the same
/// values, bit for bit.
void ExpectMinMaxMatchesFirstOccurrence(const std::vector<double>& values) {
  auto m = ConsumptionMatrix::Create({1, 1, static_cast<int>(values.size())});
  ASSERT_TRUE(m.ok());
  m->mutable_data() = values;
  const ConsumptionMatrix::Extrema got = m->MinMax();
  const double want_min = *std::min_element(values.begin(), values.end());
  const double want_max = *std::max_element(values.begin(), values.end());
  EXPECT_EQ(std::bit_cast<uint64_t>(got.min), std::bit_cast<uint64_t>(want_min))
      << got.min << " vs " << want_min << " over " << values.size() << " values";
  EXPECT_EQ(std::bit_cast<uint64_t>(got.max), std::bit_cast<uint64_t>(want_max))
      << got.max << " vs " << want_max << " over " << values.size() << " values";
}

// --------------------------- ConsumptionMatrix ---------------------------

TEST(ConsumptionMatrixTest, CreateRejectsBadDims) {
  EXPECT_FALSE(ConsumptionMatrix::Create({0, 2, 2}).ok());
  EXPECT_FALSE(ConsumptionMatrix::Create({2, -1, 2}).ok());
  EXPECT_FALSE(ConsumptionMatrix::Create({2, 2, 0}).ok());
  EXPECT_TRUE(ConsumptionMatrix::Create({1, 1, 1}).ok());
}

TEST(ConsumptionMatrixTest, CreateZeroInitialises) {
  auto m = ConsumptionMatrix::Create({2, 3, 4});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->size(), 24u);
  for (double v : m->data()) EXPECT_EQ(v, 0.0);
}

TEST(ConsumptionMatrixTest, SetGetAddRoundTrip) {
  auto m = ConsumptionMatrix::Create({2, 2, 2});
  ASSERT_TRUE(m.ok());
  m->set(1, 0, 1, 5.0);
  EXPECT_EQ(m->at(1, 0, 1), 5.0);
  m->add(1, 0, 1, 2.5);
  EXPECT_EQ(m->at(1, 0, 1), 7.5);
  EXPECT_EQ(m->at(0, 0, 0), 0.0);
}

TEST(ConsumptionMatrixTest, PillarIsContiguousTimeSeries) {
  const ConsumptionMatrix m = MakeSequential({2, 2, 3});
  const std::vector<double> p = m.Pillar(1, 1);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], m.at(1, 1, 0));
  EXPECT_EQ(p[1], m.at(1, 1, 1));
  EXPECT_EQ(p[2], m.at(1, 1, 2));
}

TEST(ConsumptionMatrixTest, SetPillarValidatesInputs) {
  auto m = ConsumptionMatrix::Create({2, 2, 3});
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->SetPillar(0, 1, {1.0, 2.0, 3.0}).ok());
  EXPECT_EQ(m->at(0, 1, 2), 3.0);
  EXPECT_FALSE(m->SetPillar(0, 1, {1.0}).ok());
  EXPECT_FALSE(m->SetPillar(5, 0, {1.0, 2.0, 3.0}).ok());
  EXPECT_FALSE(m->SetPillar(-1, 0, {1.0, 2.0, 3.0}).ok());
}

TEST(ConsumptionMatrixTest, MinMaxAndTotal) {
  const ConsumptionMatrix m = MakeSequential({2, 2, 2});
  EXPECT_EQ(m.MinValue(), 0.0);
  EXPECT_EQ(m.MaxValue(), 7.0);
  EXPECT_EQ(m.TotalSum(), 28.0);
}

TEST(ConsumptionMatrixTest, MinMaxMatchesFirstOccurrenceScanBitForBit) {
  // +0 and -0 tie as the minimum (among positives) and as the maximum
  // (among negatives), in both orders at every pair of positions: the
  // first occurrence wins.
  for (const double other : {1.5, -1.5}) {
    for (size_t i = 0; i < 9; ++i) {
      for (size_t j = 0; j < 9; ++j) {
        if (i == j) continue;
        std::vector<double> values(9, other);
        values[i] = 0.0;
        values[j] = -0.0;
        ExpectMinMaxMatchesFirstOccurrence(values);
      }
    }
  }
  // A NaN first or later, and an infinity of either sign, at every position.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double special : {nan, -nan, inf, -inf}) {
    for (size_t i = 0; i < 9; ++i) {
      std::vector<double> values = {3.0, -2.0, 5.0, 7.0, -1.0, 4.0, 2.0, 6.0, 1.0};
      values[i] = special;
      ExpectMinMaxMatchesFirstOccurrence(values);
    }
  }
  ExpectMinMaxMatchesFirstOccurrence(std::vector<double>(9, 2.5));
  // Lengths 1-33: below the vector width, and every overlap of the last
  // vector step.
  Rng rng(23);
  for (size_t n = 1; n <= 33; ++n) {
    std::vector<double> values(n);
    for (double& v : values) v = rng.Gaussian(0.0, 10.0);
    ExpectMinMaxMatchesFirstOccurrence(values);
  }
  // A noisy release at the ingest publish shape.
  std::vector<double> release(32 * 32 * 168);
  for (double& v : release) v = rng.Gaussian(0.0, 100.0) + rng.Laplace(0.5);
  ExpectMinMaxMatchesFirstOccurrence(release);
}

TEST(ConsumptionMatrixTest, NormalizedMapsToUnitInterval) {
  const ConsumptionMatrix m = MakeSequential({2, 2, 2});
  const ConsumptionMatrix n = m.Normalized();
  EXPECT_EQ(n.MinValue(), 0.0);
  EXPECT_EQ(n.MaxValue(), 1.0);
  EXPECT_NEAR(n.at(0, 0, 1), 1.0 / 7.0, 1e-12);
}

TEST(ConsumptionMatrixTest, NormalizedConstantMatrixIsZero) {
  auto m = ConsumptionMatrix::Create({2, 2, 2});
  ASSERT_TRUE(m.ok());
  for (auto& v : m->mutable_data()) v = 3.0;
  const ConsumptionMatrix n = m->Normalized();
  for (double v : n.data()) EXPECT_EQ(v, 0.0);
}

TEST(ConsumptionMatrixTest, BoxSumFullMatrixEqualsTotal) {
  const ConsumptionMatrix m = MakeSequential({3, 4, 5});
  EXPECT_EQ(m.BoxSum(0, 2, 0, 3, 0, 4), m.TotalSum());
}

TEST(ConsumptionMatrixTest, BoxSumSingleCell) {
  const ConsumptionMatrix m = MakeSequential({3, 4, 5});
  EXPECT_EQ(m.BoxSum(1, 1, 2, 2, 3, 3), m.at(1, 2, 3));
}

// --------------------------- PrefixSum3D ---------------------------

TEST(PrefixSum3DTest, MatchesBruteForceOnRandomBoxes) {
  Rng rng(99);
  auto m = ConsumptionMatrix::Create({6, 7, 8});
  ASSERT_TRUE(m.ok());
  for (auto& v : m->mutable_data()) v = rng.Uniform(-1.0, 2.0);
  const PrefixSum3D ps(*m);
  for (int trial = 0; trial < 200; ++trial) {
    int x0 = static_cast<int>(rng.UniformInt(0, 5)), x1 = static_cast<int>(rng.UniformInt(0, 5));
    int y0 = static_cast<int>(rng.UniformInt(0, 6)), y1 = static_cast<int>(rng.UniformInt(0, 6));
    int t0 = static_cast<int>(rng.UniformInt(0, 7)), t1 = static_cast<int>(rng.UniformInt(0, 7));
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
    if (t0 > t1) std::swap(t0, t1);
    EXPECT_NEAR(ps.BoxSum(x0, x1, y0, y1, t0, t1),
                m->BoxSum(x0, x1, y0, y1, t0, t1), 1e-9);
  }
}

TEST(PrefixSum3DTest, CornerBoxes) {
  const ConsumptionMatrix m = MakeSequential({4, 4, 4});
  const PrefixSum3D ps(m);
  EXPECT_EQ(ps.BoxSum(0, 0, 0, 0, 0, 0), m.at(0, 0, 0));
  EXPECT_EQ(ps.BoxSum(3, 3, 3, 3, 3, 3), m.at(3, 3, 3));
  EXPECT_EQ(ps.BoxSum(0, 3, 0, 3, 0, 3), m.TotalSum());
}

// --------------------------- Quadtree ---------------------------

TEST(QuadtreeTest, DefaultDepthIsLog2OfMinDim) {
  EXPECT_EQ(DefaultQuadtreeDepth({32, 32, 10}), 5);
  EXPECT_EQ(DefaultQuadtreeDepth({16, 32, 10}), 4);
  EXPECT_EQ(DefaultQuadtreeDepth({1, 1, 10}), 0);
}

TEST(QuadtreeTest, RejectsInvalidArguments) {
  const ConsumptionMatrix m = MakeSequential({4, 4, 8});
  EXPECT_FALSE(BuildQuadtreeLevels(m, 0, 1).ok());
  EXPECT_FALSE(BuildQuadtreeLevels(m, 9, 1).ok());
  EXPECT_FALSE(BuildQuadtreeLevels(m, 4, -1).ok());
  EXPECT_FALSE(BuildQuadtreeLevels(m, 4, 3).ok());  // 2^3 > 4
}

TEST(QuadtreeTest, PaperExampleLevelStructure) {
  // Paper Fig. 2(b): a 4x4x6 training matrix, depth 2 -> 3 levels of
  // duration 2, with 1, 4, 16 neighborhoods (21 series in total).
  const ConsumptionMatrix m = MakeSequential({4, 4, 6});
  auto levels = BuildQuadtreeLevels(m, 6, 2);
  ASSERT_TRUE(levels.ok());
  ASSERT_EQ(levels->size(), 3u);
  EXPECT_EQ((*levels)[0].neighborhoods.size(), 1u);
  EXPECT_EQ((*levels)[1].neighborhoods.size(), 4u);
  EXPECT_EQ((*levels)[2].neighborhoods.size(), 16u);
  size_t total = 0;
  for (const auto& l : *levels) total += l.neighborhoods.size();
  EXPECT_EQ(total, 21u);
  EXPECT_EQ((*levels)[0].t_begin, 0);
  EXPECT_EQ((*levels)[0].t_end, 2);
  EXPECT_EQ((*levels)[2].t_begin, 4);
  EXPECT_EQ((*levels)[2].t_end, 6);
}

TEST(QuadtreeTest, RootRepresentativeIsGlobalMean) {
  const ConsumptionMatrix m = MakeSequential({4, 4, 4});
  auto levels = BuildQuadtreeLevels(m, 4, 0);
  ASSERT_TRUE(levels.ok());
  ASSERT_EQ(levels->size(), 1u);
  const Neighborhood& root = (*levels)[0].neighborhoods[0];
  EXPECT_EQ(root.num_cells, 16);
  ASSERT_EQ(root.series.size(), 4u);
  for (int t = 0; t < 4; ++t) {
    double sum = 0.0;
    for (int x = 0; x < 4; ++x) {
      for (int y = 0; y < 4; ++y) sum += m.at(x, y, t);
    }
    EXPECT_NEAR(root.series[t], sum / 16.0, 1e-12);
  }
}

TEST(QuadtreeTest, SensitivityMatchesTheorem6OnSquareGrid) {
  // For Cx = Cy = 8 (log2 = 3), sensitivity at depth i is 1/4^(3-i).
  const ConsumptionMatrix m = MakeSequential({8, 8, 8});
  auto levels = BuildQuadtreeLevels(m, 8, 3);
  ASSERT_TRUE(levels.ok());
  ASSERT_EQ(levels->size(), 4u);
  for (int d = 0; d <= 3; ++d) {
    for (const auto& nb : (*levels)[d].neighborhoods) {
      EXPECT_NEAR(nb.sensitivity, 1.0 / std::pow(4.0, 3 - d), 1e-12)
          << "depth " << d;
    }
  }
}

TEST(QuadtreeTest, NeighborhoodsTileTheGridDisjointly) {
  const ConsumptionMatrix m = MakeSequential({8, 8, 9});
  auto levels = BuildQuadtreeLevels(m, 9, 2);
  ASSERT_TRUE(levels.ok());
  for (const auto& level : *levels) {
    std::vector<int> covered(64, 0);
    for (const auto& nb : level.neighborhoods) {
      for (int x = nb.x0; x <= nb.x1; ++x) {
        for (int y = nb.y0; y <= nb.y1; ++y) ++covered[x * 8 + y];
      }
    }
    for (int c : covered) EXPECT_EQ(c, 1);
  }
}

TEST(QuadtreeTest, ShortTrainingPrefixDropsDeepLevels) {
  const ConsumptionMatrix m = MakeSequential({8, 8, 10});
  // t_train = 2 with depth 3 -> segment length ceil(2/4) = 1, so only
  // levels 0 and 1 get time.
  auto levels = BuildQuadtreeLevels(m, 2, 3);
  ASSERT_TRUE(levels.ok());
  EXPECT_EQ(levels->size(), 2u);
}

TEST(QuadtreeTest, NonSquareGridSplitsBothAxes) {
  const ConsumptionMatrix m = MakeSequential({4, 8, 4});
  auto levels = BuildQuadtreeLevels(m, 4, 1);
  ASSERT_TRUE(levels.ok());
  ASSERT_EQ((*levels)[1].neighborhoods.size(), 4u);
  for (const auto& nb : (*levels)[1].neighborhoods) {
    EXPECT_EQ(nb.x1 - nb.x0 + 1, 2);
    EXPECT_EQ(nb.y1 - nb.y0 + 1, 4);
    EXPECT_EQ(nb.num_cells, 8);
    EXPECT_NEAR(nb.sensitivity, 1.0 / 8.0, 1e-12);
  }
}

/// Property sweep: representative series of every neighborhood equals the
/// brute-force average over its cells for random matrices.
class QuadtreeSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(QuadtreeSweepTest, RepresentativeSeriesIsNeighborhoodMean) {
  const int depth = GetParam();
  Rng rng(1000 + depth);
  auto m = ConsumptionMatrix::Create({8, 8, 12});
  ASSERT_TRUE(m.ok());
  for (auto& v : m->mutable_data()) v = rng.Uniform(0.0, 1.0);
  auto levels = BuildQuadtreeLevels(*m, 12, depth);
  ASSERT_TRUE(levels.ok());
  for (const auto& level : *levels) {
    for (const auto& nb : level.neighborhoods) {
      for (int t = level.t_begin; t < level.t_end; ++t) {
        double sum = 0.0;
        for (int x = nb.x0; x <= nb.x1; ++x) {
          for (int y = nb.y0; y <= nb.y1; ++y) sum += m->at(x, y, t);
        }
        EXPECT_NEAR(nb.series[t - level.t_begin], sum / nb.num_cells, 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, QuadtreeSweepTest, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace stpt::grid
