// Differential checker sweep for the kernel backend API: every available
// backend is run against the naive oracle over RNG-filled inputs, across
// odd and power-of-two shapes and at 1 and 8 exec threads. Scan, Haar, and
// sampler kernels must match bitwise; MatMul and FFT to a small relative
// epsilon (backend.h documents the tolerance policy). Also covers the
// registry / default-dispatch surface, the MatMul dispatch threshold, the
// pinned bytes of the avx2 MatMul family and of a small release, and the
// cross-backend bit-identity of the ingest incremental prefix maintenance.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stpt.h"
#include "datagen/dataset.h"
#include "exec/thread_pool.h"
#include "grid/consumption_matrix.h"
#include "ingest/incremental_prefix.h"
#include "kernels/backend.h"
#include "kernels/checker.h"
#include "kernels/internal.h"
#include "obs/metrics.h"

namespace stpt::kernels {
namespace {

constexpr double kMatMulEps = 1e-12;
constexpr double kFftEps = 1e-11;

std::vector<const Backend*> AllBackends() {
  std::vector<const Backend*> out;
  for (const auto& name : Registry::Names()) {
    auto created = Registry::Create(name);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (created.ok()) out.push_back(*created);
  }
  return out;
}

/// Runs each test body at the parameterized exec thread count; kernels
/// dispatch onto the pool internally, so this exercises both the serial and
/// the partitioned code paths of every backend.
class KernelSweepTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { exec::SetThreads(GetParam()); }
  void TearDown() override { exec::SetThreads(0); }
};

TEST_P(KernelSweepTest, MatMulAgreesWithOracle) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  const int sizes[] = {1, 3, 7, 17, 64};
  struct Dims {
    int m, n, k;
  };
  std::vector<Dims> dims;
  for (int m : sizes) {
    for (int n : sizes) {
      for (int k : sizes) dims.push_back({m, n, k});
    }
  }
  // Odd shapes above the dispatch threshold: the 8-thread run splits them.
  dims.push_back({101, 103, 107});
  dims.push_back({131, 67, 129});
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 100;
    for (const Dims& d : dims) {
      MatMulShape s;
      s.m = d.m;
      s.n = d.n;
      s.k = d.k;
      ASSERT_TRUE(checker.CheckMatMul(s, ++seed, kMatMulEps).ok())
          << backend->name() << " m=" << d.m << " n=" << d.n << " k=" << d.k;
      s.transpose_b = true;
      ASSERT_TRUE(checker.CheckMatMul(s, ++seed, kMatMulEps).ok())
          << backend->name() << " (transposed) m=" << d.m << " n=" << d.n
          << " k=" << d.k;
    }
  }
}

TEST_P(KernelSweepTest, BatchedMatMulAgreesWithOracle) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 900;
    // {batch, m, n, k}; the last shape is above the dispatch threshold.
    const int shapes[][4] = {{2, 5, 9, 33}, {3, 5, 9, 33}, {3, 37, 97, 101}};
    for (const auto& shape : shapes) {
      for (bool b_batched : {false, true}) {
        for (bool transpose_b : {false, true}) {
          MatMulShape s;
          s.batch = shape[0];
          s.m = shape[1];
          s.n = shape[2];
          s.k = shape[3];
          s.b_batched = b_batched;
          s.transpose_b = transpose_b;
          const Status st = checker.CheckMatMul(s, ++seed, kMatMulEps);
          ASSERT_TRUE(st.ok())
              << backend->name() << " batch=" << s.batch << " m=" << s.m
              << " n=" << s.n << " k=" << s.k << " b_batched=" << b_batched
              << " transpose_b=" << transpose_b << ": " << st.ToString();
        }
      }
    }
  }
}

TEST_P(KernelSweepTest, FftAgreesWithOracle) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 200;
    for (size_t n : {1u, 2u, 4u, 8u, 64u, 1024u}) {
      const Status st = checker.CheckFft(n, ++seed, kFftEps);
      ASSERT_TRUE(st.ok()) << backend->name() << " n=" << n << ": "
                           << st.ToString();
    }
  }
}

TEST_P(KernelSweepTest, HaarBitExactAcrossBackends) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 300;
    for (size_t n : {1u, 2u, 4u, 8u, 256u, 4096u}) {
      const Status st = checker.CheckHaar(n, ++seed);
      ASSERT_TRUE(st.ok()) << backend->name() << " n=" << n << ": "
                           << st.ToString();
    }
  }
}

TEST_P(KernelSweepTest, ScanBitExactAcrossBackends) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  struct Case {
    int cx, cy, ct, t_lo;
  };
  const Case cases[] = {
      {1, 1, 1, 0},  {3, 5, 7, 0},   {4, 4, 16, 0},  {5, 3, 9, 4},
      {8, 8, 32, 0}, {8, 8, 32, 31}, {7, 11, 13, 6}, {16, 16, 40, 20},
  };
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 400;
    for (const Case& c : cases) {
      const Status st = checker.CheckScan(c.cx, c.cy, c.ct, c.t_lo, ++seed);
      ASSERT_TRUE(st.ok()) << backend->name() << " cx=" << c.cx
                           << " cy=" << c.cy << " ct=" << c.ct
                           << " t_lo=" << c.t_lo << ": " << st.ToString();
    }
  }
}

TEST_P(KernelSweepTest, SamplersBitExactAcrossBackends) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  for (const Backend* backend : AllBackends()) {
    Checker checker(naive, backend);
    uint64_t seed = 500;
    // Straddle the internal parallel-dispatch threshold and the 4-wide
    // vector width (tails of 1..3 elements).
    for (size_t n : {1u, 3u, 5u, 4095u, 4097u, 16384u}) {
      for (double scale : {0.5, 2.0}) {
        const Status st = checker.CheckLaplace(n, scale, ++seed);
        ASSERT_TRUE(st.ok()) << backend->name() << " n=" << n
                             << " scale=" << scale << ": " << st.ToString();
      }
    }
    for (size_t n : {1u, 7u, 1000u}) {
      for (double alpha : {0.5, 0.9}) {
        const Status st = checker.CheckGeometric(n, alpha, ++seed);
        ASSERT_TRUE(st.ok()) << backend->name() << " n=" << n
                             << " alpha=" << alpha << ": " << st.ToString();
      }
    }
  }
}

// Denormal operands must not change results: the bit-exact kernels perform
// the identical operation chain (denormals included), and MatMul stays
// within epsilon because both backends compute in double throughout (no
// flush-to-zero mode is ever enabled).
TEST_P(KernelSweepTest, DenormalInputsAgree) {
  const Backend* naive = GetBackend(BackendKind::kNaive);
  const int n = 32;
  std::vector<double> a(n * n), b(n * n);
  Rng rng(42);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextDouble() * 4.9e-324 * 1e3;  // subnormal magnitudes
    b[i] = rng.NextDouble();
  }
  MatMulShape s;
  s.m = s.n = s.k = n;
  std::vector<double> c_ref(n * n), c_test(n * n);
  for (const Backend* backend : AllBackends()) {
    naive->MatMulFwd(a.data(), b.data(), c_ref.data(), s);
    backend->MatMulFwd(a.data(), b.data(), c_test.data(), s);
    for (size_t i = 0; i < c_ref.size(); ++i) {
      ASSERT_NEAR(c_ref[i], c_test[i], 1e-300) << backend->name() << " " << i;
    }
    // Scans over denormals must be bitwise identical.
    std::vector<double> s_ref(a), s_test(a);
    naive->ScanT(s_ref.data(), s_ref.data(), n, n, 0);
    backend->ScanT(s_test.data(), s_test.data(), n, n, 0);
    ASSERT_EQ(0,
              std::memcmp(s_ref.data(), s_test.data(), n * n * sizeof(double)))
        << backend->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelSweepTest, ::testing::Values(1, 8));

// ---- Dispatch threshold ----------------------------------------------------

// A product one multiply-add below kMatMulParallelFlops runs inline in every
// kernel of every backend; a product at the threshold goes to the pool.
TEST(KernelDispatchTest, ThresholdSplitsProductsAtTheBoundary) {
  static_assert(33 * 31 * 1025 == kMatMulParallelFlops - 1);
  static_assert(32 * 32 * 1024 == kMatMulParallelFlops);
  const obs::Counter* dispatched = obs::Registry::Global().GetCounter(
      "stpt_exec_regions_dispatched_total", "");
  ASSERT_NE(dispatched, nullptr);
  struct Case {
    int m, n, k;
    uint64_t regions;  ///< dispatched regions per kernel call
  };
  const Case cases[] = {{33, 31, 1025, 0}, {32, 32, 1024, 1}};
  exec::SetThreads(2);
  for (const Backend* backend : AllBackends()) {
    for (const Case& c : cases) {
      for (bool transpose_b : {false, true}) {
        MatMulShape s;
        s.m = c.m;
        s.n = c.n;
        s.k = c.k;
        s.transpose_b = transpose_b;
        std::vector<double> a(static_cast<size_t>(c.m) * c.k, 0.5);
        std::vector<double> b(static_cast<size_t>(c.k) * c.n, 0.25);
        std::vector<double> g(static_cast<size_t>(c.m) * c.n, 1.0);
        std::vector<double> out(std::max(a.size(), std::max(b.size(), g.size())));
        const std::string where = backend->name() + " m=" +
                                  std::to_string(c.m) + " n=" +
                                  std::to_string(c.n) + " k=" +
                                  std::to_string(c.k) +
                                  " transpose_b=" + std::to_string(transpose_b);
        uint64_t before = dispatched->Value();
        backend->MatMulFwd(a.data(), b.data(), out.data(), s);
        EXPECT_EQ(c.regions, dispatched->Value() - before) << "Fwd " << where;
        before = dispatched->Value();
        backend->MatMulBwdA(g.data(), b.data(), out.data(), s);
        EXPECT_EQ(c.regions, dispatched->Value() - before) << "BwdA " << where;
        before = dispatched->Value();
        backend->MatMulBwdB(g.data(), a.data(), out.data(), s);
        EXPECT_EQ(c.regions, dispatched->Value() - before) << "BwdB " << where;
      }
    }
  }
  exec::SetThreads(0);
}

// ---- Validation surface ----------------------------------------------------

TEST(KernelValidationTest, FftRejectsBadSizes) {
  for (const Backend* backend : AllBackends()) {
    std::vector<std::complex<double>> buf(3);
    EXPECT_FALSE(backend->FftPow2(buf.data(), 3, false).ok())
        << backend->name();
    EXPECT_FALSE(backend->FftPow2(buf.data(), 0, false).ok())
        << backend->name();
  }
}

TEST(KernelValidationTest, HaarRejectsBadSizes) {
  for (const Backend* backend : AllBackends()) {
    EXPECT_FALSE(backend->HaarForward({1.0, 2.0, 3.0}).ok()) << backend->name();
    EXPECT_FALSE(backend->HaarForward({}).ok()) << backend->name();
    EXPECT_FALSE(backend->HaarInverse({1.0, 2.0, 3.0}).ok()) << backend->name();
  }
}

// ---- Registry / dispatch ---------------------------------------------------

TEST(KernelRegistryTest, NaiveAlwaysFirst) {
  const auto names = Registry::Names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ("naive", names[0]);
}

TEST(KernelRegistryTest, Avx2ListedIffSupported) {
  const auto names = Registry::Names();
  const bool listed =
      names.size() > 1 && names[1] == "avx2";
  EXPECT_EQ(CpuHasAvx2(), listed);
  EXPECT_EQ(CpuHasAvx2(), GetBackend(BackendKind::kAvx2) != nullptr);
}

TEST(KernelRegistryTest, CreateResolvesSpecs) {
  auto naive = Registry::Create("naive");
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ("naive", (*naive)->name());

  auto autod = Registry::Create("auto");
  ASSERT_TRUE(autod.ok());
  EXPECT_EQ(CpuHasAvx2() ? "avx2" : "naive", (*autod)->name());

  auto avx2 = Registry::Create("avx2");
  if (CpuHasAvx2()) {
    ASSERT_TRUE(avx2.ok());
    EXPECT_EQ("avx2", (*avx2)->name());
  } else {
    EXPECT_EQ(StatusCode::kFailedPrecondition, avx2.status().code());
  }

  EXPECT_EQ(StatusCode::kInvalidArgument,
            Registry::Create("bogus").status().code());
}

TEST(KernelRegistryTest, StrictSetDefaultRejectsUnknown) {
  const Backend* before = Default();
  EXPECT_EQ(StatusCode::kInvalidArgument, SetDefault("sse9").code());
  EXPECT_EQ(before, Default());  // unchanged on error
  ASSERT_TRUE(SetDefault("naive").ok());
  EXPECT_EQ("naive", Default()->name());
  ASSERT_TRUE(SetDefault("auto").ok());
  SetDefault(before);
}

// ---- Ingest incremental prefix across backends -----------------------------

// Replays one mutation sequence under each backend as the process default
// and requires the final prefix tables to be memcmp-equal — the streaming
// tier's incremental rescans must be unobservable not just across thread
// counts but across kernel implementations.
TEST(KernelIngestTest, IncrementalPrefixBitIdenticalAcrossBackends) {
  const grid::Dims dims{6, 5, 24};
  auto run = [&](const Backend* backend) {
    const Backend* before = Default();
    SetDefault(backend);
    auto inc = ingest::IncrementalPrefix::Create(dims);
    EXPECT_TRUE(inc.ok());
    Rng rng(777);
    for (int round = 0; round < 8; ++round) {
      // Whole released slices at t >= lo, the first at lo itself, as an
      // ingest epoch republishes its trailing range.
      const int lo = static_cast<int>(rng.UniformInt(0, dims.ct - 1));
      for (int s = 0; s < 4; ++s) {
        std::vector<double> slice(static_cast<size_t>(dims.cx) * dims.cy);
        for (double& v : slice) v = rng.NextDouble();
        const int t = s == 0 ? lo : static_cast<int>(rng.UniformInt(lo, dims.ct - 1));
        EXPECT_TRUE(inc->SetSlice(t, slice).ok());
      }
      inc->Flush();
    }
    std::vector<double> prefix = inc->prefix();
    // The incremental table must equal a from-scratch build on the same
    // backend as well.
    const grid::PrefixSum3D full(inc->matrix(), backend);
    EXPECT_EQ(0, std::memcmp(prefix.data(), full.raw().data(),
                             prefix.size() * sizeof(double)));
    SetDefault(before);
    return prefix;
  };

  const auto backends = AllBackends();
  const std::vector<double> baseline = run(backends[0]);
  for (size_t i = 1; i < backends.size(); ++i) {
    const std::vector<double> other = run(backends[i]);
    ASSERT_EQ(baseline.size(), other.size());
    EXPECT_EQ(0, std::memcmp(baseline.data(), other.data(),
                             baseline.size() * sizeof(double)))
        << backends[i]->name();
  }
}

// ---- Pinned avx2 MatMul bytes ----------------------------------------------

/// FNV-1a over the bytes of a double vector.
uint64_t Fnv1a(const std::vector<double>& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct MatMulPin {
  int batch, m, n, k;
  bool transpose_b, b_batched;
  uint64_t fwd, bwd_a, bwd_b;  ///< FNV-1a of C, GA and GB
};

/// Runs the avx2 MatMul family on RNG-filled operands (prefilled backward
/// accumulators, as the Checker does) and hashes C, GA and GB.
MatMulPin HashAvx2MatMul(const Backend* avx2, const MatMulPin& pin,
                         uint64_t seed) {
  MatMulShape s;
  s.batch = pin.batch;
  s.m = pin.m;
  s.n = pin.n;
  s.k = pin.k;
  s.transpose_b = pin.transpose_b;
  s.b_batched = pin.b_batched;
  Rng rng(seed);
  const auto fill = [&rng](size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.Uniform(-1.0, 1.0);
    return v;
  };
  const size_t an = static_cast<size_t>(s.batch) * s.m * s.k;
  const size_t bn =
      (s.b_batched ? s.batch : 1) * static_cast<size_t>(s.k) * s.n;
  const size_t cn = static_cast<size_t>(s.batch) * s.m * s.n;
  const std::vector<double> a = fill(an), b = fill(bn), g = fill(cn);
  std::vector<double> c(cn, 0.0), ga = fill(an), gb = fill(bn);
  avx2->MatMulFwd(a.data(), b.data(), c.data(), s);
  avx2->MatMulBwdA(g.data(), b.data(), ga.data(), s);
  avx2->MatMulBwdB(g.data(), a.data(), gb.data(), s);
  MatMulPin out = pin;
  out.fwd = Fnv1a(c);
  out.bwd_a = Fnv1a(ga);
  out.bwd_b = Fnv1a(gb);
  return out;
}

// The avx2 MatMul family's output bytes, held on fixed seeds: every shape
// one perfbench batch_release publish issues (CER twin, t_train 100, depth
// 3), the tails of every vector loop (rows % 4, n % 8, n % 4 and k % 16
// nonzero), shared and batched B, and a product big enough to be
// partitioned. Any rewrite of the avx2 kernels must keep every hash; the
// 1- and 8-thread runs must agree with them both.
TEST(KernelPinTest, Avx2MatMulBytesArePinned) {
  const Backend* avx2 = GetBackend(BackendKind::kAvx2);
  if (avx2 == nullptr) GTEST_SKIP() << "CPU lacks AVX2/FMA";
  const MatMulPin pins[] = {
      // batch_release: the 18 forward shapes (the backward calls use 12).
      {1, 1, 1, 32, false, false,
       0x6e90b3efd4067c47ULL, 0x26a7ee28233916d1ULL, 0x431511e729483b20ULL},
      {1, 1, 32, 32, false, false,
       0x9bb40c5a4faedbb7ULL, 0x1e461511438afd0eULL, 0xd5f08026f797bb18ULL},
      {1, 6, 6, 32, true, true,
       0x1798a43d76912d7fULL, 0x1845c2136a717184ULL, 0x6c943e0694d117dcULL},
      {1, 6, 32, 1, false, false,
       0x26657f94f39ab02aULL, 0x95af9cbfa7d1bae7ULL, 0xcc85620b839bb469ULL},
      {1, 6, 32, 6, false, true,
       0xd864e820162172e9ULL, 0x14913e6573f242d4ULL, 0x501143d610c16ba7ULL},
      {1, 6, 32, 32, false, false,
       0x213e52f9bbcc8032ULL, 0x136509022aa0e518ULL, 0x0512fdfafc136550ULL},
      {1, 15, 1, 32, false, false,
       0x2160caceef32a15eULL, 0xae3b6b05ee2bdbcfULL, 0x0a62195cd14e5b18ULL},
      {1, 15, 32, 32, false, false,
       0x4906f2e1477cf3e4ULL, 0xa6960b93a796bfe4ULL, 0x98703de5f2de0a49ULL},
      {1, 32, 1, 32, false, false,
       0x883727f0b1b75353ULL, 0x4099499b88320ac2ULL, 0x448d6389cb352452ULL},
      {1, 32, 32, 32, false, false,
       0x54135cced6e97e48ULL, 0xadecf0339f288023ULL, 0xe3f8be4ba22d6700ULL},
      {15, 6, 6, 32, true, true,
       0x8b3daea509a71da5ULL, 0x9e98ab2db53c1ae7ULL, 0xe96932f34e4aff19ULL},
      {15, 6, 32, 1, false, false,
       0x96cf2047a28267d6ULL, 0x38b3cc88cf608586ULL, 0x0125ee163832e433ULL},
      {15, 6, 32, 6, false, true,
       0xcf612ee2ec8aea50ULL, 0xf2e773e503fba9d9ULL, 0x1c4764a5d1d0ef47ULL},
      {15, 6, 32, 32, false, false,
       0x712d1e2d4bbeb4a2ULL, 0x4eb9e63c2074373eULL, 0x192174c48ec0f941ULL},
      {32, 6, 6, 32, true, true,
       0x8915752964d4aa4cULL, 0x4ead8905ca8faf30ULL, 0x1e8374899ab3cfe2ULL},
      {32, 6, 32, 1, false, false,
       0xf0b30881bdf9b61bULL, 0x8816cd04e998dd2aULL, 0x331195977571e26cULL},
      {32, 6, 32, 6, false, true,
       0x3f914ef6845709f0ULL, 0xe1fb110fa2cd80aeULL, 0x1eb36f8eae03c235ULL},
      {32, 6, 32, 32, false, false,
       0x49914bc7411a47baULL, 0x32ce1d335387eb78ULL, 0x342af095c5681822ULL},
      // Tails: rows % 4, n % 8, n % 4 and k % 16 (4-wide blocks + scalar).
      {1, 7, 13, 37, false, false,
       0xc39c693be6dd0e69ULL, 0xd1cf7f8a1e017c2dULL, 0x7d07f870ed7985e4ULL},
      {1, 7, 13, 37, true, false,
       0x6ab37ed77f90cebeULL, 0xac2e3994fe3c7b6dULL, 0xc98b5fa3517eb087ULL},
      {1, 5, 23, 21, false, false,
       0x9c48d8e6ee3bfd20ULL, 0x9045454833fac840ULL, 0x168929ed03605029ULL},
      {1, 5, 23, 21, true, false,
       0xa3b42e00aeaa4cf1ULL, 0x6ba2f4d258599a0aULL, 0x55d31cb4078c8d17ULL},
      {1, 9, 6, 3, false, false,
       0xd50286b21012e00dULL, 0x4d5cdafc547ef6eaULL, 0x7616654a10bab13aULL},
      {1, 9, 6, 3, true, false,
       0xe10ae123f34cd564ULL, 0x4728f55e6ed75c82ULL, 0xbbef6a9e626a2bfbULL},
      {1, 3, 4, 19, false, false,
       0x541fe76636fb0e24ULL, 0x402bf5c241057ca1ULL, 0xf40f20a302c589e4ULL},
      {1, 3, 4, 19, true, false,
       0x7817c9471a0ccad0ULL, 0x8692f281b2e367b8ULL, 0xba5e01eaaa92dd3dULL},
      {1, 11, 17, 33, false, false,
       0xdce2dd5ce3924fb0ULL, 0xf0cedd43b2059993ULL, 0x3543ac2e200b0192ULL},
      {1, 11, 17, 33, true, false,
       0xd99aea7ec3966dbcULL, 0x344655b45bc17d10ULL, 0xf7979bb19a5242b9ULL},
      {1, 2, 3, 2, false, false,
       0x2a0ee444d25f5ce4ULL, 0x9bb0a84a85fb2422ULL, 0xbfec6815f62eac7cULL},
      {1, 2, 3, 2, true, false,
       0x22e4c46b84fcfefaULL, 0xf177285465b72d86ULL, 0xed9a4e8d1081e332ULL},
      // Shared and batched B.
      {3, 5, 9, 33, false, false,
       0xbc1fc7fa9581386cULL, 0xfc59b9eb08b581e3ULL, 0x44935089f1259c90ULL},
      {3, 5, 9, 33, true, false,
       0x740c70302dca9580ULL, 0xf9e054a21807b7cbULL, 0xef6dbcfd84332bb0ULL},
      {3, 5, 9, 33, false, true,
       0xf3956b7b869a1980ULL, 0xbd8b685d1d014b85ULL, 0xd5771def312f5c90ULL},
      {3, 5, 9, 33, true, true,
       0xbe63dada1f070f76ULL, 0xa6d19ddcd4023dd9ULL, 0xac8e18991e0c1088ULL},
      {2, 7, 14, 18, false, false,
       0xb32f598e368ddaaaULL, 0xa6b1bbbf0a7bba32ULL, 0xb2928cd776a78acaULL},
      {2, 7, 14, 18, true, false,
       0xbf61395d58a614d7ULL, 0xa813a170b09e8fbcULL, 0x84de276a60d78be1ULL},
      {2, 7, 14, 18, false, true,
       0x86727a28972e6671ULL, 0xc7a83013f038c9d2ULL, 0xadabf9d01f869e33ULL},
      {2, 7, 14, 18, true, true,
       0x7fa2b630bed39b58ULL, 0xcfd840b3acf5b6bcULL, 0x3fcdb10911afb5bcULL},
      // Above the dispatch threshold: split across the pool at 8 threads.
      {1, 101, 103, 107, false, false,
       0xab011f9edbcf2b4eULL, 0x2b0cd24d77a96578ULL, 0xb24980024e0f3e7bULL},
      {1, 101, 103, 107, true, false,
       0x765591822903e6c6ULL, 0xe000cbeb094f7e11ULL, 0xd5e7da313757bbceULL},  };
  for (int threads : {1, 8}) {
    exec::SetThreads(threads);
    uint64_t seed = 7000;
    for (const MatMulPin& pin : pins) {
      const MatMulPin got = HashAvx2MatMul(avx2, pin, ++seed);
      const std::string where =
          "batch=" + std::to_string(pin.batch) + " m=" +
          std::to_string(pin.m) + " n=" + std::to_string(pin.n) +
          " k=" + std::to_string(pin.k) +
          " transpose_b=" + std::to_string(pin.transpose_b) +
          " b_batched=" + std::to_string(pin.b_batched) +
          " threads=" + std::to_string(threads);
      EXPECT_EQ(pin.fwd, got.fwd) << "MatMulFwd " << where;
      EXPECT_EQ(pin.bwd_a, got.bwd_a) << "MatMulBwdA " << where;
      EXPECT_EQ(pin.bwd_b, got.bwd_b) << "MatMulBwdB " << where;
    }
  }
  exec::SetThreads(0);
}

// The sanitized and pattern bytes of ExecIntegrationTest's small release
// (exec_test.cc), published with each backend as the process default.
TEST(KernelPinTest, SmallReleaseBytesArePinned) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "CPU lacks AVX2/FMA";
  datagen::DatasetSpec spec = datagen::CerSpec();
  spec.num_households = 60;
  datagen::GenerateOptions opts;
  opts.grid_x = opts.grid_y = 8;
  opts.hours = 40 * 24;
  Rng gen_rng(77);
  auto ds = datagen::GenerateDataset(
      spec, datagen::SpatialDistribution::kUniform, opts, gen_rng);
  ASSERT_TRUE(ds.ok());
  auto cons = datagen::BuildConsumptionMatrix(*ds, 24);
  ASSERT_TRUE(cons.ok());
  core::StptConfig cfg;
  cfg.eps_pattern = 10.0;
  cfg.eps_sanitize = 20.0;
  cfg.t_train = 20;
  cfg.quadtree_depth = 2;
  cfg.quantization_levels = 4;
  cfg.training.epochs = 2;
  const double unit = datagen::UnitSensitivity(spec, 24);
  struct ReleasePin {
    BackendKind kind;
    uint64_t sanitized, pattern;
  };
  const ReleasePin pins[] = {
      {BackendKind::kNaive, 0xcdd152f7b68ff205ULL, 0x4c633ad13d542275ULL},
      {BackendKind::kAvx2, 0xcdd152f7b68ff205ULL, 0x1237d41bdc37c035ULL},
  };
  const Backend* before = Default();
  for (const ReleasePin& pin : pins) {
    const Backend* backend = GetBackend(pin.kind);
    SetDefault(backend);
    Rng rng(555);
    auto res = core::Stpt(cfg).Publish(*cons, unit, rng);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(pin.sanitized, Fnv1a(res->sanitized.data())) << backend->name();
    EXPECT_EQ(pin.pattern, Fnv1a(res->pattern.data())) << backend->name();
  }
  SetDefault(before);
}

}  // namespace
}  // namespace stpt::kernels
