// Micro-benchmarks of the substrate layers: DP mechanisms, transforms,
// prefix sums, quadtree construction, tensor ops, model steps, the .stpt
// container codec, and the end-to-end STPT pipeline at 1 vs N exec threads.
//
// The hot kernel families (MatMul, radix-2 FFT, Haar DWT, prefix-sum
// scans, Laplace batch sampling) are registered once per available kernel
// backend, keyed "/backend:<name>", so a single run emits naive and avx2
// rows side by side and the perf gate (tools/perf_gate.py) can diff
// like-for-like entries across PRs.
//
// Results are written to BENCH_micro.json (google-benchmark JSON format,
// with the exec thread count and kernel backend in the context) unless
// --benchmark_out= is given, so the perf trajectory is machine-readable
// across PRs.

#include <benchmark/benchmark.h>

#include <complex>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "dp/mechanisms.h"
#include "exec/thread_pool.h"
#include "grid/consumption_matrix.h"
#include "grid/quadtree.h"
#include "ingest/incremental_prefix.h"
#include "kernels/backend.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "serve/snapshot.h"
#include "signal/fft.h"

namespace {

using namespace stpt;

void BM_LaplaceSample(benchmark::State& state) {
  Rng rng(1);
  auto mech = dp::LaplaceMechanism::Create(1.0, 1.0);
  double acc = 0.0;
  for (auto _ : state) acc += mech->AddNoise(1.0, rng);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_LaplaceSample);

void BM_BluesteinDft(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::complex<double>> data(220);  // the paper's series length
  for (auto& v : data) v = {rng.NextDouble(), 0.0};
  for (auto _ : state) {
    auto out = signal::Dft(data, false);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BluesteinDft);

grid::ConsumptionMatrix RandomMatrix(grid::Dims dims, uint64_t seed) {
  Rng rng(seed);
  auto m = grid::ConsumptionMatrix::Create(dims);
  for (auto& v : m->mutable_data()) v = rng.NextDouble();
  return std::move(m).value();
}

void BM_PrefixSumBuild(benchmark::State& state) {
  const auto m = RandomMatrix({32, 32, 120}, 5);
  for (auto _ : state) {
    grid::PrefixSum3D ps(m);
    benchmark::DoNotOptimize(ps);
  }
}
BENCHMARK(BM_PrefixSumBuild)->Unit(benchmark::kMicrosecond);

void BM_PrefixSumQuery(benchmark::State& state) {
  const auto m = RandomMatrix({32, 32, 120}, 6);
  const grid::PrefixSum3D ps(m);
  Rng rng(7);
  double acc = 0.0;
  for (auto _ : state) {
    const int x0 = static_cast<int>(rng.UniformInt(0, 15));
    acc += ps.BoxSum(x0, x0 + 10, 3, 20, 10, 100);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_PrefixSumQuery);

// The .stpt container codec at the ingest publish shape (32x32 grid,
// 168-slice ring, 1.38 MB): the encode (the header, release and CRC that
// every epoch's container write streams to its file), the decode of a
// registry load or swap (which includes rebuilding the prefix table the
// container does not store), and the CRC-32 that both of them and every
// WAL frame run.
serve::Snapshot DeployedSnapshot() {
  serve::SnapshotMeta meta;
  meta.algorithm = "stream-w-event";
  return serve::Snapshot::FromMatrix(RandomMatrix({32, 32, 168}, 13), meta);
}

void BM_SnapshotEncode(benchmark::State& state) {
  const serve::Snapshot snap = DeployedSnapshot();
  const size_t bytes = serve::EncodeSnapshot(snap).size();
  for (auto _ : state) {
    auto encoded = serve::EncodeSnapshot(snap);
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SnapshotEncode)->Unit(benchmark::kMicrosecond);

void BM_SnapshotDecode(benchmark::State& state) {
  const std::vector<uint8_t> bytes = serve::EncodeSnapshot(DeployedSnapshot());
  for (auto _ : state) {
    auto snap = serve::DecodeSnapshot(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(snap);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_SnapshotDecode)->Unit(benchmark::kMicrosecond);

void BM_Crc32(benchmark::State& state) {
  const std::vector<uint8_t> bytes = serve::EncodeSnapshot(DeployedSnapshot());
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

// The one-pass min/max scan of a whole release, at the same shape. A live
// publish folds its ring's per-slot extrema instead, and scans only when the
// fold cannot be exact (IncrementalPrefix::MinMax).
void BM_MatrixExtrema(benchmark::State& state) {
  const grid::ConsumptionMatrix m = RandomMatrix({32, 32, 168}, 13);
  for (auto _ : state) {
    const grid::ConsumptionMatrix::Extrema extrema = m.MinMax();
    benchmark::DoNotOptimize(extrema);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(m.size() * sizeof(double)));
}
BENCHMARK(BM_MatrixExtrema)->Unit(benchmark::kMicrosecond);

// One lap of the live shard's epoch flush at the ingest publish shape: 168
// epochs, each writing one released slice into the ring and rescanning the
// prefix table's dirty suffix (84.5 timesteps on average). It runs at one
// exec thread, as the server's exec workers run every flush.
void BM_IncrementalPrefixFlush(benchmark::State& state) {
  const int entry_threads = exec::Threads();
  exec::SetThreads(1);
  const grid::Dims dims{32, 32, 168};
  const grid::ConsumptionMatrix release = RandomMatrix(dims, 17);
  std::vector<std::vector<double>> slices(static_cast<size_t>(dims.ct));
  for (int t = 0; t < dims.ct; ++t) {
    for (int x = 0; x < dims.cx; ++x) {
      for (int y = 0; y < dims.cy; ++y) slices[t].push_back(release.at(x, y, t));
    }
  }
  auto prefix = ingest::IncrementalPrefix::Create(dims);
  int64_t logical = 0;
  for (auto _ : state) {
    for (const std::vector<double>& slice : slices) {
      (void)prefix->SetSliceLogical(logical++, slice);
      prefix->Flush();
    }
    benchmark::DoNotOptimize(prefix->prefix().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * dims.ct);
  exec::SetThreads(entry_threads);  // later rows keep --threads
}
BENCHMARK(BM_IncrementalPrefixFlush)->Unit(benchmark::kMicrosecond);

void BM_QuadtreeBuild(benchmark::State& state) {
  const auto m = RandomMatrix({32, 32, 220}, 8);
  for (auto _ : state) {
    auto levels = grid::BuildQuadtreeLevels(m, 100, state.range(0));
    benchmark::DoNotOptimize(levels);
  }
}
BENCHMARK(BM_QuadtreeBuild)->Arg(2)->Arg(5)->Unit(benchmark::kMicrosecond);

void BM_MatMul(benchmark::State& state) {
  Rng rng(9);
  const int n = state.range(0);
  const nn::Tensor a = nn::Tensor::Randn({n, n}, rng, 1.0);
  const nn::Tensor b = nn::Tensor::Randn({n, n}, rng, 1.0);
  for (auto _ : state) {
    auto c = nn::MatMul(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);

// MatMul wall clock vs exec worker count; args are {matrix size, threads}.
// The 1-thread rows are the serial baseline for the speedup trajectory.
void BM_MatMulThreads(benchmark::State& state) {
  const int entry_threads = exec::Threads();
  exec::SetThreads(static_cast<int>(state.range(1)));
  Rng rng(9);
  const int n = static_cast<int>(state.range(0));
  const nn::Tensor a = nn::Tensor::Randn({n, n}, rng, 1.0);
  const nn::Tensor b = nn::Tensor::Randn({n, n}, rng, 1.0);
  for (auto _ : state) {
    auto c = nn::MatMul(a, b);
    benchmark::DoNotOptimize(c);
  }
  exec::SetThreads(entry_threads);  // later rows keep --threads
}
BENCHMARK(BM_MatMulThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Unit(benchmark::kMicrosecond);

// End-to-end STPT publish (detail scale, shortened training) at 1 vs 4
// exec threads — the headline wall-clock number for the pipeline.
void BM_StptPublish(benchmark::State& state) {
  const int entry_threads = exec::Threads();
  exec::SetThreads(static_cast<int>(state.range(0)));
  static const bench::Instance* inst = new bench::Instance(bench::MakeInstance(
      datagen::CerSpec(), datagen::SpatialDistribution::kUniform,
      bench::Scale::kDetail, 4242));
  core::StptConfig cfg = bench::DefaultStptConfig(bench::Scale::kDetail);
  cfg.training.epochs = 4;
  for (auto _ : state) {
    Rng rng(1234);
    auto res = core::Stpt(cfg).Publish(inst->cons, inst->unit_sensitivity, rng);
    benchmark::DoNotOptimize(res);
  }
  exec::SetThreads(entry_threads);
}
BENCHMARK(BM_StptPublish)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ---- Per-backend kernel rows ---------------------------------------------
// Each hot kernel family runs against an explicit backend instance so one
// bench invocation produces a naive row and (on capable CPUs) an avx2 row
// under distinct names — the perf gate needs both for speedup checks.

void KernelMatMul(benchmark::State& state, const kernels::Backend* backend) {
  Rng rng(9);
  const int n = static_cast<int>(state.range(0));
  kernels::MatMulShape shape;
  shape.m = shape.n = shape.k = n;
  std::vector<double> a(static_cast<size_t>(n) * n);
  std::vector<double> b(a.size());
  std::vector<double> c(a.size());
  for (auto& v : a) v = rng.NextDouble();
  for (auto& v : b) v = rng.NextDouble();
  for (auto _ : state) {
    backend->MatMulFwd(a.data(), b.data(), c.data(), shape);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * shape.flops());
}

// The products the STPT pattern model trains on, all below the dispatch
// threshold so they run inline: a GRU gate over a 32-sequence batch
// (batch 1, 32 x 32 x 32) and the attention projections over 32 sequences
// of 6 steps (batch 32 with shared B, 192 x 32 x 32). Args are
// {batch, m, n, k}; the backward rows time MatMulBwdA + MatMulBwdB.
void KernelMatMulNN(benchmark::State& state, const kernels::Backend* backend,
                    bool backward) {
  Rng rng(9);
  kernels::MatMulShape shape;
  shape.batch = static_cast<int>(state.range(0));
  shape.m = static_cast<int>(state.range(1));
  shape.n = static_cast<int>(state.range(2));
  shape.k = static_cast<int>(state.range(3));
  std::vector<double> a(shape.batch * shape.a_stride());
  std::vector<double> b(static_cast<size_t>(shape.k) * shape.n);
  std::vector<double> g(shape.batch * shape.c_stride());
  for (auto* v : {&a, &b, &g}) {
    for (auto& x : *v) x = rng.NextDouble();
  }
  std::vector<double> c(g.size()), ga(a.size()), gb(b.size());
  for (auto _ : state) {
    if (backward) {
      backend->MatMulBwdA(g.data(), b.data(), ga.data(), shape);
      backend->MatMulBwdB(g.data(), a.data(), gb.data(), shape);
      benchmark::DoNotOptimize(ga.data());
      benchmark::DoNotOptimize(gb.data());
    } else {
      backend->MatMulFwd(a.data(), b.data(), c.data(), shape);
      benchmark::DoNotOptimize(c.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * shape.flops() *
                          (backward ? 2 : 1));
}

void KernelFftPow2(benchmark::State& state, const kernels::Backend* backend) {
  Rng rng(2);
  std::vector<std::complex<double>> data(state.range(0));
  for (auto& v : data) v = {rng.NextDouble(), 0.0};
  for (auto _ : state) {
    auto copy = data;
    auto status = backend->FftPow2(copy.data(), copy.size(), false);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(copy);
  }
}

void KernelHaar(benchmark::State& state, const kernels::Backend* backend) {
  Rng rng(4);
  std::vector<double> data(state.range(0));
  for (auto& v : data) v = rng.NextDouble();
  for (auto _ : state) {
    auto out = backend->HaarForward(data);
    benchmark::DoNotOptimize(out);
  }
}

void KernelPrefixSum(benchmark::State& state, const kernels::Backend* backend) {
  const auto m = RandomMatrix({32, 32, 120}, 5);
  for (auto _ : state) {
    grid::PrefixSum3D ps(m, backend);
    benchmark::DoNotOptimize(ps);
  }
}

void KernelLaplaceBatch(benchmark::State& state, const kernels::Backend* backend) {
  Rng rng(12);
  std::vector<double> in(state.range(0));
  std::vector<double> out(in.size());
  for (auto& v : in) v = rng.NextDouble();
  const Rng base = rng.Fork(0);
  for (auto _ : state) {
    backend->LaplaceBatch(in.data(), out.data(), in.size(), 1.0, base);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void RegisterKernelBenchmarks() {
  for (const std::string& name : kernels::Registry::Names()) {
    auto created = kernels::Registry::Create(name);
    if (!created.ok()) continue;
    const kernels::Backend* backend = *created;
    const std::string key = "/backend:" + name;
    benchmark::RegisterBenchmark(("BM_KernelMatMul" + key).c_str(),
                                 KernelMatMul, backend)
        ->Arg(128)
        ->Arg(256)
        ->Unit(benchmark::kMicrosecond);
    for (const bool backward : {false, true}) {
      benchmark::RegisterBenchmark(
          ((backward ? "BM_KernelMatMulNNBwd" : "BM_KernelMatMulNN") + key)
              .c_str(),
          KernelMatMulNN, backend, backward)
          ->Args({1, 32, 32, 32})
          ->Args({32, 6, 32, 32})
          ->ArgNames({"batch", "m", "n", "k"})
          ->Unit(benchmark::kMicrosecond);
    }
    benchmark::RegisterBenchmark(("BM_KernelFftPow2" + key).c_str(),
                                 KernelFftPow2, backend)
        ->Arg(1024)
        ->Arg(8192);
    benchmark::RegisterBenchmark(("BM_KernelHaar" + key).c_str(), KernelHaar,
                                 backend)
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_KernelPrefixSum" + key).c_str(),
                                 KernelPrefixSum, backend)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_KernelLaplaceBatch" + key).c_str(),
                                 KernelLaplaceBatch, backend)
        ->Arg(1 << 14);
  }
}

void BM_GruCellForwardBackward(benchmark::State& state) {
  Rng rng(10);
  nn::GruCell cell(16, 16, rng);
  const nn::Tensor x = nn::Tensor::Randn({32, 16}, rng, 1.0);
  const nn::Tensor h = nn::Tensor::Randn({32, 16}, rng, 1.0);
  const nn::Tensor target = nn::Tensor::Randn({32, 16}, rng, 1.0);
  for (auto _ : state) {
    cell.ZeroGrad();
    nn::Tensor loss = nn::MseLoss(cell.Forward(x, h), target);
    loss.Backward();
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_GruCellForwardBackward)->Unit(benchmark::kMicrosecond);

// One training step of the pattern model's recurrent core at its default
// shape (batch 32, input = hidden = 32, 6 steps over SliceSeq of one leaf),
// with a Linear head, MseLoss and Backward(), under the default backend:
// the GRU forward and backward that STPT's pattern training runs per batch.
void BM_GruTrainStep(benchmark::State& state) {
  constexpr int kBatch = 32, kWidth = 32, kSteps = 6;
  Rng rng(14);
  nn::GruCell cell(kWidth, kWidth, rng);
  nn::Linear head(kWidth, 1, rng);
  nn::Tensor input = nn::Tensor::Randn({kBatch, kSteps, kWidth}, rng, 1.0, true);
  const nn::Tensor target = nn::Tensor::Randn({kBatch, 1}, rng, 1.0);
  for (auto _ : state) {
    cell.ZeroGrad();
    head.ZeroGrad();
    input.ZeroGrad();
    nn::Tensor h = nn::Tensor::Zeros({kBatch, kWidth});
    for (int t = 0; t < kSteps; ++t) h = cell.Forward(nn::SliceSeq(input, t), h);
    nn::Tensor loss = nn::MseLoss(head.Forward(h), target);
    loss.Backward();
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_GruTrainStep)->Unit(benchmark::kMicrosecond);

void BM_SelfAttention(benchmark::State& state) {
  Rng rng(11);
  nn::SelfAttention attn(16, rng);
  const nn::Tensor x = nn::Tensor::Randn({32, 6, 16}, rng, 1.0);
  for (auto _ : state) {
    auto out = attn.Forward(x);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SelfAttention)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Split argv: google-benchmark owns --benchmark_*, the strict FlagSet
  // owns everything else (--threads/--profile/--metrics), and the JSON
  // report defaults to BENCH_micro.json.
  std::vector<char*> bench_args;
  std::vector<const char*> our_args;
  bench_args.push_back(argv[0]);
  our_args.push_back(argv[0]);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
      bench_args.push_back(argv[i]);
    } else {
      our_args.push_back(argv[i]);
    }
  }
  FlagSet flags;
  if (const Status st = bench::InitBenchRuntime(
          static_cast<int>(our_args.size()), our_args.data(), flags);
      !st.ok()) {
    std::fprintf(stderr, "error: %s\nflags:\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  static char out_flag[] = "--benchmark_out=BENCH_micro.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    bench_args.push_back(out_flag);
    bench_args.push_back(fmt_flag);
  }
  RegisterKernelBenchmarks();
  int n = static_cast<int>(bench_args.size());
  benchmark::Initialize(&n, bench_args.data());
  benchmark::AddCustomContext("stpt_threads", std::to_string(exec::Threads()));
  benchmark::AddCustomContext("stpt_kernel_backend", kernels::Default()->name());
  benchmark::AddCustomContext("stpt_avx2", kernels::CpuHasAvx2() ? "1" : "0");
  if (benchmark::ReportUnrecognizedArguments(n, bench_args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
