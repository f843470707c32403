// bench_serve — multi-threaded loopback load generator for the stpt::serve
// stack: snapshots -> SnapshotRegistry -> EventLoopServer <- N clients.
//
//   bench_serve [--grid=32] [--slices=120] [--clients=4] [--unique=4096]
//               [--rounds=4] [--batch=256] [--seed=1] [--tenants=4]
//               [--zipf=1.0] [--open-rate=200000] [--open-seconds=1.0]
//               [--threads=N] [--out=BENCH_serve.json]
//
// One server is started with a default shard plus --tenants tenant shards,
// then three phases run against it:
//
//   single       closed loop against the default shard (empty tenant and
//                tile): each client cycles a shared pool of `unique` random
//                range queries `rounds` times in batches of `batch`.
//                Comparable to the historical single-snapshot number.
//   multi_tenant closed loop: every batch is addressed to a tenant drawn
//                from a Zipf(s=--zipf) popularity distribution, so a few
//                tenants are hot and the tail is cold — the shape real
//                utility fleets have.
//   open_loop    open loop: batches are launched on a fixed arrival
//                schedule targeting --open-rate queries/s for
//                --open-seconds, Zipf-addressed as above. Reports achieved
//                vs offered rate and RTT percentiles under that schedule.
//
// Results are written as JSON to --out with one object per phase.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "exec/timing.h"
#include "query/range_query.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/query_server.h"
#include "serve/registry.h"
#include "serve/snapshot.h"

namespace {

using namespace stpt;

uint64_t Percentile(std::vector<uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0;
  const size_t idx = static_cast<size_t>(q * static_cast<double>(sorted_ns.size() - 1));
  return sorted_ns[idx];
}

serve::Snapshot MakeSnapshot(const grid::Dims& dims, uint64_t seed,
                             const std::string& label) {
  auto matrix = grid::ConsumptionMatrix::Create(dims);
  if (!matrix.ok()) {
    std::fprintf(stderr, "error: %s\n", matrix.status().ToString().c_str());
    std::exit(1);
  }
  Rng rng(seed);
  for (double& v : matrix->mutable_data()) v = rng.LogNormal(3.0, 1.0);
  serve::SnapshotMeta meta;
  meta.algorithm = "bench-" + label;
  meta.eps_total = 30.0;
  return serve::Snapshot::FromMatrix(*matrix, meta);
}

/// Zipf popularity over `n` tenants with exponent `s`: weight of rank r is
/// (r+1)^-s. Sampled by inverting a precomputed CDF, so a draw is one
/// NextDouble plus a binary search.
struct ZipfSampler {
  std::vector<double> cdf;

  ZipfSampler(int n, double s) {
    cdf.resize(static_cast<size_t>(n));
    double total = 0.0;
    for (int r = 0; r < n; ++r) total += std::pow(static_cast<double>(r + 1), -s);
    double acc = 0.0;
    for (int r = 0; r < n; ++r) {
      acc += std::pow(static_cast<double>(r + 1), -s) / total;
      cdf[static_cast<size_t>(r)] = acc;
    }
    cdf.back() = 1.0;  // guard against rounding
  }

  int Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<int>(it - cdf.begin());
  }
};

struct PhaseResult {
  int64_t queries = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  int failed = 0;
};

PhaseResult Summarize(int64_t queries, double wall_s,
                      std::vector<std::vector<uint64_t>>& rtts,
                      const std::vector<int>& failures) {
  PhaseResult out;
  out.queries = queries;
  out.wall_s = wall_s;
  out.qps = wall_s > 0 ? static_cast<double>(queries) / wall_s : 0.0;
  for (int f : failures) out.failed += f;
  std::vector<uint64_t> all;
  for (auto& r : rtts) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  out.p50_us = static_cast<double>(Percentile(all, 0.50)) * 1e-3;
  out.p99_us = static_cast<double>(Percentile(all, 0.99)) * 1e-3;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.DefineInt("grid", 32, "grid cells per side");
  flags.DefineInt("slices", 120, "time slices");
  flags.DefineInt("clients", 4, "concurrent loopback clients");
  flags.DefineInt("unique", 4096, "unique queries in the shared pool");
  flags.DefineInt("rounds", 4, "passes over the pool per client");
  flags.DefineInt("batch", 256, "queries per request frame");
  flags.DefineInt("seed", 1, "data/workload seed");
  flags.DefineInt("tenants", 4, "tenant shards for the multi-tenant phases");
  flags.DefineDouble("zipf", 1.0, "Zipf exponent for tenant popularity");
  flags.DefineDouble("open-rate", 200000.0,
                     "open-loop offered load, queries/second");
  flags.DefineDouble("open-seconds", 1.0, "open-loop phase duration");
  flags.DefineString("out", "BENCH_serve.json", "result JSON path");
  if (const Status st = bench::InitBenchRuntime(argc, argv, flags); !st.ok()) {
    std::fprintf(stderr, "error: %s\nflags:\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  const int grid = static_cast<int>(flags.GetInt("grid"));
  const int slices = static_cast<int>(flags.GetInt("slices"));
  const int num_clients = static_cast<int>(flags.GetInt("clients"));
  const int unique = static_cast<int>(flags.GetInt("unique"));
  const int rounds = static_cast<int>(flags.GetInt("rounds"));
  const int batch_size = static_cast<int>(flags.GetInt("batch"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const int num_tenants = static_cast<int>(flags.GetInt("tenants"));
  const double zipf_s = flags.GetDouble("zipf");
  const double open_rate = flags.GetDouble("open-rate");
  const double open_seconds = flags.GetDouble("open-seconds");
  const std::string out_path = flags.GetString("out");
  if (num_tenants < 1 || open_rate <= 0 || open_seconds <= 0) {
    std::fprintf(stderr, "error: --tenants >= 1, --open-rate > 0, --open-seconds > 0\n");
    return 2;
  }

  // One registry serves every phase: the default shard answers the single
  // closed loop, and `tenants` extra shards (distinct data seeds, so their
  // answers differ) take the Zipf-addressed traffic.
  const grid::Dims dims{grid, grid, slices};
  auto registry = serve::SnapshotRegistry::Create();
  if (!registry.ok()) {
    std::fprintf(stderr, "error: %s\n", registry.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> tenant_names(static_cast<size_t>(num_tenants));
  {
    auto st = (*registry)->Load({serve::kDefaultTenant, serve::kDefaultTile},
                                MakeSnapshot(dims, seed, "default"));
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.status().ToString().c_str());
      return 1;
    }
    for (int t = 0; t < num_tenants; ++t) {
      tenant_names[static_cast<size_t>(t)] = "tenant" + std::to_string(t);
      st = (*registry)->Load({tenant_names[static_cast<size_t>(t)], "0"},
                             MakeSnapshot(dims, seed + 100 + static_cast<uint64_t>(t),
                                          tenant_names[static_cast<size_t>(t)]));
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.status().ToString().c_str());
        return 1;
      }
    }
  }
  auto server_or = serve::EventLoopServer::Create(registry->get(),
                                                  serve::EventLoopOptions{});
  if (!server_or.ok()) {
    std::fprintf(stderr, "error: %s\n", server_or.status().ToString().c_str());
    return 1;
  }
  serve::EventLoopServer& server = **server_or;
  if (const Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }

  Rng wl_rng(seed + 1);
  auto pool = query::MakeWorkload(query::WorkloadKind::kRandom, dims, unique, wl_rng);
  if (!pool.ok()) {
    std::fprintf(stderr, "error: %s\n", pool.status().ToString().c_str());
    return 1;
  }
  const ZipfSampler zipf(num_tenants, zipf_s);

  // --- Phase 1: closed loop against the default shard. --------------------
  const int64_t queries_per_client = static_cast<int64_t>(unique) * rounds;
  PhaseResult single;
  {
    std::vector<std::vector<uint64_t>> rtts(num_clients);
    std::vector<int> failures(num_clients, 0);
    const uint64_t start_ns = exec::NowNanos();
    std::vector<std::thread> clients;
    clients.reserve(num_clients);
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        auto client = serve::Client::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          ++failures[c];
          return;
        }
        // Stagger start offsets so clients do not move in lockstep.
        int64_t cursor = (static_cast<int64_t>(c) * unique) / num_clients;
        for (int64_t done = 0; done < queries_per_client;) {
          const int n = static_cast<int>(
              std::min<int64_t>(batch_size, queries_per_client - done));
          query::Workload batch(static_cast<size_t>(n));
          for (int i = 0; i < n; ++i) batch[i] = (*pool)[(cursor + i) % unique];
          const uint64_t t0 = exec::NowNanos();
          auto answers = client->QueryTenant("", "", batch);
          const uint64_t t1 = exec::NowNanos();
          if (!answers.ok() || answers->answers.size() != batch.size()) {
            ++failures[c];
            return;
          }
          rtts[c].push_back(t1 - t0);
          cursor = (cursor + n) % unique;
          done += n;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall_s = static_cast<double>(exec::NowNanos() - start_ns) * 1e-9;
    single = Summarize(queries_per_client * num_clients, wall_s, rtts, failures);
  }
  serve::ServerStats default_stats;
  if (auto gen = (*registry)->Route(serve::kDefaultTenant, serve::kDefaultTile);
      gen.ok()) {
    default_stats = (*gen)->engine->stats();
  }

  // --- Phase 2: closed loop, Zipf-addressed tenants. ----------------------
  PhaseResult multi;
  std::vector<int64_t> tenant_batches(static_cast<size_t>(num_tenants), 0);
  {
    std::vector<std::vector<uint64_t>> rtts(num_clients);
    std::vector<int> failures(num_clients, 0);
    std::vector<std::vector<int64_t>> per_client_tenant(
        num_clients, std::vector<int64_t>(static_cast<size_t>(num_tenants), 0));
    const uint64_t start_ns = exec::NowNanos();
    std::vector<std::thread> clients;
    clients.reserve(num_clients);
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        auto client = serve::Client::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          ++failures[c];
          return;
        }
        Rng rng(seed + 7000 + static_cast<uint64_t>(c));
        int64_t cursor = (static_cast<int64_t>(c) * unique) / num_clients;
        for (int64_t done = 0; done < queries_per_client;) {
          const int n = static_cast<int>(
              std::min<int64_t>(batch_size, queries_per_client - done));
          query::Workload batch(static_cast<size_t>(n));
          for (int i = 0; i < n; ++i) batch[i] = (*pool)[(cursor + i) % unique];
          const int tenant = zipf.Sample(rng);
          const uint64_t t0 = exec::NowNanos();
          auto answers = client->QueryTenant(
              tenant_names[static_cast<size_t>(tenant)], "0", batch);
          const uint64_t t1 = exec::NowNanos();
          if (!answers.ok() || answers->answers.size() != batch.size()) {
            ++failures[c];
            return;
          }
          rtts[c].push_back(t1 - t0);
          ++per_client_tenant[c][static_cast<size_t>(tenant)];
          cursor = (cursor + n) % unique;
          done += n;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall_s = static_cast<double>(exec::NowNanos() - start_ns) * 1e-9;
    multi = Summarize(queries_per_client * num_clients, wall_s, rtts, failures);
    for (int c = 0; c < num_clients; ++c) {
      for (int t = 0; t < num_tenants; ++t) {
        tenant_batches[static_cast<size_t>(t)] +=
            per_client_tenant[c][static_cast<size_t>(t)];
      }
    }
  }

  // --- Phase 3: open loop at a fixed offered rate. ------------------------
  // Each client launches batches on its own fixed schedule (offered load is
  // split evenly), so the arrival process does not slow down when the
  // server does — if a response is late the next send is already due and
  // fires immediately, and the achieved rate falls below the target
  // instead of silently hiding the queueing delay.
  PhaseResult open;
  int64_t open_queries = 0;
  {
    const double batches_per_sec_per_client =
        open_rate / (static_cast<double>(batch_size) * num_clients);
    const uint64_t interval_ns =
        static_cast<uint64_t>(1e9 / batches_per_sec_per_client);
    std::vector<std::vector<uint64_t>> rtts(num_clients);
    std::vector<int> failures(num_clients, 0);
    std::vector<int64_t> sent(num_clients, 0);
    const uint64_t start_ns = exec::NowNanos();
    const uint64_t stop_ns =
        start_ns + static_cast<uint64_t>(open_seconds * 1e9);
    std::vector<std::thread> clients;
    clients.reserve(num_clients);
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        auto client = serve::Client::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          ++failures[c];
          return;
        }
        Rng rng(seed + 9000 + static_cast<uint64_t>(c));
        int64_t cursor = (static_cast<int64_t>(c) * unique) / num_clients;
        // Stagger schedules so the clients' arrivals interleave.
        uint64_t next_send =
            start_ns + (interval_ns * static_cast<uint64_t>(c)) / num_clients;
        while (true) {
          const uint64_t now = exec::NowNanos();
          if (now >= stop_ns) break;
          if (now < next_send) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(next_send - now));
            continue;
          }
          next_send += interval_ns;
          query::Workload batch(static_cast<size_t>(batch_size));
          for (int i = 0; i < batch_size; ++i) {
            batch[i] = (*pool)[(cursor + i) % unique];
          }
          const int tenant = zipf.Sample(rng);
          const uint64_t t0 = exec::NowNanos();
          auto answers = client->QueryTenant(
              tenant_names[static_cast<size_t>(tenant)], "0", batch);
          const uint64_t t1 = exec::NowNanos();
          if (!answers.ok() ||
              answers->answers.size() != static_cast<size_t>(batch_size)) {
            ++failures[c];
            return;
          }
          rtts[c].push_back(t1 - t0);
          ++sent[c];
          cursor = (cursor + batch_size) % unique;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall_s = static_cast<double>(exec::NowNanos() - start_ns) * 1e-9;
    for (int64_t s : sent) open_queries += s * batch_size;
    open = Summarize(open_queries, wall_s, rtts, failures);
  }

  server.Stop();

  const int failed = single.failed + multi.failed + open.failed;
  if (failed > 0) {
    std::fprintf(stderr, "error: %d client(s) failed\n", failed);
    return 1;
  }

  std::printf(
      "single:       %lld queries, %.3f s wall: %.0f q/s; RTT p50 %.1f us "
      "p99 %.1f us\n",
      static_cast<long long>(single.queries), single.wall_s, single.qps,
      single.p50_us, single.p99_us);
  std::printf(
      "multi_tenant: %lld queries over %d tenants (zipf %.2f), %.3f s wall: "
      "%.0f q/s; RTT p50 %.1f us p99 %.1f us\n",
      static_cast<long long>(multi.queries), num_tenants, zipf_s, multi.wall_s,
      multi.qps, multi.p50_us, multi.p99_us);
  std::printf(
      "open_loop:    offered %.0f q/s, achieved %.0f q/s (%lld queries, "
      "%.3f s); RTT p50 %.1f us p99 %.1f us\n",
      open_rate, open.qps, static_cast<long long>(open.queries), open.wall_s,
      open.p50_us, open.p99_us);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"serve\",\n"
               "  \"grid\": [%d, %d, %d],\n"
               "  \"clients\": %d,\n"
               "  \"unique_queries\": %d,\n"
               "  \"rounds\": %d,\n"
               "  \"batch\": %d,\n"
               "  \"tenants\": %d,\n"
               "  \"zipf_s\": %.3f,\n",
               grid, grid, slices, num_clients, unique, rounds, batch_size,
               num_tenants, zipf_s);
  std::fprintf(out,
               "  \"single\": {\n"
               "    \"queries_total\": %lld,\n"
               "    \"wall_seconds\": %.6f,\n"
               "    \"qps\": %.1f,\n"
               "    \"batch_rtt_p50_us\": %.2f,\n"
               "    \"batch_rtt_p99_us\": %.2f,\n"
               "    \"server\": %s\n"
               "  },\n",
               static_cast<long long>(single.queries), single.wall_s,
               single.qps, single.p50_us, single.p99_us,
               default_stats.ToJson().c_str());
  std::fprintf(out,
               "  \"multi_tenant\": {\n"
               "    \"queries_total\": %lld,\n"
               "    \"wall_seconds\": %.6f,\n"
               "    \"qps\": %.1f,\n"
               "    \"batch_rtt_p50_us\": %.2f,\n"
               "    \"batch_rtt_p99_us\": %.2f,\n"
               "    \"tenant_batches\": [",
               static_cast<long long>(multi.queries), multi.wall_s, multi.qps,
               multi.p50_us, multi.p99_us);
  for (int t = 0; t < num_tenants; ++t) {
    std::fprintf(out, "%s%lld", t == 0 ? "" : ", ",
                 static_cast<long long>(tenant_batches[static_cast<size_t>(t)]));
  }
  std::fprintf(out,
               "]\n"
               "  },\n"
               "  \"open_loop\": {\n"
               "    \"target_qps\": %.1f,\n"
               "    \"achieved_qps\": %.1f,\n"
               "    \"queries_total\": %lld,\n"
               "    \"wall_seconds\": %.6f,\n"
               "    \"batch_rtt_p50_us\": %.2f,\n"
               "    \"batch_rtt_p99_us\": %.2f\n"
               "  }\n"
               "}\n",
               open_rate, open.qps, static_cast<long long>(open.queries),
               open.wall_s, open.p50_us, open.p99_us);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
