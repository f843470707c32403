// bench_ingest — loopback load generator for the stpt::ingest pipeline:
// feeders -> EventLoopServer -> IngestPipeline -> SnapshotRegistry, with
// query clients hammering the shards the pipeline republishes.
//
//   bench_ingest [--grid=16] [--slices=96] [--feeders=2] [--readings=100000]
//                [--batch=512] [--epoch-readings=8192] [--window=10]
//                [--epsilon=1.0] [--clients=2] [--swap-epochs=10]
//                [--seed=1] [--threads=N] [--out=BENCH_ingest.json]
//
// Two phases run against one --ingest server:
//
//   ingest   --feeders concurrent clients each stream --readings synthetic
//            readings to their own tenant shard in kReadingBatch frames of
//            --batch. Reports sustained readings/s and the republish
//            latency distribution: the RTT of every batch whose ack showed
//            an epoch advance covers the full publication pipeline —
//            w-event DP release, incremental prefix flush, snapshot
//            encode, registry hot swap, ack.
//
//   swap     --clients query clients hammer the first feeder's shard in a
//            closed loop while a feeder keeps streaming until the shard
//            advanced --swap-epochs more epochs. Zero query errors and a
//            monotone epoch is the zero-downtime claim; reports queries
//            served during the swap window and the observed epoch range.
//
// Results are written as JSON to --out with one object per phase.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "ingest/clock.h"
#include "ingest/pipeline.h"
#include "obs/trace.h"
#include "query/range_query.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/registry.h"
#include "serve/wire.h"

namespace {

using namespace stpt;

uint64_t Percentile(std::vector<uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0;
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(sorted_ns.size() - 1));
  return sorted_ns[idx];
}

struct FeederResult {
  uint64_t accepted = 0;
  uint64_t clamped = 0;
  uint64_t rejected = 0;
  uint64_t epoch = 0;
  std::vector<uint64_t> publish_rtts_ns;  ///< RTTs of epoch-advancing batches
  bool failed = false;
};

/// Streams `total` readings to (tenant, tile) in time order over timesteps
/// [t_start, t_start + t_count), `batch` per frame, and flushes.
/// Deterministic in rng. Slices a shard already published are rejected as
/// late, so each phase must feed a fresh timestep range.
FeederResult Feed(int port, const std::string& tenant, int cx, int cy,
                  int t_start, int t_count, int64_t total, int64_t batch,
                  Rng rng) {
  FeederResult out;
  auto client = serve::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    out.failed = true;
    return out;
  }
  const int64_t per_slice = (total + t_count - 1) / t_count;
  std::vector<serve::MeterReading> pending;
  pending.reserve(static_cast<size_t>(batch));
  uint64_t last_epoch = 0;
  for (int64_t i = 0; i < total; ++i) {
    serve::MeterReading r;
    r.meter_id = static_cast<uint64_t>(i);
    r.x = static_cast<int32_t>(rng.UniformInt(0, cx - 1));
    r.y = static_cast<int32_t>(rng.UniformInt(0, cy - 1));
    r.t = static_cast<int32_t>(t_start + i / per_slice);
    r.kwh = rng.Uniform(0.0, 5.0);
    pending.push_back(r);
    if (static_cast<int64_t>(pending.size()) == batch || i + 1 == total) {
      const uint64_t t0 = obs::NowNanos();
      auto ack = client->Ingest(tenant, "0", pending);
      const uint64_t t1 = obs::NowNanos();
      if (!ack.ok()) {
        out.failed = true;
        return out;
      }
      out.accepted += ack->accepted;
      out.clamped += ack->clamped;
      out.rejected += ack->rejected;
      if (ack->epoch > last_epoch) out.publish_rtts_ns.push_back(t1 - t0);
      last_epoch = ack->epoch;
      pending.clear();
    }
  }
  auto ack = client->Ingest(tenant, "0", {});
  if (!ack.ok()) {
    out.failed = true;
    return out;
  }
  if (ack->epoch > last_epoch) out.publish_rtts_ns.push_back(0);
  out.epoch = ack->epoch;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.DefineInt("grid", 16, "grid cells per side");
  flags.DefineInt("slices", 96, "time slices per shard");
  flags.DefineInt("feeders", 2, "concurrent ingest clients (one shard each)");
  flags.DefineInt("readings", 100000, "readings per feeder");
  flags.DefineInt("batch", 512, "readings per kReadingBatch frame");
  flags.DefineInt("epoch-readings", 8192, "publish every N accepted readings");
  flags.DefineInt("window", 10, "w-event window");
  flags.DefineDouble("epsilon", 1.0, "privacy budget per window");
  flags.DefineInt("clients", 2, "query clients during the swap phase");
  flags.DefineInt("swap-epochs", 10, "epoch advances to hammer across");
  flags.DefineInt("seed", 1, "data seed");
  flags.DefineString("out", "BENCH_ingest.json", "result JSON path");
  if (const Status st = bench::InitBenchRuntime(argc, argv, flags); !st.ok()) {
    std::fprintf(stderr, "error: %s\nflags:\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  const int grid = static_cast<int>(flags.GetInt("grid"));
  const int slices = static_cast<int>(flags.GetInt("slices"));
  const int feeders = static_cast<int>(flags.GetInt("feeders"));
  const int64_t readings = flags.GetInt("readings");
  const int64_t batch = flags.GetInt("batch");
  const int num_clients = static_cast<int>(flags.GetInt("clients"));
  const int swap_epochs = static_cast<int>(flags.GetInt("swap-epochs"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const std::string out_path = flags.GetString("out");
  if (grid < 1 || slices < 2 || feeders < 1 || readings < 1 || batch < 1 ||
      num_clients < 1 || swap_epochs < 1) {
    std::fprintf(stderr,
                 "error: all sizes must be positive (and --slices >= 2, the "
                 "phases split the timestep range)\n");
    return 2;
  }

  auto registry = serve::SnapshotRegistry::Create();
  if (!registry.ok()) {
    std::fprintf(stderr, "error: %s\n", registry.status().ToString().c_str());
    return 1;
  }
  ingest::SystemClock clock;
  ingest::IngestOptions options;
  options.dims = grid::Dims{grid, grid, slices};
  options.epoch_readings = flags.GetInt("epoch-readings");
  options.window = static_cast<int>(flags.GetInt("window"));
  options.epsilon = flags.GetDouble("epsilon");
  options.max_shards = feeders + 1;
  auto pipeline =
      ingest::IngestPipeline::Create(registry->get(), &clock, options);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "error: %s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  auto server_or = serve::EventLoopServer::Create(registry->get(),
                                                  serve::EventLoopOptions{});
  if (!server_or.ok()) {
    std::fprintf(stderr, "error: %s\n", server_or.status().ToString().c_str());
    return 1;
  }
  serve::EventLoopServer& server = **server_or;
  server.set_ingest_sink(pipeline->get());
  if (const Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }

  // --- Phase 1: sustained ingest across independent tenant shards. --------
  // Feeds only the first half of the timesteps; the swap phase streams the
  // second half into the hot shard (published slices reject re-feeds).
  const int half = std::max(1, slices / 2);
  std::vector<FeederResult> fed(static_cast<size_t>(feeders));
  const uint64_t ingest_start_ns = obs::NowNanos();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(feeders));
    for (int f = 0; f < feeders; ++f) {
      threads.emplace_back([&, f] {
        fed[static_cast<size_t>(f)] =
            Feed(server.port(), "feed" + std::to_string(f), grid, grid, 0,
                 half, readings, batch, Rng(seed + static_cast<uint64_t>(f)));
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double ingest_wall_s =
      static_cast<double>(obs::NowNanos() - ingest_start_ns) * 1e-9;
  uint64_t accepted = 0, clamped = 0, rejected = 0, epochs = 0;
  std::vector<uint64_t> publish_rtts;
  for (const FeederResult& r : fed) {
    if (r.failed) {
      std::fprintf(stderr, "error: feeder failed\n");
      return 1;
    }
    accepted += r.accepted;
    clamped += r.clamped;
    rejected += r.rejected;
    epochs += r.epoch;
    publish_rtts.insert(publish_rtts.end(), r.publish_rtts_ns.begin(),
                        r.publish_rtts_ns.end());
  }
  std::sort(publish_rtts.begin(), publish_rtts.end());
  // Admitted = accepted + sensitivity-clamped: both flavors traverse the
  // full admission path (loads above unit_sensitivity admit only the
  // clamped remainder), so throughput is measured over all of them.
  const uint64_t admitted = accepted + clamped;
  const double readings_per_sec =
      ingest_wall_s > 0 ? static_cast<double>(admitted) / ingest_wall_s : 0.0;
  const double pub_p50_us =
      static_cast<double>(Percentile(publish_rtts, 0.50)) * 1e-3;
  const double pub_p99_us =
      static_cast<double>(Percentile(publish_rtts, 0.99)) * 1e-3;

  // --- Phase 2: query clients hammer shard "feed0" across hot swaps. ------
  const std::string hot_tenant = "feed0";
  Rng wl_rng(seed + 31);
  auto pool = query::MakeWorkload(query::WorkloadKind::kRandom, options.dims,
                                  1024, wl_rng);
  if (!pool.ok()) {
    std::fprintf(stderr, "error: %s\n", pool.status().ToString().c_str());
    return 1;
  }
  std::atomic<bool> stop{false};
  std::atomic<int64_t> swap_queries{0};
  std::atomic<int> swap_errors{0};
  std::atomic<uint64_t> max_epoch_seen{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      auto client = serve::Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        ++swap_errors;
        return;
      }
      size_t cursor = static_cast<size_t>(c) * 97;
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        query::Workload qbatch(64);
        for (size_t i = 0; i < qbatch.size(); ++i) {
          qbatch[i] = (*pool)[(cursor + i) % pool->size()];
        }
        cursor += qbatch.size();
        auto answers = client->QueryTenant(hot_tenant, "0", qbatch);
        if (!answers.ok() || answers->answers.size() != qbatch.size() ||
            answers->epoch < last_epoch) {
          ++swap_errors;
          return;
        }
        last_epoch = answers->epoch;
        uint64_t seen = max_epoch_seen.load(std::memory_order_relaxed);
        while (seen < last_epoch &&
               !max_epoch_seen.compare_exchange_weak(seen, last_epoch)) {
        }
        swap_queries += static_cast<int64_t>(qbatch.size());
      }
    });
  }
  const uint64_t epoch_before = fed[0].epoch;
  const uint64_t swap_start_ns = obs::NowNanos();
  FeederResult swap_feed;
  {
    // One feeder keeps streaming the hot shard until it advanced
    // --swap-epochs more epochs (epoch-readings per epoch, plus a flush),
    // over the timesteps phase 1 left unpublished.
    swap_feed = Feed(server.port(), hot_tenant, grid, grid, half,
                     slices - half, flags.GetInt("epoch-readings") * swap_epochs,
                     batch, Rng(seed + 1000));
  }
  const double swap_wall_s =
      static_cast<double>(obs::NowNanos() - swap_start_ns) * 1e-9;
  stop.store(true);
  for (std::thread& t : clients) t.join();
  server.Stop();
  if (swap_feed.failed) {
    std::fprintf(stderr, "error: swap feeder failed\n");
    return 1;
  }
  const uint64_t epoch_after = swap_feed.epoch;

  std::printf(
      "ingest: %llu readings (%llu accepted, %llu clamped) over %d feeders "
      "in %.3f s: %.0f readings/s, %llu epochs; republish RTT p50 %.1f us "
      "p99 %.1f us\n",
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(clamped), feeders, ingest_wall_s,
      readings_per_sec, static_cast<unsigned long long>(epochs), pub_p50_us,
      pub_p99_us);
  std::printf(
      "swap:   %lld queries, %d errors across epochs %llu -> %llu "
      "(max seen %llu) in %.3f s\n",
      static_cast<long long>(swap_queries.load()), swap_errors.load(),
      static_cast<unsigned long long>(epoch_before),
      static_cast<unsigned long long>(epoch_after),
      static_cast<unsigned long long>(max_epoch_seen.load()), swap_wall_s);
  if (swap_errors.load() != 0 || epoch_after < epoch_before + 1) {
    std::fprintf(stderr, "error: swap phase saw errors or no epoch advance\n");
    return 1;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"ingest\",\n"
               "  \"grid\": [%d, %d, %d],\n"
               "  \"feeders\": %d,\n"
               "  \"batch\": %lld,\n"
               "  \"epoch_readings\": %lld,\n"
               "  \"window\": %lld,\n"
               "  \"epsilon\": %.3f,\n",
               grid, grid, slices, feeders, static_cast<long long>(batch),
               static_cast<long long>(flags.GetInt("epoch-readings")),
               static_cast<long long>(flags.GetInt("window")),
               flags.GetDouble("epsilon"));
  std::fprintf(out,
               "  \"ingest\": {\n"
               "    \"readings_total\": %llu,\n"
               "    \"accepted_total\": %llu,\n"
               "    \"clamped_total\": %llu,\n"
               "    \"rejected_total\": %llu,\n"
               "    \"wall_seconds\": %.6f,\n"
               "    \"readings_per_sec\": %.1f,\n"
               "    \"epochs_published\": %llu,\n"
               "    \"republish_rtt_p50_us\": %.2f,\n"
               "    \"republish_rtt_p99_us\": %.2f\n"
               "  },\n",
               static_cast<unsigned long long>(admitted),
               static_cast<unsigned long long>(accepted),
               static_cast<unsigned long long>(clamped),
               static_cast<unsigned long long>(rejected), ingest_wall_s,
               readings_per_sec, static_cast<unsigned long long>(epochs),
               pub_p50_us, pub_p99_us);
  std::fprintf(out,
               "  \"swap\": {\n"
               "    \"query_clients\": %d,\n"
               "    \"queries_total\": %lld,\n"
               "    \"query_errors\": %d,\n"
               "    \"wall_seconds\": %.6f,\n"
               "    \"epoch_before\": %llu,\n"
               "    \"epoch_after\": %llu\n"
               "  }\n"
               "}\n",
               num_clients, static_cast<long long>(swap_queries.load()),
               swap_errors.load(), swap_wall_s,
               static_cast<unsigned long long>(epoch_before),
               static_cast<unsigned long long>(epoch_after));
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
