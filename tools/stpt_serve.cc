// stpt_serve — publish-once / serve-many front end for published grids.
//
//   stpt_serve serve    [--snapshot=g.stpt] [--tenant=default] [--tile=0]
//                       [--port=7261] [--bind=127.0.0.1] [--port-file=path]
//                       [--max-inflight=64] [--threads=N]
//                       [--ingest [--ingest-dims=8,8,64]
//                        [--ingest-epoch-readings=4096] [--ingest-epoch-ms=0]
//                        [--ingest-publish-ms=0] [--ingest-window=10]
//                        [--ingest-epsilon=1.0] [--ingest-unit=1.0]
//                        [--ingest-grace=0] [--ingest-cap=1048576]
//                        [--ingest-seed=24301] [--ingest-snapshot-dir=]
//                        [--ingest-ledger=] [--ingest-wal-dir=]]
//   stpt_serve query    --port=P [--host=127.0.0.1] [--tenant=] [--tile=]
//                       [--count=1000] [--kind=random|small|large] [--seed=7]
//                       [--batch=256] [--trace-sample=N]
//   stpt_serve verify   --snapshot=g.stpt --port=P [--tenant=] [--tile=]
//                       [--host=...] [--count=10000] [--kind=random]
//                       [--seed=7] [--batch=256] [--trace-sample=N]
//   stpt_serve load     --port=P --tenant=T [--tile=0] --snapshot=path
//   stpt_serve swap     --port=P --tenant=T [--tile=0] --snapshot=path
//   stpt_serve unload   --port=P --tenant=T [--tile=0]
//   stpt_serve stats    --port=P [--host=...] [--tenant=T [--tile=0]]
//   stpt_serve metrics  --port=P [--host=...]
//   stpt_serve trace    --port=P [--host=...] [--limit=N] [--trace-id=HEX]
//   stpt_serve shutdown --port=P [--host=...]
//
// `serve` starts the sharded event-loop server. With --snapshot it loads
// that container (written by `stpt_cli publish --snapshot=...`) as the
// --tenant/--tile shard (default tenant "default", tile "0" — the shard a
// request with an empty tenant and tile addresses); without it the server
// starts empty and shards are loaded at runtime. With --ingest the server
// additionally accepts kReadingBatch frames (see stpt_ingest): readings
// accumulate per shard and every epoch boundary republishes that shard's
// grid under w-event DP, hot-swapping it into the registry with zero
// dropped queries. Admission clamps each meter's per-cell-per-timestep
// contribution to ±--ingest-unit (the sensitivity the noise is calibrated
// for); --ingest-grace keeps that many completed slices open for late
// backfill, and --ingest-cap bounds the per-shard clamp-tracking map.
// With --ingest-wal-dir every batch is write-ahead-logged and a
// restarted server replays the WALs at startup, resuming each shard —
// accumulator, noise stream, budget accountant and audit ledger —
// bit-for-bit where the dead process stopped. --ingest-publish-ms runs a
// periodic publish sweep so idle shards still meet --ingest-epoch-ms
// deadlines (it defaults to --ingest-epoch-ms when that is set).
// `load`/`swap`/`unload` administer shards over the
// wire: load publishes a new (tenant, tile) shard, swap hot-swaps an
// existing shard to a new snapshot with zero dropped queries, unload
// removes one. The path is resolved on the *server's* filesystem.
//
// `query` generates a workload against the dims of the --tenant/--tile
// shard (empty = the default shard), sends every batch to that shard and
// reports throughput. `verify` additionally loads the snapshot locally and
// requires every served answer to be bit-identical to direct in-memory
// evaluation — the end-to-end integrity check used by CI (it holds across
// hot-swaps to a byte-identical snapshot). `stats` prints serving counters as JSON
// (per-shard when --tenant is given); `metrics` prints every metric
// registry in Prometheus text exposition format.
//
// `--trace-sample=N` on query/verify attaches a deterministic trace
// context to every request batch and head-samples traces at
// 1/N (N=1 samples every batch; 0, the default, sends untraced frames
// that are byte-identical to the pre-trace protocol). Sampled requests
// leave lifecycle spans in the server's trace store; fetch them as JSON
// with `stpt_serve trace` (most recent --limit traces, or one --trace-id).
//
// Every subcommand also accepts --trace=<path> (Chrome trace-event JSON
// written at exit), --log-level=<debug|info|warn|error|off> (structured
// log threshold, default warn), and --kernel-backend=<naive|avx2|auto>
// (kernel backend for prefix builds and ingest scans; strict — requesting
// avx2 on an unsupported CPU is an error).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "ingest/clock.h"
#include "ingest/pipeline.h"
#include "kernels/backend.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "query/range_query.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/query_server.h"
#include "serve/registry.h"
#include "serve/snapshot.h"

namespace {

using namespace stpt;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: stpt_serve <serve|query|verify|load|swap|unload|stats|"
               "metrics|trace|shutdown> [--options]\n"
               "see the header of tools/stpt_serve.cc for details\n");
  return 2;
}

void DefineCommonFlags(FlagSet& flags) {
  flags.DefineInt("threads", 0, "exec pool size (0 = auto / STPT_THREADS)");
  flags.DefineString("trace", "",
                     "write a Chrome trace-event JSON to this path at exit");
  flags.DefineString("log-level", "warn",
                     "structured-log threshold (debug, info, warn, error, off)");
  flags.DefineString("kernel-backend", "auto",
                     "kernel backend (naive, avx2, auto)");
}

void DefineClientFlags(FlagSet& flags) {
  flags.DefineString("host", "127.0.0.1", "server host");
  flags.DefineInt("port", 0, "server port");
}

void DefineShardFlags(FlagSet& flags) {
  flags.DefineString("tenant", "", "tenant name (empty = default shard)");
  flags.DefineString("tile", "", "grid tile within the tenant");
}

FlagSet ServeFlags() {
  FlagSet flags;
  DefineCommonFlags(flags);
  flags.DefineString("snapshot", "",
                     "snapshot container to serve (empty = start with no shards)");
  flags.DefineString("tenant", serve::kDefaultTenant,
                     "tenant the --snapshot shard is published under");
  flags.DefineString("tile", serve::kDefaultTile,
                     "tile the --snapshot shard is published under");
  flags.DefineString("bind", "127.0.0.1", "listen address");
  flags.DefineInt("port", 0, "listen port (0 = ephemeral)");
  flags.DefineString("port-file", "", "write the bound port to this file");
  flags.DefineInt("max-inflight", 64,
                  "dispatched-batch backlog before reads are deferred");
  flags.DefineBool("ingest", false,
                   "accept kReadingBatch frames into a live ingest pipeline");
  flags.DefineString("ingest-dims", "8,8,64",
                     "CX,CY,CT accumulator dims for ingest shards");
  flags.DefineInt("ingest-epoch-readings", 4096,
                  "publish after this many accepted readings (0 = off)");
  flags.DefineInt("ingest-epoch-ms", 0,
                  "publish after this many wall-clock ms (0 = off)");
  flags.DefineInt("ingest-publish-ms", 0,
                  "periodic publish-sweep timer in ms (0 = follow "
                  "--ingest-epoch-ms)");
  flags.DefineInt("ingest-window", 10, "w-event window in time slices");
  flags.DefineDouble("ingest-epsilon", 1.0, "privacy budget per w-event window");
  flags.DefineDouble("ingest-unit", 1.0,
                     "per-user per-slice contribution bound (sensitivity), "
                     "enforced by clamping at admission");
  flags.DefineInt("ingest-grace", 0,
                  "completed slices kept open for late backfill");
  flags.DefineInt("ingest-cap", 1 << 20,
                  "per-shard cap on tracked contribution keys (0 = unlimited)");
  flags.DefineInt("ingest-seed", 0x5EED, "noise seed for ingest shards");
  flags.DefineString("ingest-snapshot-dir", "",
                     "write each published epoch as a .stpt container here");
  flags.DefineString("ingest-ledger", "",
                     "JSONL audit-ledger path (per-shard suffixes for "
                     "non-default shards)");
  flags.DefineString("ingest-wal-dir", "",
                     "per-shard reading WAL directory; enables crash "
                     "recovery on restart");
  return flags;
}

bool ParseDims(const std::string& text, grid::Dims* dims) {
  return std::sscanf(text.c_str(), "%d,%d,%d", &dims->cx, &dims->cy,
                     &dims->ct) == 3;
}

FlagSet QueryFlags() {
  FlagSet flags;
  DefineCommonFlags(flags);
  DefineClientFlags(flags);
  DefineShardFlags(flags);
  flags.DefineString("snapshot", "grid.stpt", "local snapshot (verify only)");
  flags.DefineString("kind", "random", "workload kind (random, small, large)");
  flags.DefineInt("count", -1, "queries to run (-1 = 1000, or 10000 for verify)");
  flags.DefineInt("batch", 256, "queries per request frame");
  flags.DefineInt("seed", 7, "workload seed");
  flags.DefineInt("trace-sample", 0,
                  "attach trace contexts, head-sampled 1/N (0 = untraced)");
  return flags;
}

FlagSet TraceFlags() {
  FlagSet flags;
  DefineCommonFlags(flags);
  DefineClientFlags(flags);
  flags.DefineInt("limit", 0, "most recent traces to fetch (0 = all stored)");
  flags.DefineString("trace-id", "", "fetch one trace by 32-hex-char id");
  return flags;
}

FlagSet AdminFlags() {
  FlagSet flags;
  DefineCommonFlags(flags);
  DefineClientFlags(flags);
  flags.DefineString("tenant", serve::kDefaultTenant, "tenant to administer");
  flags.DefineString("tile", serve::kDefaultTile, "tile to administer");
  flags.DefineString("snapshot", "",
                     "snapshot container path, resolved on the server (load/swap)");
  return flags;
}

FlagSet StatsFlags() {
  FlagSet flags;
  DefineCommonFlags(flags);
  DefineClientFlags(flags);
  DefineShardFlags(flags);
  return flags;
}

FlagSet ClientOnlyFlags() {
  FlagSet flags;
  DefineCommonFlags(flags);
  DefineClientFlags(flags);
  return flags;
}

StatusOr<query::WorkloadKind> KindByName(const std::string& name) {
  if (name == "random") return query::WorkloadKind::kRandom;
  if (name == "small") return query::WorkloadKind::kSmall;
  if (name == "large") return query::WorkloadKind::kLarge;
  return Status::NotFound("unknown workload kind '" + name + "'");
}

StatusOr<serve::Client> ConnectFromFlags(const FlagSet& flags) {
  return serve::Client::Connect(flags.GetString("host"),
                                static_cast<int>(flags.GetInt("port")));
}

int RunServe(const FlagSet& flags) {
  auto registry = serve::SnapshotRegistry::Create();
  if (!registry.ok()) return Fail(registry.status());

  if (!flags.GetString("snapshot").empty()) {
    const serve::ShardKey key{flags.GetString("tenant"), flags.GetString("tile")};
    auto epoch = (*registry)->LoadFile(key, flags.GetString("snapshot"));
    if (!epoch.ok()) return Fail(epoch.status());
  }

  // Declared before `server` so the sink outlives the event loop.
  ingest::SystemClock ingest_clock;
  std::unique_ptr<ingest::IngestPipeline> pipeline;
  if (flags.GetBool("ingest")) {
    ingest::IngestOptions ingest_options;
    if (!ParseDims(flags.GetString("ingest-dims"), &ingest_options.dims)) {
      return Fail(Status::InvalidArgument("--ingest-dims wants CX,CY,CT"));
    }
    ingest_options.epoch_readings = flags.GetInt("ingest-epoch-readings");
    ingest_options.epoch_ticks_ns = flags.GetInt("ingest-epoch-ms") * 1000000;
    ingest_options.window = static_cast<int>(flags.GetInt("ingest-window"));
    ingest_options.epsilon = flags.GetDouble("ingest-epsilon");
    ingest_options.unit_sensitivity = flags.GetDouble("ingest-unit");
    ingest_options.backfill_grace = static_cast<int>(flags.GetInt("ingest-grace"));
    ingest_options.contribution_cap = flags.GetInt("ingest-cap");
    ingest_options.seed = static_cast<uint64_t>(flags.GetInt("ingest-seed"));
    ingest_options.snapshot_dir = flags.GetString("ingest-snapshot-dir");
    ingest_options.ledger_path = flags.GetString("ingest-ledger");
    ingest_options.wal_dir = flags.GetString("ingest-wal-dir");
    auto built = ingest::IngestPipeline::Create(registry->get(), &ingest_clock,
                                                ingest_options);
    if (!built.ok()) return Fail(built.status());
    pipeline = std::move(*built);
    // Crash recovery before the listener opens: any shard a dead process
    // logged is replayed and re-published, so the first query after a
    // restart already sees the pre-crash epochs.
    if (const Status st = pipeline->Recover(ingest_options.snapshot_dir,
                                            ingest_options.ledger_path);
        !st.ok()) {
      return Fail(st);
    }
  }

  serve::EventLoopOptions options;
  options.bind_address = flags.GetString("bind");
  options.port = static_cast<int>(flags.GetInt("port"));
  options.max_inflight_batches = static_cast<int>(flags.GetInt("max-inflight"));
  // The publish timer rides the tick-epoch deadline unless overridden, so
  // an idle shard still publishes when --ingest-epoch-ms elapses.
  options.ingest_publish_interval_ms = flags.Provided("ingest-publish-ms")
                                           ? flags.GetInt("ingest-publish-ms")
                                           : flags.GetInt("ingest-epoch-ms");
  auto server = serve::EventLoopServer::Create(registry->get(), options);
  if (!server.ok()) return Fail(server.status());
  if (pipeline != nullptr) (*server)->set_ingest_sink(pipeline.get());
  if (const Status st = (*server)->Start(); !st.ok()) return Fail(st);

  if (flags.Provided("port-file")) {
    std::ofstream out(flags.GetString("port-file"));
    out << (*server)->port() << "\n";
  }
  const auto shards = (*registry)->List();
  if (shards.empty()) {
    std::printf("serving 0 shards on %s:%d (load via 'stpt_serve load')\n",
                options.bind_address.c_str(), (*server)->port());
  } else {
    for (const auto& shard : shards) {
      std::printf("serving %s/%s: %s release %dx%dx%d (eps=%.1f) on %s:%d\n",
                  shard.key.tenant.c_str(), shard.key.tile.c_str(),
                  shard.meta.algorithm.c_str(), shard.dims.cx, shard.dims.cy,
                  shard.dims.ct, shard.meta.eps_total,
                  options.bind_address.c_str(), (*server)->port());
    }
  }
  if (pipeline != nullptr) {
    std::printf("ingest enabled: dims %s, epoch at %lld readings / %lld ms, "
                "window %lld, eps %.3f\n",
                flags.GetString("ingest-dims").c_str(),
                static_cast<long long>(flags.GetInt("ingest-epoch-readings")),
                static_cast<long long>(flags.GetInt("ingest-epoch-ms")),
                static_cast<long long>(flags.GetInt("ingest-window")),
                flags.GetDouble("ingest-epsilon"));
  }
  std::fflush(stdout);
  (*server)->Wait();
  (*server)->Stop();
  for (const auto& shard : (*registry)->List()) {
    std::printf(
        "shard %s/%s epoch %llu: served %llu queries, batch p99 %.1f us\n",
        shard.key.tenant.c_str(), shard.key.tile.c_str(),
        static_cast<unsigned long long>(shard.epoch),
        static_cast<unsigned long long>(shard.stats.queries),
        static_cast<double>(shard.stats.p99_ns) * 1e-3);
  }
  return 0;
}

/// Shared query driver for `query` (report only) and `verify` (compare to a
/// locally evaluated snapshot). Returns nonzero on any mismatch. Sizes the
/// workload from, and sends every batch to, the --tenant/--tile shard.
int RunQueryOrVerify(const FlagSet& flags, bool verify) {
  auto client = ConnectFromFlags(flags);
  if (!client.ok()) return Fail(client.status());

  const std::string tenant = flags.GetString("tenant");
  const std::string tile = flags.GetString("tile");
  auto meta = client->Meta(tenant, tile);
  if (!meta.ok()) return Fail(meta.status());

  serve::Snapshot local;
  if (verify) {
    auto snap = serve::ReadSnapshot(flags.GetString("snapshot"));
    if (!snap.ok()) return Fail(snap.status());
    if (!(snap->sanitized.dims() == meta->dims)) {
      return Fail(Status::FailedPrecondition(
          "verify: local snapshot dims differ from the server's"));
    }
    local = std::move(*snap);
  }

  auto kind = KindByName(flags.GetString("kind"));
  if (!kind.ok()) return Fail(kind.status());
  const int count = flags.Provided("count") ? static_cast<int>(flags.GetInt("count"))
                                            : (verify ? 10000 : 1000);
  const int batch_size = static_cast<int>(flags.GetInt("batch"));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  auto workload = query::MakeWorkload(*kind, meta->dims, count, rng);
  if (!workload.ok()) return Fail(workload.status());

  const grid::PrefixSum3D* direct = nullptr;
  grid::PrefixSum3D direct_storage{grid::ConsumptionMatrix()};
  if (verify) {
    auto pre = grid::PrefixSum3D::FromRaw(local.sanitized.dims(),
                                          std::move(local.prefix));
    if (!pre.ok()) return Fail(pre.status());
    direct_storage = std::move(*pre);
    direct = &direct_storage;
  }

  const uint32_t trace_sample =
      static_cast<uint32_t>(flags.GetInt("trace-sample"));
  // Trace ids fork off their own base so the workload stream is untouched:
  // answers are bit-identical with tracing on or off.
  const Rng trace_base(static_cast<uint64_t>(flags.GetInt("seed")));
  std::string first_sampled_id;
  int sampled_batches = 0;

  const uint64_t start_ns = obs::NowNanos();
  double checksum = 0.0;
  int64_t mismatches = 0;
  uint64_t first_epoch = 0;
  uint64_t last_epoch = 0;
  for (int base = 0; base < count; base += batch_size) {
    const int n = std::min(batch_size, count - base);
    query::Workload batch(workload->begin() + base, workload->begin() + base + n);
    obs::TraceContext trace;
    if (trace_sample > 0) {
      trace = obs::MakeTraceContext(
          trace_base, static_cast<uint64_t>(base / batch_size), trace_sample);
      if (trace.sampled) {
        ++sampled_batches;
        if (first_sampled_id.empty()) first_sampled_id = obs::TraceIdHex(trace);
      }
    }
    auto response = client->QueryTenant(tenant, tile, batch, /*epoch=*/0, trace);
    if (!response.ok()) return Fail(response.status());
    if (first_epoch == 0) first_epoch = response->epoch;
    last_epoch = response->epoch;
    const serve::QueryResponse& answers = response->answers;
    for (int i = 0; i < n; ++i) {
      checksum += answers[i];
      if (direct != nullptr) {
        const query::RangeQuery& q = batch[i];
        const double expect = direct->BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1);
        // Bit-identity, not epsilon-closeness: the served path must be the
        // same arithmetic as the local prefix-sum evaluation.
        if (std::memcmp(&expect, &answers[i], sizeof(double)) != 0) ++mismatches;
      }
    }
  }
  const double secs = static_cast<double>(obs::NowNanos() - start_ns) * 1e-9;
  std::printf("%d queries in %.3f s (%.0f q/s), checksum %.6g\n", count, secs,
              secs > 0 ? count / secs : 0.0, checksum);
  if (trace_sample > 0) {
    std::printf("trace sampling 1/%u: %d batches sampled%s%s\n", trace_sample,
                sampled_batches, first_sampled_id.empty() ? "" : ", first id ",
                first_sampled_id.c_str());
  }
  if (first_epoch != last_epoch) {
    std::printf("epoch advanced %llu -> %llu during the run (hot swap)\n",
                static_cast<unsigned long long>(first_epoch),
                static_cast<unsigned long long>(last_epoch));
  }
  if (verify) {
    if (mismatches > 0) {
      std::fprintf(stderr, "verify FAILED: %lld of %d answers differ\n",
                   static_cast<long long>(mismatches), count);
      return 1;
    }
    std::printf("verify OK: all %d answers bit-identical to local evaluation\n",
                count);
  }
  return 0;
}

int RunAdmin(const FlagSet& flags, serve::AdminVerb verb) {
  const std::string path = flags.GetString("snapshot");
  if (verb != serve::AdminVerb::kUnload && path.empty()) {
    return Fail(Status::InvalidArgument("--snapshot=<path> is required"));
  }
  auto client = ConnectFromFlags(flags);
  if (!client.ok()) return Fail(client.status());
  const std::string tenant = flags.GetString("tenant");
  const std::string tile = flags.GetString("tile");
  switch (verb) {
    case serve::AdminVerb::kLoad: {
      auto epoch = client->Load(tenant, tile, path);
      if (!epoch.ok()) return Fail(epoch.status());
      std::printf("loaded %s/%s epoch %llu\n", tenant.c_str(), tile.c_str(),
                  static_cast<unsigned long long>(*epoch));
      return 0;
    }
    case serve::AdminVerb::kSwap: {
      auto epoch = client->Swap(tenant, tile, path);
      if (!epoch.ok()) return Fail(epoch.status());
      std::printf("swapped %s/%s to epoch %llu\n", tenant.c_str(), tile.c_str(),
                  static_cast<unsigned long long>(*epoch));
      return 0;
    }
    case serve::AdminVerb::kUnload: {
      const Status st = client->Unload(tenant, tile);
      if (!st.ok()) return Fail(st);
      std::printf("unloaded %s/%s\n", tenant.c_str(), tile.c_str());
      return 0;
    }
  }
  return 1;
}

int RunStats(const FlagSet& flags) {
  auto client = ConnectFromFlags(flags);
  if (!client.ok()) return Fail(client.status());
  StatusOr<std::string> stats =
      (flags.Provided("tenant") || flags.Provided("tile"))
          ? client->ShardStats(flags.GetString("tenant"), flags.GetString("tile"))
          : client->Stats();
  if (!stats.ok()) return Fail(stats.status());
  std::printf("%s\n", stats->c_str());
  return 0;
}

int RunMetrics(const FlagSet& flags) {
  auto client = ConnectFromFlags(flags);
  if (!client.ok()) return Fail(client.status());
  auto metrics = client->Metrics();
  if (!metrics.ok()) return Fail(metrics.status());
  std::fputs(metrics->c_str(), stdout);
  return 0;
}

int RunTrace(const FlagSet& flags) {
  auto client = ConnectFromFlags(flags);
  if (!client.ok()) return Fail(client.status());
  auto traces =
      client->FetchTraces(static_cast<uint32_t>(flags.GetInt("limit")),
                          flags.GetString("trace-id"));
  if (!traces.ok()) return Fail(traces.status());
  std::printf("%s\n", traces->c_str());
  return 0;
}

int RunShutdown(const FlagSet& flags) {
  auto client = ConnectFromFlags(flags);
  if (!client.ok()) return Fail(client.status());
  const Status st = client->Shutdown();
  if (!st.ok()) return Fail(st);
  std::printf("server shut down\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  FlagSet flags;
  if (command == "serve") {
    flags = ServeFlags();
  } else if (command == "query" || command == "verify") {
    flags = QueryFlags();
  } else if (command == "load" || command == "swap" || command == "unload") {
    flags = AdminFlags();
  } else if (command == "stats") {
    flags = StatsFlags();
  } else if (command == "trace") {
    flags = TraceFlags();
  } else if (command == "metrics" || command == "shutdown") {
    flags = ClientOnlyFlags();
  } else {
    return Usage();
  }
  if (const Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "error: %s\nflags for 'stpt_serve %s':\n%s",
                 st.ToString().c_str(), command.c_str(), flags.Usage().c_str());
    return 2;
  }
  if (flags.Provided("threads")) {
    exec::SetThreads(static_cast<int>(flags.GetInt("threads")));
  }
  obs::LogLevel log_level;
  if (!obs::ParseLogLevel(flags.GetString("log-level"), &log_level)) {
    std::fprintf(stderr, "error: bad --log-level '%s'\n",
                 flags.GetString("log-level").c_str());
    return 2;
  }
  obs::SetLogLevel(log_level);
  if (flags.Provided("kernel-backend")) {
    if (const Status st = kernels::SetDefault(flags.GetString("kernel-backend"));
        !st.ok()) {
      return Fail(st);
    }
  }
  if (flags.Provided("trace")) {
    obs::RegisterCurrentThreadName("main");
    obs::StartTraceEvents();
  }
  int rc;
  if (command == "serve") {
    rc = RunServe(flags);
  } else if (command == "query") {
    rc = RunQueryOrVerify(flags, /*verify=*/false);
  } else if (command == "verify") {
    rc = RunQueryOrVerify(flags, /*verify=*/true);
  } else if (command == "load") {
    rc = RunAdmin(flags, stpt::serve::AdminVerb::kLoad);
  } else if (command == "swap") {
    rc = RunAdmin(flags, stpt::serve::AdminVerb::kSwap);
  } else if (command == "unload") {
    rc = RunAdmin(flags, stpt::serve::AdminVerb::kUnload);
  } else if (command == "stats") {
    rc = RunStats(flags);
  } else if (command == "metrics") {
    rc = RunMetrics(flags);
  } else if (command == "trace") {
    rc = RunTrace(flags);
  } else {
    rc = RunShutdown(flags);
  }
  if (flags.Provided("trace")) {
    obs::StopTraceEvents();
    if (!obs::WriteChromeTrace(flags.GetString("trace"))) {
      std::fprintf(stderr, "error: cannot write trace path '%s'\n",
                   flags.GetString("trace").c_str());
      return 1;
    }
  }
  return rc;
}
