// stpt_cli — command-line front end for the library.
//
//   stpt_cli generate --dataset=CER --distribution=uniform --grid=32
//            --days=220 --seed=1 --out=data.csv
//   stpt_cli publish  --in=data.csv --algorithm=stpt --eps=30
//            --t-train=100 --out=sanitized.csv [--truth-out=truth.csv]
//            [--snapshot=release.stpt]
//   stpt_cli evaluate --truth=truth.csv --sanitized=sanitized.csv
//            --kind=random --queries=300 [--seed=7]
//
// Every subcommand also accepts --threads=N (exec pool size), --profile
// (print the timing profile at exit), --metrics=<path> (write a JSON
// snapshot of the process metric registry + trace-region profile at exit),
// --trace=<path> (record per-thread span events and write a Chrome
// trace-event JSON at exit; load in chrome://tracing or Perfetto), and
// --log-level=<debug|info|warn|error|off> (structured-log threshold,
// default warn), and --kernel-backend=<naive|avx2|auto> (kernel backend for
// the hot numeric paths; strict — requesting avx2 on an unsupported CPU is
// an error). `publish` additionally accepts --train-log=<path> (JSONL
// loss curve, one row per epoch) and --audit-ledger=<path> (JSONL record of
// every privacy-budget charge). Unknown or malformed flags are rejected
// with the subcommand's flag listing.
//
// `publish` aggregates to day granularity, runs the chosen algorithm
// (stpt, identity, fast, fourier10, fourier20, wavelet10, wavelet20,
// lgan, wpo), and writes the sanitized test region. With --snapshot it
// additionally emits a binary .stpt container (sanitized matrix + privacy
// metadata) that stpt_serve answers range queries from.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "baselines/fast.h"
#include "baselines/fourier.h"
#include "baselines/identity.h"
#include "baselines/lgan_dp.h"
#include "baselines/wavelet_pub.h"
#include "baselines/wpo.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/stpt.h"
#include "datagen/dataset.h"
#include "dp/audit_ledger.h"
#include "exec/thread_pool.h"
#include "exec/timing.h"
#include "io/csv.h"
#include "kernels/backend.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/metrics.h"
#include "serve/client.h"
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
               "usage: stpt_cli <generate|publish|evaluate> [--options]\n"
               "see the header of tools/stpt_cli.cc for details\n");
  return 2;
}

/// Flags shared by every subcommand (exec runtime + observability).
void DefineCommonFlags(FlagSet& flags) {
  flags.DefineInt("threads", 0, "exec pool size (0 = auto / STPT_THREADS)");
  flags.DefineBool("profile", false, "print the timing profile to stderr at exit");
  flags.DefineString("metrics", "",
                     "write a JSON metric-registry snapshot to this path at exit");
  flags.DefineString("trace", "",
                     "write a Chrome trace-event JSON to this path at exit");
  flags.DefineString("log-level", "warn",
                     "structured-log threshold (debug, info, warn, error, off)");
  flags.DefineString("kernel-backend", "auto",
                     "kernel backend (naive, avx2, auto)");
}

FlagSet GenerateFlags() {
  FlagSet flags;
  DefineCommonFlags(flags);
  flags.DefineString("dataset", "CER", "dataset spec (CER, CA, MI, TX)");
  flags.DefineString("distribution", "uniform",
                     "spatial distribution (uniform, normal, la)");
  flags.DefineInt("households", 0, "household count override (0 = spec default)");
  flags.DefineInt("grid", 32, "grid cells per side");
  flags.DefineInt("days", 220, "days of hourly readings");
  flags.DefineInt("seed", 1, "generator seed");
  flags.DefineString("out", "data.csv", "output CSV path");
  return flags;
}

FlagSet PublishFlags() {
  FlagSet flags;
  DefineCommonFlags(flags);
  flags.DefineString("in", "data.csv", "input dataset CSV");
  flags.DefineString("algorithm", "stpt",
                     "stpt, identity, fast, fourier10/20, wavelet10/20, lgan, wpo");
  flags.DefineDouble("eps", 30.0, "total privacy budget");
  flags.DefineInt("t-train", -1, "training prefix length (-1 = half the slices)");
  flags.DefineInt("seed", 1, "noise / training seed");
  flags.DefineInt("depth", 3, "quadtree depth (stpt)");
  flags.DefineInt("k", 8, "quantization levels (stpt)");
  flags.DefineString("out", "sanitized.csv", "sanitized-region CSV path");
  flags.DefineString("truth-out", "", "also write the true test region here");
  flags.DefineString("snapshot", "", "also write a .stpt snapshot container here");
  flags.DefineInt("push-port", 0,
                  "push the written --snapshot into a live stpt_serve on this port");
  flags.DefineString("push-host", "127.0.0.1", "stpt_serve host for --push-port");
  flags.DefineString("tenant", serve::kDefaultTenant,
                     "tenant to publish the pushed shard under");
  flags.DefineString("tile", serve::kDefaultTile,
                     "tile to publish the pushed shard under");
  flags.DefineString("train-log", "", "write a JSONL per-epoch loss curve here (stpt)");
  flags.DefineString("audit-ledger", "",
                     "write a JSONL privacy-budget audit ledger here (stpt)");
  return flags;
}

FlagSet EvaluateFlags() {
  FlagSet flags;
  DefineCommonFlags(flags);
  flags.DefineString("truth", "truth.csv", "true test-region CSV");
  flags.DefineString("sanitized", "sanitized.csv", "sanitized-region CSV");
  flags.DefineString("kind", "random", "workload kind (random, small, large)");
  flags.DefineInt("queries", 300, "workload size");
  flags.DefineInt("seed", 7, "workload seed");
  return flags;
}

StatusOr<datagen::DatasetSpec> SpecByName(const std::string& name) {
  for (const auto& spec : datagen::AllSpecs()) {
    if (spec.name == name) return spec;
  }
  return Status::NotFound("unknown dataset '" + name + "' (CER, CA, MI, TX)");
}

StatusOr<datagen::SpatialDistribution> DistributionByName(const std::string& name) {
  if (name == "uniform") return datagen::SpatialDistribution::kUniform;
  if (name == "normal") return datagen::SpatialDistribution::kNormal;
  if (name == "la") return datagen::SpatialDistribution::kLosAngeles;
  return Status::NotFound("unknown distribution '" + name +
                          "' (uniform, normal, la)");
}

int RunGenerate(const FlagSet& flags) {
  auto spec = SpecByName(flags.GetString("dataset"));
  if (!spec.ok()) return Fail(spec.status());
  auto dist = DistributionByName(flags.GetString("distribution"));
  if (!dist.ok()) return Fail(dist.status());
  if (flags.Provided("households")) {
    spec->num_households = static_cast<int>(flags.GetInt("households"));
  }
  datagen::GenerateOptions opts;
  opts.grid_x = opts.grid_y = static_cast<int>(flags.GetInt("grid"));
  opts.hours = static_cast<int>(flags.GetInt("days")) * 24;
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  auto ds = datagen::GenerateDataset(*spec, *dist, opts, rng);
  if (!ds.ok()) return Fail(ds.status());
  const std::string out = flags.GetString("out");
  const Status st = io::WriteDatasetCsv(*ds, out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %d households x %d hours to %s\n", spec->num_households,
              opts.hours, out.c_str());
  return 0;
}

int RunPublish(const FlagSet& flags) {
  auto ds = io::ReadDatasetCsv(flags.GetString("in"));
  if (!ds.ok()) return Fail(ds.status());
  auto cons = datagen::BuildConsumptionMatrix(*ds, /*hours_per_slice=*/24);
  if (!cons.ok()) return Fail(cons.status());
  const double unit = datagen::UnitSensitivity(ds->spec, 24);
  const double eps = flags.GetDouble("eps");
  const int t_train = flags.Provided("t-train")
                          ? static_cast<int>(flags.GetInt("t-train"))
                          : cons->dims().ct / 2;
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));

  auto truth = core::TestRegion(*cons, t_train);
  if (!truth.ok()) return Fail(truth.status());
  if (flags.Provided("truth-out")) {
    const Status st = io::WriteMatrixCsv(*truth, flags.GetString("truth-out"));
    if (!st.ok()) return Fail(st);
  }

  const std::string algorithm = flags.GetString("algorithm");
  StatusOr<grid::ConsumptionMatrix> sanitized =
      Status::Internal("not run");
  double eps_pattern = 0.0;  // nonzero only for stpt's two-phase split
  if (algorithm == "stpt") {
    core::StptConfig cfg;
    cfg.eps_pattern = eps / 3.0;
    cfg.eps_sanitize = eps - cfg.eps_pattern;
    eps_pattern = cfg.eps_pattern;
    cfg.t_train = t_train;
    cfg.quadtree_depth = static_cast<int>(flags.GetInt("depth"));
    cfg.quantization_levels = static_cast<int>(flags.GetInt("k"));
    cfg.training.train_log_path = flags.GetString("train-log");
    dp::AuditLedger ledger;
    if (flags.Provided("audit-ledger")) {
      const Status st = ledger.OpenFile(flags.GetString("audit-ledger"));
      if (!st.ok()) return Fail(st);
      cfg.audit_ledger = &ledger;
    }
    auto res = core::Stpt(cfg).Publish(*cons, unit, rng);
    if (!res.ok()) return Fail(res.status());
    sanitized = std::move(res->sanitized);
  } else {
    if (flags.Provided("train-log") || flags.Provided("audit-ledger")) {
      obs::Log(obs::LogLevel::kWarn, "cli",
               "--train-log/--audit-ledger only apply to --algorithm=stpt",
               {{"algorithm", algorithm}});
    }
    std::unique_ptr<baselines::Publisher> pub;
    if (algorithm == "identity") pub = std::make_unique<baselines::IdentityPublisher>();
    if (algorithm == "fast") pub = std::make_unique<baselines::FastPublisher>();
    if (algorithm == "fourier10") pub = std::make_unique<baselines::FourierPublisher>(10);
    if (algorithm == "fourier20") pub = std::make_unique<baselines::FourierPublisher>(20);
    if (algorithm == "wavelet10") pub = std::make_unique<baselines::WaveletPublisher>(10);
    if (algorithm == "wavelet20") pub = std::make_unique<baselines::WaveletPublisher>(20);
    if (algorithm == "lgan") pub = std::make_unique<baselines::LganDpPublisher>();
    if (algorithm == "wpo") pub = std::make_unique<baselines::WpoPublisher>();
    if (pub == nullptr) {
      return Fail(Status::NotFound("unknown algorithm '" + algorithm + "'"));
    }
    sanitized = pub->Publish(*truth, eps, unit, rng);
  }
  if (!sanitized.ok()) return Fail(sanitized.status());
  const std::string out = flags.GetString("out");
  const Status st = io::WriteMatrixCsv(*sanitized, out);
  if (!st.ok()) return Fail(st);
  if (flags.Provided("snapshot")) {
    serve::SnapshotMeta meta;
    meta.algorithm = algorithm;
    meta.eps_total = eps;
    meta.eps_pattern = eps_pattern;
    meta.eps_sanitize = eps - eps_pattern;
    meta.t_train = t_train;
    const std::string snapshot_path = flags.GetString("snapshot");
    const Status snap_st = serve::WriteSnapshot(
        serve::Snapshot::FromMatrix(*sanitized, std::move(meta)), snapshot_path);
    if (!snap_st.ok()) return Fail(snap_st);
    std::printf("wrote snapshot container to %s\n", snapshot_path.c_str());
    if (flags.Provided("push-port")) {
      // Upsert into a live server: hot-swap if the shard exists, load it
      // fresh otherwise. The server re-reads snapshot_path from its own
      // filesystem, so this assumes a shared (here: local) filesystem.
      auto client = serve::Client::Connect(
          flags.GetString("push-host"),
          static_cast<int>(flags.GetInt("push-port")));
      if (!client.ok()) return Fail(client.status());
      const std::string tenant = flags.GetString("tenant");
      const std::string tile = flags.GetString("tile");
      auto epoch = client->Swap(tenant, tile, snapshot_path);
      if (!epoch.ok()) epoch = client->Load(tenant, tile, snapshot_path);
      if (!epoch.ok()) return Fail(epoch.status());
      std::printf("pushed %s/%s epoch %llu to %s:%d\n", tenant.c_str(),
                  tile.c_str(), static_cast<unsigned long long>(*epoch),
                  flags.GetString("push-host").c_str(),
                  static_cast<int>(flags.GetInt("push-port")));
    }
  }
  std::printf("published %s release (%dx%dx%d, eps=%.1f) to %s\n",
              algorithm.c_str(), sanitized->dims().cx, sanitized->dims().cy,
              sanitized->dims().ct, eps, out.c_str());
  return 0;
}

int RunEvaluate(const FlagSet& flags) {
  auto truth = io::ReadMatrixCsv(flags.GetString("truth"));
  if (!truth.ok()) return Fail(truth.status());
  auto sanitized = io::ReadMatrixCsv(flags.GetString("sanitized"));
  if (!sanitized.ok()) return Fail(sanitized.status());
  if (!(truth->dims() == sanitized->dims())) {
    return Fail(Status::InvalidArgument("matrix dimensions differ"));
  }
  const std::string kind_name = flags.GetString("kind");
  query::WorkloadKind kind = query::WorkloadKind::kRandom;
  if (kind_name == "small") kind = query::WorkloadKind::kSmall;
  if (kind_name == "large") kind = query::WorkloadKind::kLarge;
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  auto wl = query::MakeWorkload(kind, truth->dims(),
                                static_cast<int>(flags.GetInt("queries")), rng);
  if (!wl.ok()) return Fail(wl.status());
  query::MreOptions opts;
  opts.denominator_floor =
      truth->TotalSum() / static_cast<double>(truth->size());
  std::printf("MRE (%s, %zu queries): %.2f%%\n", kind_name.c_str(), wl->size(),
              query::MeanRelativeError(*truth, *sanitized, *wl, opts));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  FlagSet flags;
  if (command == "generate") {
    flags = GenerateFlags();
  } else if (command == "publish") {
    flags = PublishFlags();
  } else if (command == "evaluate") {
    flags = EvaluateFlags();
  } else {
    return Usage();
  }
  if (const Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "error: %s\nflags for 'stpt_cli %s':\n%s",
                 st.ToString().c_str(), command.c_str(), flags.Usage().c_str());
    return 2;
  }
  // --threads=N overrides the STPT_THREADS env default (1 = serial). The
  // fork-by-index determinism contract makes outputs identical either way.
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
  if (command == "generate") {
    rc = RunGenerate(flags);
  } else if (command == "publish") {
    rc = RunPublish(flags);
  } else {
    rc = RunEvaluate(flags);
  }
  if (flags.GetBool("profile")) exec::PrintTimings(std::cerr);
  if (flags.Provided("metrics")) {
    std::ofstream out(flags.GetString("metrics"));
    if (!out) {
      return Fail(Status::Internal("cannot open metrics path '" +
                                   flags.GetString("metrics") + "'"));
    }
    out << exec::MetricsSnapshotJson() << "\n";
  }
  if (flags.Provided("trace")) {
    obs::StopTraceEvents();
    if (!obs::WriteChromeTrace(flags.GetString("trace"))) {
      return Fail(Status::Internal("cannot write trace path '" +
                                   flags.GetString("trace") + "'"));
    }
  }
  return rc;
}
