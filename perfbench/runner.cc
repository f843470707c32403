// perfbench_runner — runs one workload of the deployed-path benchmark and
// prints its metrics; see README.md in this directory. Normally started by
// run.py, which builds it and passes the server binary and a work directory:
//
//   perfbench_runner --workload=<name> --seed=N --seconds=S --trace=0|1
//                    --server=<stpt_serve> --work-dir=<dir>
//                    [--commit=ID] [--build-type=Release]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace=0 the metrics are the end-to-end set,
// with --trace=1 the per-layer set. Exit status is 0 only when every
// correctness check passed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "exec/thread_pool.h"
#include "kernels/backend.h"
#include "workloads.h"

namespace {

using perfbench::Fmt;

/// Every per-layer metric of BENCHMARK.json with its unit. A traced run
/// reports each one; a layer the workload never exercises reads 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"event_loop.queue_us", "us"},
    {"event_loop.parse_us", "us"},
    {"event_loop.write_us", "us"},
    {"event_loop.dispatch_wait_us", "us"},
    {"event_loop.backpressure_pauses", "count"},
    {"wire.reading_decode_ns_per_reading", "ns"},
    {"wire.query_codec_ns_per_query", "ns"},
    {"query_server.answer_batch_us", "us"},
    {"query_server.answer_ns_per_query", "ns"},
    {"query_server.cache_hit_ratio", "ratio"},
    {"registry.swap_us", "us"},
    {"registry.route_ns", "ns"},
    {"ingest.apply_self_us", "us"},
    {"ingest.admit_ns_per_reading", "ns"},
    {"ingest.publish_self_us", "us"},
    {"ingest.clamped_ratio", "ratio"},
    {"ingest.rejected_ratio", "ratio"},
    {"ingest.epochs", "count"},
    {"wal.append_batch_us", "us"},
    {"wal.epoch_mark_us", "us"},
    {"wal.bytes_per_reading", "B"},
    {"prefix.flush_us", "us"},
    {"prefix.timesteps_per_epoch", "count"},
    {"dp.release_slice_us", "us"},
    {"ledger.records_per_epoch", "count"},
    {"ledger.append_us", "us"},
    {"snapshot.encode_us", "us"},
    {"snapshot.write_us", "us"},
    {"snapshot.bytes_per_epoch", "B"},
    {"stpt.pattern_recognition_s", "s"},
    {"stpt.partition_ms", "ms"},
    {"stpt.budget_allocation_ms", "ms"},
    {"stpt.sanitize_ms", "ms"},
    {"nn.train_s", "s"},
    {"nn.matmul_calls", "count"},
    {"nn.matmul_fwd_us_per_call", "us"},
    {"nn.matmul_bwd_us_per_call", "us"},
    {"kernels.matmul_flops", "count"},
    {"exec.dispatched_regions", "count"},
    {"exec.inline_regions", "count"},
    {"obs.trace_overhead_pct", "%"},
};

bool ParseArgs(int argc, char** argv, perfbench::Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    if (key == "workload") {
      a->workload = val;
    } else if (key == "seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "trace") {
      a->trace = val == "1";
    } else if (key == "server") {
      a->server_bin = val;
    } else if (key == "work-dir") {
      a->work_dir = val;
    } else if (key == "commit") {
      a->commit = val;
    } else if (key == "build-type") {
      a->build_type = val;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && !a->server_bin.empty() &&
         !a->work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload=W --seed=N --seconds=S --trace=0|1 "
                 "--server=PATH --work-dir=DIR [--commit=ID] [--build-type=T]\n");
    return 2;
  }
  stpt::exec::SetThreads(perfbench::kServerThreads);
  perfbench::MakeDirs(args.work_dir);
  perfbench::Report report;
  report.Info(Fmt("provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                  "\"trace\": %d, \"commit\": \"%s\", \"build_type\": \"%s\", \"nproc\": %ld, "
                  "\"kernel_backend\": \"%s\", \"exec_threads\": %d, "
                  "\"generator_threads_max\": %d, \"work_fs\": \"%s\"}",
                  args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                  args.seconds, args.trace ? 1 : 0, args.commit.c_str(),
                  args.build_type.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                  stpt::kernels::Default()->name().c_str(), stpt::exec::Threads(),
                  perfbench::kGeneratorThreads, perfbench::FsType(args.work_dir).c_str()));
  const perfbench::CpuTicks ticks_before = perfbench::ReadCpuTicks();
  if (args.workload == "ingest_durable") {
    perfbench::RunIngestDurable(args, report);
  } else if (args.workload == "query_zipf") {
    perfbench::RunQueryZipf(args, report);
  } else if (args.workload == "live_mixed") {
    perfbench::RunLiveMixed(args, report);
  } else if (args.workload == "batch_release") {
    perfbench::RunBatchRelease(args, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::SelfTest(report);
  // Other guests on the host slow every wall-clock figure; record how much.
  report.Info(Fmt("host steal during the run: %.1f%% of CPU time",
                  perfbench::StealPercent(ticks_before, perfbench::ReadCpuTicks())));
  if (args.trace) {
    for (const auto& [name, unit] : kPerLayer) report.Default(name, unit);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
