// The four benchmark workloads and the in-process layer probes they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "query/range_query.h"
#include "serve/snapshot.h"
#include "serve/wire.h"

namespace perfbench {

void RunIngestDurable(const Args& args, Report& report);
void RunQueryZipf(const Args& args, Report& report);
void RunLiveMixed(const Args& args, Report& report);
void RunBatchRelease(const Args& args, Report& report);

/// Tamper self-test of the checks every workload relies on: a one-ulp
/// answer change, a flipped container byte and an edited ledger epsilon
/// must each be caught.
void SelfTest(Report& report);

/// Bitwise comparison of served answers with a local BoxSum over `snap`.
/// Returns the number of mismatching answers.
size_t CountMismatches(const stpt::serve::Snapshot& snap,
                       const stpt::query::Workload& batch,
                       const std::vector<double>& answers);

// --- In-process probes: timed calls into each layer's public functions. ---
using ReadingBatches = std::vector<std::vector<stpt::serve::MeterReading>>;

void ProbeReadingDecode(const ReadingBatches& batches, Report& report);
void ProbeQueryCodec(const std::vector<stpt::query::Workload>& batches,
                     Report& report);
void ProbeAnswer(const stpt::serve::Snapshot& snap,
                 const std::vector<stpt::query::Workload>& batches,
                 Report& report);
void ProbeRoute(int shards, Report& report);
void ProbeAdmit(const ReadingBatches& batches, double unit, Report& report);
void ProbeWal(const std::string& dir, const ReadingBatches& batches,
              Report& report);
void ProbePublishStages(const std::string& dir, double unit, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
