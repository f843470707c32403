#ifndef STPT_EXEC_TIMING_H_
#define STPT_EXEC_TIMING_H_

#include <ostream>
#include <string>

#include "obs/trace.h"

namespace stpt::exec {

/// Region timing lives in stpt::obs (see obs/trace.h): obs::Span times a
/// scoped region and obs::TraceProfile reads the aggregate. What stays here
/// reports that profile with the pool size, which only exec knows.

/// Human-readable profile table (one line per region).
void PrintTimings(std::ostream& os);

/// The full observability snapshot written by --metrics=<path>:
///   {"metrics": <obs::Registry::Global().ToJson()>,
///    "profile": {"threads": N, "regions": <obs::TraceProfileJson()>}}
/// Combining both in one document keeps counters/gauges/histograms and the
/// aggregated trace-region profile in a single artifact per run.
std::string MetricsSnapshotJson();

}  // namespace stpt::exec

#endif  // STPT_EXEC_TIMING_H_
