#include "exec/timing.h"

#include <iomanip>

#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace stpt::exec {

void PrintTimings(std::ostream& os) {
  os << "--- exec timing profile (" << Threads() << " threads) ---\n";
  for (const auto& e : obs::TraceProfile()) {
    const double ms = static_cast<double>(e.total_ns) * 1e-6;
    const double mean_us =
        e.calls == 0 ? 0.0
                     : static_cast<double>(e.total_ns) / e.calls * 1e-3;
    os << "  " << std::left << std::setw(28) << e.region << std::right
       << std::setw(10) << e.calls << " calls" << std::setw(12) << std::fixed
       << std::setprecision(2) << ms << " ms total" << std::setw(12)
       << mean_us << " us/call\n";
  }
}

std::string MetricsSnapshotJson() {
  return "{\"metrics\": " + obs::Registry::Global().ToJson() +
         ", \"profile\": {\"threads\": " + std::to_string(Threads()) +
         ", \"regions\": " + obs::TraceProfileJson() + "}}";
}

}  // namespace stpt::exec
