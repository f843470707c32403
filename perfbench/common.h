// Shared pieces of the deployed-path benchmark runner: run arguments, the
// result report, latency sample sets, the server child process, and parsers
// for the server's Prometheus text and trace-store JSON.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_bin;  ///< path of the stpt_serve binary to start
  std::string work_dir;    ///< work directory owned by this run
  std::string commit;      ///< provenance, passed in by run.py
  std::string build_type;  ///< provenance, passed in by run.py
};

/// Server exec-pool size; the load generator uses at most
/// kGeneratorThreads threads, so both fit the 4 cores the benchmark targets.
inline constexpr int kServerThreads = 2;
inline constexpr int kGeneratorThreads = 4;

/// Monotonic nanoseconds (the repo's obs clock).
uint64_t NowNs();
/// Sleeps until `deadline_ns`. With spin_ns > 0 it sleeps only to within
/// spin_ns of the deadline and spins the rest: a sleeping thread on a VM
/// wakes up to milliseconds late, which open-loop clients would otherwise
/// report as latency of the system under test.
void SleepUntilNs(uint64_t deadline_ns, uint64_t spin_ns = 0);

/// A set of latency (or duration) samples; percentiles are exact
/// nearest-rank values over the sorted samples.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); sorted_ = false; }
  void Append(const Samples& other);
  size_t size() const { return v_.size(); }
  /// Nearest-rank percentile, p in (0, 100]; 0 when empty.
  double Pct(double p);
  double Min();
  double Max();
  double Mean() const;
  /// The highest of {99.9, 99, 95, 90, 50} with at least ten samples
  /// above its rank (0 when there are fewer than 20 samples).
  double TailPercentile() const;

 private:
  void Sort();
  std::vector<double> v_;
  bool sorted_ = true;
};

double MedianOf(std::vector<double> v);

class Report;
/// Prints one of a workload's named metrics with its unit on an info line
/// (the final JSON line carries the subset the run mode asks for).
void Named(Report& report, const std::string& workload, const std::string& name,
           double value, const std::string& unit, const std::string& note = "");

/// Collects everything one run prints: informational lines, correctness
/// checks, operation counts and the metrics of the final JSON line.
class Report {
 public:
  void Info(const std::string& line);
  /// Records a correctness check; a failing check makes `correct` false.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Adds `name` with value 0 unless a value was already recorded.
  void Default(const std::string& name, const std::string& unit) {
    if (units_.count(name) == 0) Metric(name, 0.0, unit);
  }
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }
  bool correct() const { return correct_; }
  /// Prints info lines, checks and finally the one-line JSON result.
  void Print() const;

 private:
  std::vector<std::string> info_;
  std::vector<std::pair<std::string, double>> metric_order_;
  std::map<std::string, std::string> units_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// A `stpt_serve serve` child process, stdout/stderr captured to a log.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess();

  /// Spawns `bin serve <args> --port=0 --port-file=...` and waits until the
  /// port file appears. Returns false (with `error`) when the process dies
  /// or never becomes ready.
  bool Start(const std::string& bin, const std::vector<std::string>& args,
             const std::string& dir, std::string* error);
  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Peak resident set (VmHWM) of the live process in MiB.
  double PeakRssMb() const;
  /// User + system CPU time of all its threads so far, in seconds.
  double CpuSeconds() const;
  /// Sends the shutdown verb and reaps the process (SIGKILL after a
  /// timeout). Returns true when it exited cleanly with status 0.
  bool Stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Prometheus text exposition -> {"name{labels}" -> value}.
std::map<std::string, double> ParseProm(const std::string& text);
/// Sum of every sample whose name (before any '{') equals `name`.
double PromSum(const std::map<std::string, double>& m, const std::string& name);

/// Region-profile rows from the server's stats JSON ("top_regions").
struct RegionRow {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
};
std::map<std::string, RegionRow> ParseTopRegions(const std::string& stats_json);

/// Accumulates spans fetched from the server's trace store across periodic
/// drains (the store keeps the newest 8192 spans and is never cleared, so
/// every fetch overlaps the previous one and spans are deduplicated).
class SpanCollector {
 public:
  struct Span {
    std::string trace;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t start = 0;
    uint64_t end = 0;
    std::string name;
  };
  /// Parses one FetchTraces JSON document; returns the number of new spans.
  size_t Ingest(const std::string& json);
  size_t size() const { return spans_.size(); }
  /// Fetches that may have missed spans: the store was full and its
  /// oldest span had not been seen before.
  int possible_losses() const { return possible_losses_; }

  struct NameStats {
    Samples duration_us;
    Samples self_us;
    double covered_ns = 0;  ///< child-covered part of all intervals
    double total_ns = 0;
  };
  /// Per span name: duration, self time (duration minus the union of its
  /// children's intervals, clipped to it), and child coverage.
  std::map<std::string, NameStats> Analyze() const;

 private:
  std::vector<Span> spans_;
  std::set<std::tuple<std::string, uint64_t, std::string>> seen_;
  int possible_losses_ = 0;
};

/// Share of all CPU time the hypervisor gave to other guests ("steal" in
/// /proc/stat) between two readings, in percent.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
double StealPercent(const CpuTicks& a, const CpuTicks& b);

/// Filesystem helpers.
bool MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);
int64_t FileSize(const std::string& path);
std::string ReadFile(const std::string& path);
std::vector<std::string> ListDir(const std::string& dir);
/// Filesystem type name ("ext4", "tmpfs", ...) of the mount holding `path`.
std::string FsType(const std::string& path);

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
