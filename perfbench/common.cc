#include "common.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/trace.h"
#include "serve/client.h"

extern char** environ;

namespace perfbench {

uint64_t NowNs() { return stpt::obs::NowNanos(); }

void SleepUntilNs(uint64_t deadline_ns, uint64_t spin_ns) {
  const uint64_t wake_ns = deadline_ns - std::min(deadline_ns, spin_ns);
  // obs::NowNanos is steady_clock, which is CLOCK_MONOTONIC on Linux.
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(wake_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(wake_ns % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
  while (NowNs() < deadline_ns) {
  }
}

std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

// --- Samples -----------------------------------------------------------------

void Samples::Append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  sorted_ = false;
}

void Samples::Sort() {
  if (!sorted_) std::sort(v_.begin(), v_.end());
  sorted_ = true;
}

double Samples::Pct(double p) {
  if (v_.empty()) return 0.0;
  Sort();
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v_.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v_[std::min(idx, v_.size() - 1)];
}

double Samples::Min() {
  if (v_.empty()) return 0.0;
  Sort();
  return v_.front();
}

double Samples::Max() {
  if (v_.empty()) return 0.0;
  Sort();
  return v_.back();
}

double Samples::Mean() const {
  if (v_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : v_) sum += v;
  return sum / static_cast<double>(v_.size());
}

double Samples::TailPercentile() const {
  const double n = static_cast<double>(v_.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (n - std::ceil(p / 100.0 * n) >= 10.0) return p;
  }
  return 0.0;
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Report ------------------------------------------------------------------

void Named(Report& report, const std::string& workload, const std::string& name,
           double value, const std::string& unit, const std::string& note) {
  report.Info(Fmt("%s %-28s %14.6g %-6s %s", workload.c_str(), name.c_str(), value,
                  unit.c_str(), note.c_str()));
}

void Report::Info(const std::string& line) { info_.push_back(line); }

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  if (!ok) correct_ = false;
  info_.push_back(Fmt("check %-38s %s%s%s", name.c_str(), ok ? "ok" : "FAILED",
                      detail.empty() ? "" : "  ", detail.c_str()));
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (units_.count(name) == 0) metric_order_.emplace_back(name, value);
  units_[name] = unit;
  for (auto& [n, v] : metric_order_) {
    if (n == name) v = value;
  }
}

void Report::Print() const {
  for (const std::string& line : info_) std::printf("%s\n", line.c_str());
  std::string json = Fmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                         "\"metrics\": {",
                         correct_ ? "true" : "false",
                         static_cast<unsigned long long>(std::max<uint64_t>(1, attempted_)),
                         static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, value] : metric_order_) {
    const double v = std::isfinite(value) ? value : 0.0;
    json += Fmt("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), v, units_.at(name).c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- ServerProcess -----------------------------------------------------------

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

bool ServerProcess::Start(const std::string& bin,
                          const std::vector<std::string>& args,
                          const std::string& dir, std::string* error) {
  const std::string port_file = dir + "/port";
  const std::string log_file = dir + "/server.log";
  ::unlink(port_file.c_str());
  std::vector<std::string> argv_s = {bin, "serve"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.push_back("--port=0");
  argv_s.push_back("--port-file=" + port_file);
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  posix_spawn_file_actions_addclose(&actions, 0);
  const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    *error = Fmt("cannot spawn %s: %s", bin.c_str(), std::strerror(rc));
    return false;
  }
  const uint64_t deadline = NowNs() + 30'000'000'000ull;
  while (NowNs() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "server exited during start-up; log: " + ReadFile(log_file);
      return false;
    }
    const std::string text = ReadFile(port_file);
    if (!text.empty() && text.back() == '\n') {
      port_ = std::atoi(text.c_str());
      if (port_ > 0) return true;
    }
    ::usleep(1000);
  }
  *error = "server did not become ready within 30 s";
  return false;
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double ServerProcess::CpuSeconds() const {
  if (pid_ <= 0) return 0.0;
  const std::string stat = ReadFile("/proc/" + std::to_string(pid_) + "/stat");
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15, in clock ticks.
  std::istringstream in(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return false;
  bool asked = false;
  if (auto client = stpt::serve::Client::Connect("127.0.0.1", port_); client.ok()) {
    asked = client->Shutdown().ok();
  }
  const uint64_t deadline = NowNs() + 20'000'000'000ull;
  int status = 0;
  while (asked && NowNs() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    ::usleep(2000);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return false;
}

// --- Parsers -----------------------------------------------------------------

std::map<std::string, double> ParseProm(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // "name{labels} value [# exemplar]" — labels never contain "} ".
    size_t split = line.find("} ");
    split = split == std::string::npos ? line.find(' ') : split + 1;
    if (split == std::string::npos) continue;
    out[line.substr(0, split)] = std::atof(line.c_str() + split + 1);
  }
  return out;
}

double PromSum(const std::map<std::string, double>& m, const std::string& name) {
  double sum = 0.0;
  for (auto it = m.lower_bound(name); it != m.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) break;
    if (key.size() == name.size() || key[name.size()] == '{') sum += it->second;
  }
  return sum;
}

namespace {

/// Value of `"key": <number>` or `"key":<number>` after position `from`.
uint64_t JsonUintAfter(const std::string& s, const std::string& key, size_t from,
                       size_t* end) {
  const std::string needle = "\"" + key + "\":";
  size_t p = s.find(needle, from);
  if (p == std::string::npos) {
    *end = std::string::npos;
    return 0;
  }
  p += needle.size();
  while (p < s.size() && s[p] == ' ') ++p;
  *end = p;
  return std::strtoull(s.c_str() + p, nullptr, 10);
}

std::string JsonStringAfter(const std::string& s, const std::string& key,
                            size_t from, size_t* end) {
  const std::string needle = "\"" + key + "\":\"";
  size_t p = s.find(needle, from);
  if (p == std::string::npos) {
    *end = std::string::npos;
    return "";
  }
  p += needle.size();
  const size_t q = s.find('"', p);
  *end = q;
  return s.substr(p, q - p);
}

}  // namespace

std::map<std::string, RegionRow> ParseTopRegions(const std::string& stats_json) {
  std::map<std::string, RegionRow> out;
  size_t p = stats_json.find("\"top_regions\"");
  if (p == std::string::npos) return out;
  const size_t stop = stats_json.find(']', p);
  while (true) {
    p = stats_json.find("{\"region\": \"", p);
    if (p == std::string::npos || p > stop) break;
    p += 12;
    const size_t q = stats_json.find('"', p);
    const std::string name = stats_json.substr(p, q - p);
    size_t e = 0;
    RegionRow row;
    row.calls = JsonUintAfter(stats_json, "calls", q, &e);
    row.total_ns = JsonUintAfter(stats_json, "total_ns", q, &e);
    out[name] = row;
    p = q;
  }
  return out;
}

size_t SpanCollector::Ingest(const std::string& json) {
  std::vector<Span> fetched;
  size_t p = 0;
  std::string trace;
  while (true) {
    const size_t t = json.find("{\"trace_id\":\"", p);
    const size_t s = json.find("{\"name\":\"", p);
    if (s == std::string::npos) break;
    if (t != std::string::npos && t < s) {
      size_t e = 0;
      trace = JsonStringAfter(json, "trace_id", t, &e);
      p = e;
      continue;
    }
    Span span;
    span.trace = trace;
    size_t e = 0;
    span.name = JsonStringAfter(json, "name", s, &e);
    span.id = std::strtoull(JsonStringAfter(json, "span_id", e, &e).c_str(), nullptr, 16);
    span.parent = std::strtoull(
        JsonStringAfter(json, "parent_span_id", e, &e).c_str(), nullptr, 16);
    span.start = JsonUintAfter(json, "start_ns", e, &e);
    span.end = JsonUintAfter(json, "end_ns", e, &e);
    if (e == std::string::npos) break;
    fetched.push_back(std::move(span));
    p = e;
  }
  size_t added = 0;
  bool oldest_new = false;
  for (size_t i = 0; i < fetched.size(); ++i) {
    auto key = std::make_tuple(fetched[i].trace, fetched[i].id, fetched[i].name);
    if (seen_.insert(key).second) {
      if (i == 0) oldest_new = true;
      spans_.push_back(std::move(fetched[i]));
      ++added;
    }
  }
  // A full store whose oldest span is new may have evicted unseen spans.
  if (fetched.size() >= 8192 && oldest_new && spans_.size() > fetched.size()) {
    ++possible_losses_;
  }
  return added;
}

std::map<std::string, SpanCollector::NameStats> SpanCollector::Analyze() const {
  std::map<std::pair<std::string, uint64_t>, std::vector<const Span*>> children;
  for (const Span& s : spans_) children[{s.trace, s.parent}].push_back(&s);
  std::map<std::string, NameStats> out;
  for (const Span& s : spans_) {
    if (s.end < s.start) continue;
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    auto it = children.find({s.trace, s.id});
    if (it != children.end()) {
      for (const Span* c : it->second) {
        if (c == &s) continue;
        const uint64_t a = std::max(c->start, s.start);
        const uint64_t b = std::min(c->end, s.end);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_a = 0, cur_b = 0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += cur_b - cur_a;
    const uint64_t dur = s.end - s.start;
    NameStats& ns = out[s.name];
    ns.duration_us.Add(static_cast<double>(dur) * 1e-3);
    ns.self_us.Add(static_cast<double>(dur - std::min(dur, covered)) * 1e-3);
    ns.covered_ns += static_cast<double>(covered);
    ns.total_ns += static_cast<double>(dur);
  }
  return out;
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  uint64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealPercent(const CpuTicks& a, const CpuTicks& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(total);
}

// --- Filesystem --------------------------------------------------------------

bool MakeDirs(const std::string& path) {
  std::string cur;
  std::stringstream ss(path);
  std::string part;
  if (!path.empty() && path[0] == '/') cur = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    cur += part + "/";
    if (::mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

void RemoveTree(const std::string& path) {
  struct stat st {};
  if (::lstat(path.c_str(), &st) != 0) return;
  if (S_ISDIR(st.st_mode)) {
    for (const std::string& name : ListDir(path)) RemoveTree(path + "/" + name);
    ::rmdir(path.c_str());
  } else {
    ::unlink(path.c_str());
  }
}

int64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") out.push_back(name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

std::string FsType(const std::string& path) {
  char resolved[4096];
  if (::realpath(path.c_str(), resolved) == nullptr) return "unknown";
  const std::string target = resolved;
  std::ifstream in("/proc/mounts");
  std::string dev, mnt, type, rest;
  std::string best_type = "unknown";
  size_t best_len = 0;
  while (in >> dev >> mnt >> type && std::getline(in, rest)) {
    const bool prefix = target.compare(0, mnt.size(), mnt) == 0 &&
                        (target.size() == mnt.size() || mnt == "/" ||
                         target[mnt.size()] == '/');
    if (prefix && mnt.size() >= best_len) {
      best_len = mnt.size();
      best_type = type;
    }
  }
  return best_type;
}

}  // namespace perfbench
