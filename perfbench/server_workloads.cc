// The three workloads that drive a real `stpt_serve serve` process over
// loopback TCP: ingest_durable, query_zipf and live_mixed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "datagen/dataset.h"
#include "dp/audit_ledger.h"
#include "grid/consumption_matrix.h"
#include "obs/trace_context.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace stpt;

constexpr int kGrid = 32;
constexpr int kRing = 168;          // ct: one week of hourly slices
// Frame sizes are the repository clients' defaults: `stpt_serve query
// --batch` and `stpt_ingest --batch` both send 256 per frame.
constexpr int kQueryBatch = 256;    // queries per v2 request frame
constexpr int kReadingBatch = 256;  // readings per ingest frame
constexpr int kCacheEntries = 1 << 16;  // QueryServerOptions::cache_capacity
constexpr int kTraceSamplePeriod = 8;   // head sampling in the traced pass
constexpr uint64_t kTraceWindowNs = 250'000'000;  // traced/untraced alternation
constexpr uint64_t kPollNs = 200'000'000;  // monitor period (traces, cache)
constexpr uint64_t kQuerySpinNs = 1'000'000;  // see SleepUntilNs

double UnitKwh() { return datagen::UnitSensitivity(datagen::CerSpec(), 1); }

// --- Inputs -------------------------------------------------------------------

/// One CER digital-twin fleet streaming one reading per meter per hour:
/// hour-major batches, each hour split into equal batches.
struct Fleet {
  int meters = 0;
  int hours = 0;
  int batches_per_hour = 0;
  ReadingBatches batches;  ///< send order; batch i belongs to hour i / bph
};

Fleet MakeFleet(uint64_t seed, int meters, int hours, int batch,
                uint64_t meter_base) {
  datagen::DatasetSpec spec = datagen::CerSpec();
  spec.num_households = meters;
  datagen::GenerateOptions opt;
  opt.grid_x = kGrid;
  opt.grid_y = kGrid;
  opt.hours = hours;
  Rng rng(seed);
  auto ds = datagen::GenerateDataset(spec, datagen::SpatialDistribution::kUniform,
                                     opt, rng);
  Fleet fleet;
  fleet.meters = meters;
  fleet.hours = hours;
  fleet.batches_per_hour = (meters + batch - 1) / batch;
  for (int h = 0; h < hours; ++h) {
    for (int b = 0; b < fleet.batches_per_hour; ++b) {
      std::vector<serve::MeterReading> readings;
      for (int m = b * batch; m < std::min(meters, (b + 1) * batch); ++m) {
        const datagen::Household& hh = ds->households[static_cast<size_t>(m)];
        serve::MeterReading r;
        r.meter_id = meter_base + static_cast<uint64_t>(m);
        r.x = hh.cell_x;
        r.y = hh.cell_y;
        r.t = h;
        r.kwh = hh.series[static_cast<size_t>(h)];
        readings.push_back(r);
      }
      fleet.batches.push_back(std::move(readings));
    }
  }
  return fleet;
}

/// Zipf(s) popularity over n ranks (rank 0 most popular), sampled through
/// an inverse-CDF table of 2^bits slots: one draw is one table load, cheap
/// enough to build every request batch on the fly. A slot holds 2^-bits of
/// the probability mass, finer than the rarest rank for the sizes used here.
class Zipf {
 public:
  Zipf(size_t n, double s, int bits) : shift_(64 - bits), table_(size_t{1} << bits) {
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf[i] = sum;
    }
    size_t rank = 0;
    for (size_t slot = 0; slot < table_.size(); ++slot) {
      const double u = (static_cast<double>(slot) + 0.5) / static_cast<double>(table_.size());
      while (rank + 1 < n && cdf[rank] / sum < u) ++rank;
      table_[slot] = static_cast<uint32_t>(rank);
    }
  }
  size_t Draw(Rng& rng) const { return table_[rng.NextUint64() >> shift_]; }

 private:
  int shift_;
  std::vector<uint32_t> table_;
};

/// The §5.1 query mix (random, small and large kinds in equal parts),
/// shuffled so Zipf ranks land on random shapes. Four times the 65 536-entry
/// per-shard answer cache.
std::vector<query::RangeQuery> MakeQueryPool(uint64_t seed) {
  const grid::Dims dims{kGrid, kGrid, kRing};
  Rng rng(seed);
  std::vector<query::RangeQuery> pool;
  const int per_kind = 4 * kCacheEntries / 3 + 1;
  for (auto kind : {query::WorkloadKind::kRandom, query::WorkloadKind::kSmall,
                    query::WorkloadKind::kLarge}) {
    auto w = query::MakeWorkload(kind, dims, per_kind, rng);
    pool.insert(pool.end(), w->begin(), w->end());
  }
  for (size_t i = pool.size() - 1; i > 0; --i) {
    std::swap(pool[i], pool[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  return pool;
}

/// A published release for a static shard: a CER twin week aggregated onto
/// the grid plus Laplace noise at the ingest tier's per-slice scale.
serve::Snapshot MakeStaticRelease(const grid::ConsumptionMatrix& truth,
                                  uint64_t seed) {
  grid::ConsumptionMatrix noisy = truth;
  Rng rng(seed);
  const double scale = UnitKwh();
  for (double& v : noisy.mutable_data()) v += rng.Laplace(scale);
  serve::SnapshotMeta meta;
  meta.algorithm = "laplace";
  meta.eps_total = 1.0;
  meta.eps_sanitize = 1.0;
  return serve::Snapshot::FromMatrix(noisy, meta);
}

// --- Server ------------------------------------------------------------------

struct Dirs {
  std::string root, snap, wal, ledger;
  std::string LedgerFile() const { return ledger + "/ledger.jsonl"; }
};

Dirs FreshDirs(const std::string& root) {
  RemoveTree(root);
  Dirs d{root, root + "/snap", root + "/wal", root + "/ledger"};
  MakeDirs(d.snap);
  MakeDirs(d.wal);
  MakeDirs(d.ledger);
  return d;
}

/// The deployed ingest configuration: WAL, audit ledger and snapshot
/// directory all on, clamping at the CER fleet's declared sensitivity.
std::vector<std::string> IngestServerArgs(const Dirs& d, int epoch_readings,
                                          uint64_t seed) {
  return {Fmt("--threads=%d", kServerThreads),
          "--ingest",
          Fmt("--ingest-dims=%d,%d,%d", kGrid, kGrid, kRing),
          Fmt("--ingest-epoch-readings=%d", epoch_readings),
          Fmt("--ingest-unit=%.17g", UnitKwh()),
          Fmt("--ingest-seed=%llu", static_cast<unsigned long long>(seed & 0x7fffffff)),
          "--ingest-snapshot-dir=" + d.snap,
          "--ingest-ledger=" + d.LedgerFile(),
          "--ingest-wal-dir=" + d.wal};
}

std::string ShardFileStem(const std::string& tenant) { return tenant + ".0"; }

std::string ContainerPath(const Dirs& d, const std::string& tenant, uint64_t epoch) {
  return d.snap + "/" + ShardFileStem(tenant) + ".p" + std::to_string(epoch) + ".stpt";
}

std::string LedgerPath(const Dirs& d, const std::string& tenant) {
  return tenant == serve::kDefaultTenant ? d.LedgerFile()
                                         : d.LedgerFile() + "." + ShardFileStem(tenant);
}

// --- Trace and metric scraping --------------------------------------------------

/// Server-side counters read before and after a measured phase.
struct Scrape {
  std::map<std::string, double> prom;
  std::map<std::string, RegionRow> regions;
};

Scrape ScrapeServer(int port) {
  Scrape s;
  auto client = serve::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return s;
  if (auto text = client->Metrics(); text.ok()) s.prom = ParseProm(*text);
  if (auto stats = client->Stats(); stats.ok()) s.regions = ParseTopRegions(*stats);
  return s;
}

double Delta(const Scrape& a, const Scrape& b, const std::string& name) {
  return PromSum(b.prom, name) - PromSum(a.prom, name);
}

/// Mean of a region-profile span over a phase, in microseconds.
double RegionMeanUs(const Scrape& a, const Scrape& b, const std::string& region,
                    uint64_t* calls) {
  const auto ib = b.regions.find(region);
  if (ib == b.regions.end()) return 0.0;
  RegionRow before;
  if (auto ia = a.regions.find(region); ia != a.regions.end()) before = ia->second;
  *calls = ib->second.calls - before.calls;
  return *calls == 0 ? 0.0
                     : static_cast<double>(ib->second.total_ns - before.total_ns) *
                           1e-3 / static_cast<double>(*calls);
}

/// The traced pass's request schedule: requests issued in odd windows of
/// kTraceWindowNs (counted from `origin_ns`) carry a head-sampled
/// TraceContext, the others carry none. Tracing overhead is then the traced
/// windows against the untraced windows of the same server process.
struct TraceWindows {
  uint64_t origin_ns = 0;
  bool on = false;
  bool Traced(uint64_t t_ns) const {
    return on && t_ns >= origin_ns && ((t_ns - origin_ns) / kTraceWindowNs) % 2 == 1;
  }
};

/// Median of the traced windows' samples over the untraced windows', in
/// percent above 1.
double OverheadPct(Samples& plain, Samples& traced) {
  return plain.size() == 0 || traced.size() == 0 ? 0.0
                                                 : 100.0 * (traced.Pct(50) / plain.Pct(50) - 1.0);
}

/// What the generator's main thread records while its worker threads run:
/// the server's trace store (drained into `spans` in the traced pass) and
/// the per-generation cache counters, which restart with every hot swap.
class Monitor {
 public:
  Monitor(int port, SpanCollector* spans, bool scrape_cache)
      : port_(port), spans_(spans), scrape_(scrape_cache) {}

  /// One observation; called every kPollNs while the measured threads run.
  void Poll() {
    if (spans_ == nullptr && !scrape_) return;
    if (!client_.has_value()) {
      auto c = serve::Client::Connect("127.0.0.1", port_);
      if (!c.ok()) return;
      client_.emplace(std::move(*c));
    }
    if (spans_ != nullptr) {
      if (auto json = client_->FetchTraces(0); json.ok()) spans_->Ingest(*json);
    }
    if (!scrape_) return;
    auto text = client_->Metrics();
    if (!text.ok()) return;
    const auto prom = ParseProm(*text);
    const auto value_of = [&](const std::string& key) {
      const auto it = prom.find(key);
      return it == prom.end() ? 0.0 : it->second;
    };
    // Counters are per generation: key them by shard labels and epoch.
    const std::string epoch_family = "stpt_shard_epoch";
    for (const auto& [key, epoch] : prom) {
      if (key.rfind(epoch_family + "{", 0) != 0) continue;
      const std::string labels = key.substr(epoch_family.size());
      Gen& g = gens_[labels + "#" + std::to_string(static_cast<uint64_t>(epoch))];
      g.hits = std::max(g.hits, value_of("stpt_shard_cache_hits_total" + labels));
      g.misses = std::max(g.misses, value_of("stpt_shard_cache_misses_total" + labels));
    }
  }

  /// Polls on the calling thread until `finished` reaches `total`.
  void PollUntil(const std::atomic<int>& finished, int total) {
    for (;;) {
      Poll();
      if (finished.load() >= total) return;
      SleepUntilNs(NowNs() + kPollNs);
    }
  }

  /// Cache hits and lookups summed over every generation observed.
  double hits() const { return Total(&Gen::hits); }
  double lookups() const { return Total(&Gen::hits) + Total(&Gen::misses); }

 private:
  struct Gen {
    double hits = 0, misses = 0;
  };
  double Total(double Gen::*field) const {
    double sum = 0;
    for (const auto& entry : gens_) sum += entry.second.*field;
    return sum;
  }

  int port_;
  SpanCollector* spans_;
  bool scrape_;
  std::optional<serve::Client> client_;
  std::map<std::string, Gen> gens_;
};

void ReportSpans(Report& report, const std::string& workload, SpanCollector& spans) {
  auto stats = spans.Analyze();
  for (auto& [name, s] : stats) {
    report.Info(Fmt("%s span %-20s n=%-7zu mean %9.2f us  self %9.2f us  children "
                    "cover %5.1f%%",
                    workload.c_str(), name.c_str(), s.duration_us.size(),
                    s.duration_us.Mean(), s.self_us.Mean(),
                    s.total_ns > 0 ? 100.0 * s.covered_ns / s.total_ns : 0.0));
  }
  report.Check("trace store never evicted unseen spans", spans.possible_losses() == 0,
               Fmt("%zu spans collected", spans.size()));
  auto self = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.self_us.Mean();
  };
  report.Metric("event_loop.queue_us", self("serve/queue"), "us");
  report.Metric("event_loop.parse_us", self("serve/parse"), "us");
  report.Metric("event_loop.write_us", self("serve/write"), "us");
  report.Metric("event_loop.dispatch_wait_us", self("serve/dispatch_wait"), "us");
  if (stats.count("ingest/apply")) {
    report.Metric("ingest.apply_self_us", self("ingest/apply"), "us");
    report.Metric("ingest.publish_self_us", self("ingest/publish"), "us");
    report.Metric("registry.swap_us", stats["registry/swap"].duration_us.Mean(), "us");
  }
}

/// Layer counters every server workload reports from its scrapes.
void ReportServerCounters(Report& report, const Scrape& a, const Scrape& b) {
  report.Metric("event_loop.backpressure_pauses",
                Delta(a, b, "stpt_serve_backpressure_pauses_total"), "count");
  report.Metric("exec.dispatched_regions",
                Delta(a, b, "stpt_exec_regions_dispatched_total"), "count");
  report.Metric("exec.inline_regions", Delta(a, b, "stpt_exec_regions_inline_total"),
                "count");
  uint64_t calls = 0;
  const double answer_us = RegionMeanUs(a, b, "serve/answer_batch", &calls);
  if (calls > 0) report.Metric("query_server.answer_batch_us", answer_us, "us");
}

// --- Feeders -------------------------------------------------------------------

struct TenantFeed {
  TenantFeed(std::string t, const Fleet* f) : tenant(std::move(t)), fleet(f) {}
  std::string tenant;
  const Fleet* fleet = nullptr;
  size_t next = 0;             ///< next batch index
  uint64_t epoch = 0;          ///< last epoch acked
  std::vector<uint64_t> last_ref_ns;  ///< per hour: send (or due) of its last batch
};

struct FeedStats {
  uint64_t sent = 0, accepted = 0, clamped = 0, rejected = 0;
  uint64_t batches = 0, failed = 0;
  bool counts_add_up = true;
  bool monotone = true;
  bool epochs_cover_hours = true;
  Samples freshness_ms;
  Samples lateness_us;
  /// Batch round trips in untraced and traced windows (traced pass only).
  Samples rtt_plain_us, rtt_traced_us;
  uint64_t start_ns = 0, end_ns = 0;
};

/// Streams fleets batch by batch, round-robin over `tenants`, then flushes
/// each tenant. interval_ns == 0 is a closed loop (next batch after the ack);
/// otherwise batches are due every interval_ns from start_ns (open loop) and
/// references are due times. Stops issuing at stop_ns (0 = run to the end).
FeedStats Feed(int port, std::vector<TenantFeed>& tenants, uint64_t interval_ns,
               uint64_t start_ns, uint64_t stop_ns, const TraceWindows& windows,
               uint64_t trace_seed) {
  FeedStats st;
  auto client = serve::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    st.failed = 1;
    return st;
  }
  const Rng trace_base(trace_seed);
  for (TenantFeed& tf : tenants) {
    // Kept across calls, so a later pass can credit hours an earlier sent.
    tf.last_ref_ns.resize(static_cast<size_t>(tf.fleet->hours), 0);
  }
  auto on_ack = [&](TenantFeed& tf, const serve::ReadingAck& ack, size_t expect,
                    uint64_t ack_ns) {
    st.accepted += ack.accepted;
    st.clamped += ack.clamped;
    st.rejected += ack.rejected;
    if (ack.accepted + ack.clamped + ack.rejected != expect) st.counts_add_up = false;
    if (ack.epoch < tf.epoch) st.monotone = false;
    // One epoch per completed hour: epoch e publishes hours [0, e).
    for (uint64_t t = tf.epoch; t < ack.epoch; ++t) {
      if (t >= tf.last_ref_ns.size() || tf.last_ref_ns[t] == 0) {
        st.epochs_cover_hours = false;
        continue;
      }
      st.freshness_ms.Add(static_cast<double>(ack_ns - tf.last_ref_ns[t]) * 1e-6);
    }
    tf.epoch = std::max(tf.epoch, ack.epoch);
  };
  st.start_ns = start_ns == 0 ? NowNs() : start_ns;
  uint64_t seq = 0;
  size_t cursor = 0;
  for (;;) {
    // Round-robin over tenants that still have batches.
    TenantFeed* tf = nullptr;
    for (size_t k = 0; k < tenants.size(); ++k) {
      TenantFeed& cand = tenants[(cursor + k) % tenants.size()];
      if (cand.next < cand.fleet->batches.size()) {
        tf = &cand;
        cursor = (cursor + k + 1) % tenants.size();
        break;
      }
    }
    if (tf == nullptr) break;
    uint64_t due = 0;
    if (interval_ns > 0) {
      due = st.start_ns + seq * interval_ns;
      if (stop_ns != 0 && due >= stop_ns) break;
      SleepUntilNs(due);
    } else if (stop_ns != 0 && NowNs() >= stop_ns) {
      break;
    }
    const auto& readings = tf->fleet->batches[tf->next];
    const uint64_t send_ns = NowNs();
    const bool traced = windows.Traced(send_ns);
    obs::TraceContext trace;
    if (traced) trace = obs::MakeTraceContext(trace_base, seq, kTraceSamplePeriod);
    if (interval_ns > 0) st.lateness_us.Add(static_cast<double>(send_ns - due) * 1e-3);
    auto ack = client->Ingest(tf->tenant, "0", readings, trace);
    const uint64_t ack_ns = NowNs();
    ++seq;
    ++st.batches;
    st.sent += readings.size();
    if (!ack.ok()) {
      ++st.failed;
      continue;
    }
    if (windows.on) {
      (traced ? st.rtt_traced_us : st.rtt_plain_us)
          .Add(static_cast<double>(ack_ns - send_ns) * 1e-3);
    }
    const size_t hour = tf->next / static_cast<size_t>(tf->fleet->batches_per_hour);
    if ((tf->next + 1) % static_cast<size_t>(tf->fleet->batches_per_hour) == 0) {
      tf->last_ref_ns[hour] = interval_ns > 0 ? due : send_ns;
    }
    ++tf->next;
    on_ack(*tf, *ack, readings.size(), ack_ns);
  }
  // Flush every tenant: the final epoch publishes the newest hour.
  for (TenantFeed& tf : tenants) {
    if (tf.next == 0) continue;
    const size_t bph = static_cast<size_t>(tf.fleet->batches_per_hour);
    const size_t hour = (tf.next - 1) / bph;
    if (tf.last_ref_ns[hour] == 0) tf.last_ref_ns[hour] = NowNs();
    auto ack = client->Ingest(tf.tenant, "0", {});
    ++st.batches;
    if (!ack.ok()) {
      ++st.failed;
      continue;
    }
    on_ack(tf, *ack, 0, NowNs());
    if (tf.epoch != hour + 1) st.epochs_cover_hours = false;
  }
  st.end_ns = NowNs();
  return st;
}

void Merge(FeedStats& into, const FeedStats& f) {
  into.sent += f.sent;
  into.accepted += f.accepted;
  into.clamped += f.clamped;
  into.rejected += f.rejected;
  into.batches += f.batches;
  into.failed += f.failed;
  into.counts_add_up = into.counts_add_up && f.counts_add_up;
  into.monotone = into.monotone && f.monotone;
  into.epochs_cover_hours = into.epochs_cover_hours && f.epochs_cover_hours;
  into.freshness_ms.Append(f.freshness_ms);
  into.lateness_us.Append(f.lateness_us);
  into.rtt_plain_us.Append(f.rtt_plain_us);
  into.rtt_traced_us.Append(f.rtt_traced_us);
}

/// Post-run durability checks of one ingest shard: ledger, WAL and the last
/// container on disk, which must answer exactly like the live server.
void CheckShardDurability(Report& report, int port, const Dirs& d,
                          const std::string& tenant, uint64_t epoch, uint64_t seed) {
  const std::string label = "shard " + tenant + ": ";
  auto snap = serve::ReadSnapshot(ContainerPath(d, tenant, epoch));
  report.Check(label + "last container decodes", snap.ok(),
               snap.ok() ? "" : snap.status().ToString());
  const std::string ledger_text = ReadFile(LedgerPath(d, tenant));
  const auto records = dp::AuditLedger::ParseJsonl(ledger_text);
  report.Check(label + "ledger and WAL are non-empty",
               !records.empty() && FileSize(d.wal + "/" + ShardFileStem(tenant) + ".wal") > 0);
  if (!snap.ok()) return;
  const double composed = dp::AuditLedger::ComposeRecords(records);
  report.Check(label + "ledger composed eps == consumed eps",
               std::memcmp(&composed, &snap->meta.eps_total, sizeof(double)) == 0,
               Fmt("%.17g vs %.17g", composed, snap->meta.eps_total));
  Rng rng(seed);
  auto batch = query::MakeWorkload(query::WorkloadKind::kRandom,
                                   snap->sanitized.dims(), 256, rng);
  auto client = serve::Client::Connect("127.0.0.1", port);
  bool same = false;
  if (client.ok()) {
    auto resp = client->QueryTenant(tenant, "0", *batch);
    same = resp.ok() && resp->epoch == epoch &&
           CountMismatches(*snap, *batch, resp->answers) == 0;
  }
  report.Check(label + "last container answers like the server", same);
}

void ReportFeedChecks(Report& report, const FeedStats& f, const Scrape& end) {
  report.Check("ingest: accepted + clamped + rejected == sent",
               f.counts_add_up && f.accepted + f.clamped + f.rejected == f.sent,
               Fmt("%llu + %llu + %llu vs %llu",
                   static_cast<unsigned long long>(f.accepted),
                   static_cast<unsigned long long>(f.clamped),
                   static_cast<unsigned long long>(f.rejected),
                   static_cast<unsigned long long>(f.sent)));
  const double server_total = PromSum(end.prom, "stpt_ingest_readings_total") +
                              PromSum(end.prom, "stpt_ingest_clamped_total") +
                              PromSum(end.prom, "stpt_ingest_rejected_total");
  report.Check("ingest: server counters match readings sent",
               server_total == static_cast<double>(f.sent));
  report.Check("ingest: epochs monotone on every connection", f.monotone);
  report.Check("ingest: one epoch per completed hour", f.epochs_cover_hours);
}

// --- Query clients ---------------------------------------------------------------

/// What query clients send: batches of kQueryBatch queries drawn
/// Zipf(1.0)-popular from the pool, addressed to a tenant drawn
/// Zipf(1.0)-popular (or uniformly). Each connection draws its own stream.
struct QueryPlan {
  std::vector<std::string> tenants;
  std::vector<query::RangeQuery> pool;
  std::shared_ptr<const Zipf> pool_zipf;
  std::shared_ptr<const Zipf> tenant_zipf;  ///< null = uniform over tenants

  size_t Next(Rng& rng, query::Workload& batch) const {
    const size_t tenant =
        tenant_zipf ? tenant_zipf->Draw(rng)
                    : static_cast<size_t>(rng.UniformInt(
                          0, static_cast<int64_t>(tenants.size()) - 1));
    batch.resize(kQueryBatch);
    for (auto& q : batch) q = pool[pool_zipf->Draw(rng)];
    return tenant;
  }
};

QueryPlan MakePlan(std::vector<query::RangeQuery> pool, std::vector<std::string> tenants,
                   bool zipf_tenants) {
  QueryPlan plan;
  plan.pool_zipf = std::make_shared<Zipf>(pool.size(), 1.0, 22);
  if (zipf_tenants) plan.tenant_zipf = std::make_shared<Zipf>(tenants.size(), 1.0, 16);
  plan.pool = std::move(pool);
  plan.tenants = std::move(tenants);
  return plan;
}

struct SampledAnswer {
  std::string tenant;
  uint64_t epoch = 0;
  query::Workload batch;
  std::vector<double> answers;
};

struct QueryStats {
  Samples latency_us;   ///< from due time (open loop) or send (closed loop)
  Samples lateness_us;  ///< actual send minus due
  /// latency_us split into untraced and traced windows (traced pass only).
  Samples plain_us, traced_us;
  uint64_t batches = 0, failed = 0;
  bool monotone = true;
  uint64_t start_ns = 0, end_ns = 0;
  std::vector<SampledAnswer> sampled;
};

QueryStats RunQueries(int port, const QueryPlan& plan, uint64_t interval_ns,
                      uint64_t start_ns, uint64_t stop_ns, uint64_t seed,
                      const TraceWindows& windows, size_t sample_every,
                      uint64_t max_batches) {
  QueryStats st;
  auto client = serve::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    st.failed = 1;
    return st;
  }
  Rng rng(seed);
  const Rng trace_base(seed ^ 0x7ace);
  std::map<std::string, uint64_t> last_epoch;
  st.start_ns = start_ns;
  query::Workload batch;
  for (uint64_t seq = 0;; ++seq) {
    const uint64_t due = interval_ns > 0 ? start_ns + seq * interval_ns : NowNs();
    if (due >= stop_ns || (max_batches > 0 && seq >= max_batches)) break;
    const size_t ti = plan.Next(rng, batch);
    const bool traced = windows.Traced(due);
    obs::TraceContext trace;
    if (traced) trace = obs::MakeTraceContext(trace_base, seq, kTraceSamplePeriod);
    if (interval_ns > 0) SleepUntilNs(due, kQuerySpinNs);
    const uint64_t send_ns = NowNs();
    auto resp = client->QueryTenant(plan.tenants[ti], "0", batch, 0, trace);
    const uint64_t done_ns = NowNs();
    ++st.batches;
    const double latency_us = static_cast<double>(done_ns - due) * 1e-3;
    st.lateness_us.Add(static_cast<double>(send_ns - due) * 1e-3);
    st.latency_us.Add(latency_us);
    if (windows.on) (traced ? st.traced_us : st.plain_us).Add(latency_us);
    if (!resp.ok() || resp->answers.size() != batch.size()) {
      ++st.failed;
      continue;
    }
    uint64_t& last = last_epoch[plan.tenants[ti]];
    if (resp->epoch < last) st.monotone = false;
    last = resp->epoch;
    if (sample_every > 0 && seq % sample_every == 0 && st.sampled.size() < 64) {
      st.sampled.push_back({plan.tenants[ti], resp->epoch, batch, resp->answers});
    }
  }
  st.end_ns = NowNs();
  return st;
}

/// Runs `conns` query clients on their own threads and merges their stats.
QueryStats RunQueryClients(int conns, int port, const QueryPlan& plan,
                           double batches_per_s, uint64_t start_ns, uint64_t stop_ns,
                           uint64_t seed, const TraceWindows& windows, size_t sample_every,
                           uint64_t max_batches = 0, Monitor* monitor = nullptr) {
  std::vector<QueryStats> per(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  std::atomic<int> finished{0};
  const uint64_t interval =
      batches_per_s > 0 ? static_cast<uint64_t>(1e9 * conns / batches_per_s) : 0;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      // Stagger connections so their schedules interleave evenly.
      const uint64_t offset = interval * static_cast<uint64_t>(c) / static_cast<uint64_t>(conns);
      per[static_cast<size_t>(c)] =
          RunQueries(port, plan, interval, start_ns + offset, stop_ns,
                     seed * 131 + static_cast<uint64_t>(c), windows, sample_every,
                     max_batches);
      ++finished;
    });
  }
  if (monitor != nullptr) monitor->PollUntil(finished, conns);
  for (auto& t : threads) t.join();
  QueryStats all;
  all.start_ns = start_ns;
  all.end_ns = start_ns;
  for (QueryStats& s : per) {
    all.latency_us.Append(s.latency_us);
    all.plain_us.Append(s.plain_us);
    all.traced_us.Append(s.traced_us);
    all.lateness_us.Append(s.lateness_us);
    all.batches += s.batches;
    all.failed += s.failed;
    all.monotone = all.monotone && s.monotone;
    all.end_ns = std::max(all.end_ns, s.end_ns);
    for (auto& a : s.sampled) all.sampled.push_back(std::move(a));
  }
  return all;
}

void ReportLateness(Report& report, const std::string& workload, const char* what,
                    Samples& lateness) {
  report.Info(Fmt("%s %s generator lateness: p99 %.1f us, max %.1f us (n=%zu)",
                  workload.c_str(), what, lateness.Pct(99), lateness.Max(),
                  lateness.size()));
}

/// Latency summary: exact percentiles over every sample, with the count.
void ReportLatency(Report& report, const std::string& workload, const char* name,
                   Samples& s, double scale, const char* unit) {
  report.Info(Fmt("%s %s: p50 %.4g p90 %.4g p99 %.4g max %.4g %s (n=%zu; highest "
                  "percentile with >= 10 samples beyond it: p%g)",
                  workload.c_str(), name, s.Pct(50) * scale, s.Pct(90) * scale,
                  s.Pct(99) * scale, s.Max() * scale, unit, s.size(), s.TailPercentile()));
}

}  // namespace

// ====================================================================================
// ingest_durable
// ====================================================================================

namespace {
constexpr int kDurableFeeders = 3;  // + the main thread = 4 generator threads
constexpr int kDurableMeters = 2000;
constexpr int kDurableHours = kRing;
}  // namespace

void RunIngestDurable(const Args& args, Report& report) {
  const std::string wl = "ingest_durable";
  const auto tenant_of = [](int f) {
    return f == 0 ? std::string(serve::kDefaultTenant) : Fmt("feed%d", f);
  };
  std::vector<double> setup_times, rss, round_thr, round_fresh_p50;
  FeedStats all;
  double cpu_s = 0;  // server CPU time over every round
  SpanCollector spans;
  Scrape first_before, first_after;
  ReadingBatches probe_batches;
  const uint64_t run_ns = static_cast<uint64_t>(args.seconds * 1e9);
  uint64_t measured_ns = 0;
  int round = 0;
  // Each round is one cold server fed one full week of the same CER twin
  // meters per shard, so rounds are replicates. Rounds repeat until the run's
  // time is spent, at least two.
  while (measured_ns < run_ns || round < 2) {
    const uint64_t setup_start = NowNs();
    std::vector<Fleet> fleets;
    for (int f = 0; f < kDurableFeeders; ++f) {
      fleets.push_back(MakeFleet(args.seed * 1000 + static_cast<uint64_t>(f), kDurableMeters,
                                 kDurableHours, kReadingBatch, static_cast<uint64_t>(f) << 32));
    }
    const Dirs dirs = FreshDirs(args.work_dir + "/ingest");
    ServerProcess server;
    std::string err;
    if (!server.Start(args.server_bin, IngestServerArgs(dirs, kDurableMeters, args.seed),
                      dirs.root, &err)) {
      report.Check("server starts", false, err);
      return;
    }
    setup_times.push_back(static_cast<double>(NowNs() - setup_start) * 1e-9);
    if (probe_batches.empty()) {
      for (size_t i = 0; i < 64 && i < fleets[0].batches.size(); ++i) {
        probe_batches.push_back(fleets[0].batches[i]);
      }
    }
    const int port = server.port();
    std::vector<std::vector<TenantFeed>> feeds(kDurableFeeders);
    for (int f = 0; f < kDurableFeeders; ++f) {
      feeds[static_cast<size_t>(f)].emplace_back(tenant_of(f), &fleets[static_cast<size_t>(f)]);
    }
    const Scrape before = ScrapeServer(port);
    std::vector<FeedStats> per(kDurableFeeders);
    std::atomic<int> finished{0};
    Monitor monitor(port, args.trace ? &spans : nullptr, false);
    const double cpu_start = server.CpuSeconds();
    const uint64_t start = NowNs();
    const TraceWindows windows{start, args.trace};
    std::vector<std::thread> threads;
    for (int f = 0; f < kDurableFeeders; ++f) {
      threads.emplace_back([&, f] {
        // Trace ids differ per round, so drained spans never collide.
        per[static_cast<size_t>(f)] =
            Feed(port, feeds[static_cast<size_t>(f)], 0, start, 0, windows,
                 (args.seed * 7 + static_cast<uint64_t>(f)) * 1000 + static_cast<uint64_t>(round));
        ++finished;
      });
    }
    monitor.PollUntil(finished, kDurableFeeders);
    for (auto& t : threads) t.join();
    const uint64_t end = NowNs();
    cpu_s += server.CpuSeconds() - cpu_start;
    measured_ns += end - start;
    FeedStats rs;
    for (const FeedStats& f : per) Merge(rs, f);
    const Scrape after = ScrapeServer(port);
    if (round == 0) {
      first_before = before;
      first_after = after;
    }
    ReportFeedChecks(report, rs, after);
    for (int f = 0; f < kDurableFeeders; ++f) {
      CheckShardDurability(report, port, dirs, tenant_of(f), feeds[static_cast<size_t>(f)][0].epoch,
                           args.seed + static_cast<uint64_t>(f));
    }
    rss.push_back(server.PeakRssMb());
    if (args.trace && round == 0) {
      // Layer counters from files the deployed flags left behind.
      double wal_bytes = 0, snap_bytes = 0, ledger_records = 0, epochs = 0;
      for (int f = 0; f < kDurableFeeders; ++f) {
        const std::string t = tenant_of(f);
        const uint64_t e = feeds[static_cast<size_t>(f)][0].epoch;
        wal_bytes += static_cast<double>(FileSize(dirs.wal + "/" + ShardFileStem(t) + ".wal"));
        snap_bytes += static_cast<double>(FileSize(ContainerPath(dirs, t, e)));
        ledger_records += static_cast<double>(
            dp::AuditLedger::ParseJsonl(ReadFile(LedgerPath(dirs, t))).size());
        epochs += static_cast<double>(e);
      }
      report.Metric("wal.bytes_per_reading", wal_bytes / static_cast<double>(rs.sent), "B");
      report.Metric("snapshot.bytes_per_epoch", snap_bytes / kDurableFeeders, "B");
      report.Metric("ledger.records_per_epoch", ledger_records / epochs, "count");
    }
    report.Check("server exits cleanly", server.Stop());
    const double secs = static_cast<double>(end - start) * 1e-9;
    round_thr.push_back(static_cast<double>(rs.accepted + rs.clamped) / secs);
    round_fresh_p50.push_back(rs.freshness_ms.Pct(50));
    report.Info(Fmt("%s round %d: %llu readings in %.3f s, freshness p50 %.3f ms (n=%zu)",
                    wl.c_str(), round, static_cast<unsigned long long>(rs.sent), secs,
                    round_fresh_p50.back(), rs.freshness_ms.size()));
    Merge(all, rs);
    ++round;
  }
  RemoveTree(args.work_dir + "/ingest");
  report.Attempted(all.batches);
  report.Failed(all.failed);

  // A stall of the host lowers a round's throughput and raises its
  // freshness, never the reverse: the figures are the best round's.
  const double thr = *std::max_element(round_thr.begin(), round_thr.end());
  const double fresh_p50 = *std::min_element(round_fresh_p50.begin(), round_fresh_p50.end());
  const double setup_s = MedianOf(setup_times);
  const double peak = MedianOf(rss);
  const double cpu_us = cpu_s * 1e6 / static_cast<double>(all.accepted + all.clamped);
  Named(report, wl, "setup_s", setup_s, "s", "median over rounds (each a cold start)");
  Named(report, wl, "peak_rss_mb", peak, "MB", "server VmHWM, median over rounds");
  Named(report, wl, "ingest_readings_per_s", thr, "1/s",
        Fmt("admitted = accepted + clamped, best of %d rounds", round));
  Named(report, wl, "server_cpu_us_per_reading", cpu_us, "us",
        "server user + system CPU per admitted reading, all rounds");
  Named(report, wl, "freshness_p50_ms", fresh_p50, "ms", Fmt("best of %d rounds", round));
  Named(report, wl, "freshness_p99_ms", all.freshness_ms.Pct(99), "ms", "all rounds");
  ReportLatency(report, wl, "freshness (all rounds)", all.freshness_ms, 1.0, "ms");
  report.Info(Fmt("%s load: %d closed-loop feeders x %d CER meters, batches of %d, "
                  "%d rounds; server --threads=%d",
                  wl.c_str(), kDurableFeeders, kDurableMeters, kReadingBatch, round,
                  kServerThreads));
  if (!args.trace) {
    report.Metric("setup_s", setup_s, "s");
    report.Metric("peak_rss_mb", peak, "MB");
    report.Metric("cpu_us_per_op", cpu_us, "us");
    report.Metric("throughput_per_s", thr, "1/s");
    report.Metric("latency_p50_ms", fresh_p50, "ms");
    return;
  }
  // --- traced pass: per-layer attribution -------------------------------------
  report.Metric("obs.trace_overhead_pct", OverheadPct(all.rtt_plain_us, all.rtt_traced_us), "%");
  report.Info(Fmt("%s overhead base: batch round trip p50 %.2f us in untraced windows (n=%zu) "
                  "vs %.2f us in traced windows (n=%zu)",
                  wl.c_str(), all.rtt_plain_us.Pct(50), all.rtt_plain_us.size(),
                  all.rtt_traced_us.Pct(50), all.rtt_traced_us.size()));
  ReportSpans(report, wl, spans);
  ReportServerCounters(report, first_before, first_after);
  const double sent = static_cast<double>(all.sent);
  report.Metric("ingest.clamped_ratio", static_cast<double>(all.clamped) / sent, "ratio");
  report.Metric("ingest.rejected_ratio", static_cast<double>(all.rejected) / sent, "ratio");
  report.Info(Fmt("%s ratio base: %.0f readings sent", wl.c_str(), sent));
  // Counters of the first round's server (each round restarts it).
  const double epochs = PromSum(first_after.prom, "stpt_ingest_epochs_total");
  report.Metric("ingest.epochs", epochs, "count");
  report.Metric("prefix.timesteps_per_epoch",
                epochs > 0 ? PromSum(first_after.prom, "stpt_ingest_flush_timesteps_total") /
                                 epochs
                           : 0.0,
                "count");
  ProbeReadingDecode(probe_batches, report);
  ProbeAdmit(probe_batches, UnitKwh(), report);
  ProbeWal(args.work_dir, probe_batches, report);
  ProbePublishStages(args.work_dir, UnitKwh(), report);
  ProbeRoute(kDurableFeeders, report);
}

// ====================================================================================
// query_zipf
// ====================================================================================

namespace {
constexpr int kZipfShards = 16;
constexpr int kZipfConns = 3;  // + the main thread = 4 generator threads
constexpr uint64_t kWarmupBatches = 4800;  // closed loop, before any measurement
constexpr double kZipfRefRate = 1000;  // batches/s offered in the latency phase
constexpr double kLatencyLimitUs = 5000;  // p99 limit behind query_max_qps
/// Offered rates of the ladder, batches/s. Each rung sends kRungBatches
/// batches, so its p99 has at least ten samples beyond it.
const double kLadder[] = {1000, 1500, 2000, 3000, 4000, 5000, 6000, 8000};
constexpr uint64_t kRungBatches = 1101;

/// One cold query_zipf server with its 16 shards loaded.
struct ZipfInstance {
  std::vector<serve::Snapshot> snaps;
  std::vector<std::string> tenants;
  QueryPlan plan;
  std::unique_ptr<ServerProcess> server;
};

ZipfInstance StartZipfInstance(const Args& args, const std::string& dir, Report& report) {
  ZipfInstance s;
  RemoveTree(dir);
  MakeDirs(dir);
  datagen::GenerateOptions opt;
  opt.hours = kRing;
  Rng rng(args.seed);
  auto ds = datagen::GenerateDataset(datagen::CerSpec(), datagen::SpatialDistribution::kUniform,
                                     opt, rng);
  auto truth = datagen::BuildConsumptionMatrix(*ds, 1);
  s.server = std::make_unique<ServerProcess>();
  std::string err;
  if (!s.server->Start(args.server_bin, {Fmt("--threads=%d", kServerThreads)}, dir, &err)) {
    report.Check("server starts", false, err);
    s.server.reset();
    return s;
  }
  auto admin = serve::Client::Connect("127.0.0.1", s.server->port());
  for (int i = 0; i < kZipfShards; ++i) {
    const std::string tenant = i == 0 ? std::string(serve::kDefaultTenant) : Fmt("zipf%02d", i);
    s.snaps.push_back(MakeStaticRelease(*truth, args.seed * 100 + static_cast<uint64_t>(i)));
    const std::string path = dir + "/" + tenant + ".stpt";
    const bool ok = serve::WriteSnapshot(s.snaps.back(), path).ok() && admin.ok() &&
                    admin->Load(tenant, "0", path).ok();
    if (!ok) report.Check("shard " + tenant + " loads", false);
    s.tenants.push_back(tenant);
  }
  s.plan = MakePlan(MakeQueryPool(args.seed ^ 0x9e3779b9), s.tenants, true);
  return s;
}

}  // namespace

void RunQueryZipf(const Args& args, Report& report) {
  const std::string wl = "query_zipf";
  const std::string dir = args.work_dir + "/zipf";
  const uint64_t run_ns = static_cast<uint64_t>(args.seconds * 1e9);
  // Several cold servers per run: a server's memory placement shifts its
  // cache-miss cost, so one process would decide a whole run's figures.
  // The traced run uses one instance, with traced and untraced windows.
  const int instances = args.trace ? 1 : 3;
  uint64_t attempted = 0, failed = 0;
  bool monotone = true;
  size_t mismatches = 0, compared = 0;
  std::vector<double> setup_times, rss, capacity;
  Samples latency_us, lateness_us;
  double hits = 0, lookups = 0;
  double ref_cpu_s = 0, ref_queries = 0;
  double max_qps = 0;
  QueryStats traced;
  Scrape traced_before, traced_after;
  SpanCollector spans;
  ZipfInstance s;
  for (int k = 0; k < instances; ++k) {
    const uint64_t setup_start = NowNs();
    s = StartZipfInstance(args, dir, report);
    setup_times.push_back(static_cast<double>(NowNs() - setup_start) * 1e-9);
    if (!s.server) return;
    const int port = s.server->port();
    const auto verify = [&](const QueryStats& q) {
      attempted += q.batches;
      failed += q.failed;
      monotone = monotone && q.monotone;
      for (const SampledAnswer& a : q.sampled) {
        const size_t idx = static_cast<size_t>(
            std::find(s.tenants.begin(), s.tenants.end(), a.tenant) - s.tenants.begin());
        mismatches += CountMismatches(s.snaps[idx], a.batch, a.answers);
        compared += a.answers.size();
      }
    };
    // Warm-up, not measured: a fixed number of closed-loop batches brings the
    // shards' answer caches to the same state on every run.
    verify(RunQueryClients(kZipfConns, port, s.plan, 0, NowNs(), ~uint64_t{0}, args.seed ^ 0xa11,
                           {}, 0, kWarmupBatches / kZipfConns));
    const Scrape before = ScrapeServer(port);
    if (args.trace) {
      // The reference rate for most of the run, tracing every other window.
      Monitor monitor(port, &spans, false);
      const uint64_t t0 = NowNs() + 5'000'000;
      traced = RunQueryClients(kZipfConns, port, s.plan, kZipfRefRate, t0, t0 + run_ns * 3 / 4,
                               args.seed * 10, TraceWindows{t0, true}, 128, 0, &monitor);
      verify(traced);
      traced_before = before;
      traced_after = ScrapeServer(port);
    } else {
      // Latency at the fixed reference rate (45% of the run). Peak memory is
      // read after it, i.e. after a fixed number of requests.
      const double cpu_start = s.server->CpuSeconds();
      const uint64_t t0 = NowNs() + 5'000'000;
      QueryStats ref = RunQueryClients(kZipfConns, port, s.plan, kZipfRefRate, t0,
                                       t0 + run_ns * 45 / 100 / instances,
                                       args.seed * 10 + static_cast<uint64_t>(k), {}, 128);
      verify(ref);
      ref_cpu_s += s.server->CpuSeconds() - cpu_start;
      ref_queries += static_cast<double>((ref.batches - ref.failed) * kQueryBatch);
      latency_us.Append(ref.latency_us);
      lateness_us.Append(ref.lateness_us);
      rss.push_back(s.server->PeakRssMb());
      const Scrape mid = ScrapeServer(port);
      const double h = Delta(before, mid, "stpt_shard_cache_hits_total");
      hits += h;
      lookups += h + Delta(before, mid, "stpt_shard_cache_misses_total");
      // Closed-loop capacity (40%): the best of three windows, since a stall
      // of the host lowers some windows and never raises one.
      double best = 0;
      for (int w = 0; w < 3; ++w) {
        const uint64_t w0 = NowNs();
        QueryStats cap = RunQueryClients(kZipfConns, port, s.plan, 0, w0,
                                         w0 + run_ns * 40 / 100 / instances / 3,
                                         args.seed + 1 + static_cast<uint64_t>(w), {}, 512);
        verify(cap);
        best = std::max(best, static_cast<double>((cap.batches - cap.failed) * kQueryBatch) /
                                  (static_cast<double>(cap.end_ns - w0) * 1e-9));
      }
      capacity.push_back(best);
      if (k + 1 == instances) {
        // The fixed ladder of offered rates, climbing until a rung misses
        // the p99 limit, fails a request, or builds a backlog.
        for (double rate : kLadder) {
          const uint64_t r0 = NowNs() + 2'000'000;
          QueryStats rung = RunQueryClients(kZipfConns, port, s.plan, rate, r0, ~uint64_t{0},
                                            args.seed + static_cast<uint64_t>(rate), {}, 0,
                                            (kRungBatches + kZipfConns - 1) / kZipfConns);
          verify(rung);
          const double p99 = rung.latency_us.Pct(99);
          const bool backlog = rung.lateness_us.Pct(99) > kLatencyLimitUs;
          const bool pass = rung.failed == 0 && p99 <= kLatencyLimitUs && !backlog;
          report.Info(Fmt("%s ladder %6.0f batches/s: p99 %.1f us, lateness p99 %.1f us, "
                          "n=%zu -> %s",
                          wl.c_str(), rate, p99, rung.lateness_us.Pct(99),
                          rung.latency_us.size(), pass ? "meets limit" : "misses limit"));
          if (!pass) break;
          max_qps = rate * kQueryBatch;
        }
      }
    }
    report.Check("server exits cleanly", s.server->Stop());
  }
  RemoveTree(dir);
  report.Check("query: sampled answers equal local BoxSum bitwise",
               mismatches == 0 && compared > 0, Fmt("%zu of %zu differ", mismatches, compared));
  report.Check("query: epochs monotone on every connection", monotone);
  report.Attempted(attempted);
  report.Failed(failed);
  const double setup_s = MedianOf(setup_times);
  Named(report, wl, "setup_s", setup_s, "s", Fmt("median of %d cold starts", instances));
  if (!args.trace) {
    const double peak = MedianOf(rss);
    const double capacity_qps = MedianOf(capacity);
    Named(report, wl, "peak_rss_mb", peak, "MB",
          "server VmHWM after the reference phase, median of instances");
    const double cpu_us = ref_queries > 0 ? ref_cpu_s * 1e6 / ref_queries : 0.0;
    Named(report, wl, "server_cpu_us_per_query", cpu_us, "us",
          "server user + system CPU per answered query, reference phase");
    Named(report, wl, "query_p50_us", latency_us.Pct(50), "us",
          Fmt("at %.0f batches/s offered (%d queries each)", kZipfRefRate, kQueryBatch));
    Named(report, wl, "query_p99_us", latency_us.Pct(99), "us");
    Named(report, wl, "query_max_qps", max_qps, "1/s",
          Fmt("highest ladder rung with p99 <= %.0f us and no backlog", kLatencyLimitUs));
    Named(report, wl, "query_capacity_qps", capacity_qps, "1/s",
          Fmt("%d closed-loop connections, median over instances of the best of 3 windows",
              kZipfConns));
    Named(report, wl, "cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio",
          Fmt("base %.0f lookups", lookups));
    ReportLatency(report, wl, "query batch latency", latency_us, 1.0, "us");
    ReportLateness(report, wl, "reference phase", lateness_us);
    report.Metric("setup_s", setup_s, "s");
    report.Metric("peak_rss_mb", peak, "MB");
    report.Metric("cpu_us_per_op", cpu_us, "us");
    report.Metric("throughput_per_s", capacity_qps, "1/s");
    report.Metric("latency_p50_ms", latency_us.Pct(50) * 1e-3, "ms");
    return;
  }
  report.Metric("obs.trace_overhead_pct", OverheadPct(traced.plain_us, traced.traced_us), "%");
  report.Info(Fmt("%s overhead base: query p50 %.2f us in untraced windows (n=%zu) vs %.2f us "
                  "in traced windows (n=%zu), one server",
                  wl.c_str(), traced.plain_us.Pct(50), traced.plain_us.size(),
                  traced.traced_us.Pct(50), traced.traced_us.size()));
  ReportSpans(report, wl, spans);
  ReportServerCounters(report, traced_before, traced_after);
  const double traced_hits = Delta(traced_before, traced_after, "stpt_shard_cache_hits_total");
  const double traced_lookups =
      traced_hits + Delta(traced_before, traced_after, "stpt_shard_cache_misses_total");
  report.Metric("query_server.cache_hit_ratio",
                traced_lookups > 0 ? traced_hits / traced_lookups : 0, "ratio");
  report.Info(Fmt("%s cache_hit_ratio base: %.0f lookups", wl.c_str(), traced_lookups));
  std::vector<query::Workload> batches(64);
  Rng probe_rng(args.seed);
  for (auto& b : batches) s.plan.Next(probe_rng, b);
  ProbeQueryCodec(batches, report);
  ProbeAnswer(s.snaps[0], batches, report);
  ProbeRoute(kZipfShards, report);
}

// ====================================================================================
// live_mixed
// ====================================================================================

namespace {
constexpr int kLiveTenants = 2;
constexpr int kLiveMeters = 5000;
constexpr double kLiveReadingsPerS = 100000;  // offered, open loop
constexpr double kLiveQueryRate = 400;        // batches/s offered, open loop
constexpr int kLiveQueryConns = 2;            // + feeder + main = 4 threads

std::string LiveTenant(int i) {
  return i == 0 ? std::string(serve::kDefaultTenant) : Fmt("live%d", i);
}

/// What one live_mixed server instance measured.
struct LivePass {
  FeedStats feed;  ///< measured pass only (warm-up excluded)
  QueryStats query;
  double server_cpu_s = 0;  ///< over the measured pass
  double cache_hits = 0, cache_lookups = 0;
  double peak_rss_mb = 0;
  Scrape before, after;
  SpanCollector spans;
  // Layer inputs kept for the traced pass.
  ReadingBatches probe_batches;
  std::optional<serve::Snapshot> last_snap;
  double wal_bytes_per_reading = 0, snap_bytes = 0, ledger_records_per_epoch = 0;
};

/// Starts a cold ingest server, warms it with hour 0 of every tenant, runs
/// the open-loop feeder and query clients for `duration_ns`, then checks
/// every output the instance left behind. Returns false when the server
/// could not start.
bool RunLiveInstance(const Args& args, uint64_t duration_ns, bool traced, int index,
                     Report& report, LivePass* out, double* setup_s) {
  const uint64_t setup_start = NowNs();
  // Hours the open-loop feeder can reach, plus warm-up, capped at one ring
  // (a shard's budget is sized for one week of slices).
  const int hours = std::min<int>(
      kRing, 2 + static_cast<int>(std::ceil(kLiveReadingsPerS * static_cast<double>(duration_ns) *
                                            1e-9 / (kLiveTenants * kLiveMeters))));
  std::vector<Fleet> fleets;
  for (int i = 0; i < kLiveTenants; ++i) {
    fleets.push_back(MakeFleet(args.seed * 1000 + 500 + static_cast<uint64_t>(i), kLiveMeters,
                               hours, kReadingBatch, static_cast<uint64_t>(i) << 32));
  }
  std::vector<std::string> tenants;
  for (int i = 0; i < kLiveTenants; ++i) tenants.push_back(LiveTenant(i));
  const QueryPlan plan = MakePlan(MakeQueryPool(args.seed ^ 0x51ed), tenants, false);
  const Dirs dirs = FreshDirs(args.work_dir + "/live");
  ServerProcess server;
  std::string err;
  if (!server.Start(args.server_bin, IngestServerArgs(dirs, kLiveMeters, args.seed), dirs.root,
                    &err)) {
    report.Check("server starts", false, err);
    return false;
  }
  *setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;
  const int port = server.port();

  // Warm-up: hour 0 of every tenant, closed loop, published by a flush so the
  // query clients find epoch 1 everywhere. The measured feed goes on at hour 1.
  std::vector<Fleet> warm(fleets);
  std::vector<TenantFeed> warm_feeds, live;
  for (int i = 0; i < kLiveTenants; ++i) {
    Fleet& w = warm[static_cast<size_t>(i)];
    w.hours = 1;
    w.batches.resize(static_cast<size_t>(w.batches_per_hour));
    warm_feeds.emplace_back(tenants[static_cast<size_t>(i)], &w);
  }
  FeedStats all_feed = Feed(port, warm_feeds, 0, 0, 0, {}, 0);
  for (int i = 0; i < kLiveTenants; ++i) {
    live.emplace_back(tenants[static_cast<size_t>(i)], &fleets[static_cast<size_t>(i)]);
    live.back().next = static_cast<size_t>(fleets[static_cast<size_t>(i)].batches_per_hour);
    live.back().epoch = warm_feeds[static_cast<size_t>(i)].epoch;
  }

  out->before = ScrapeServer(port);
  const double cpu_start = server.CpuSeconds();
  Monitor monitor(port, traced ? &out->spans : nullptr, true);
  const uint64_t start = NowNs() + 5'000'000;
  const uint64_t stop_ns = start + duration_ns;
  const TraceWindows windows{start, traced};
  std::thread feeder([&] {
    out->feed = Feed(port, live, static_cast<uint64_t>(1e9 * kReadingBatch / kLiveReadingsPerS),
                     start, stop_ns, windows, args.seed * 13 + static_cast<uint64_t>(index));
  });
  out->query = RunQueryClients(kLiveQueryConns, port, plan, kLiveQueryRate, start, stop_ns,
                               args.seed * 17 + static_cast<uint64_t>(index), windows, 32, 0,
                               &monitor);
  feeder.join();
  out->server_cpu_s = server.CpuSeconds() - cpu_start;
  out->after = ScrapeServer(port);
  out->cache_hits = monitor.hits();
  out->cache_lookups = monitor.lookups();

  // --- correctness ---------------------------------------------------------------
  Merge(all_feed, out->feed);
  ReportFeedChecks(report, all_feed, out->after);
  size_t mismatches = 0, compared = 0;
  std::map<std::string, serve::Snapshot> loaded;
  for (const SampledAnswer& a : out->query.sampled) {
    const std::string path = ContainerPath(dirs, a.tenant, a.epoch);
    if (!loaded.count(path)) {
      if (loaded.size() >= 16) continue;
      auto snap = serve::ReadSnapshot(path);
      if (!snap.ok()) {
        ++mismatches;
        continue;
      }
      loaded.emplace(path, std::move(*snap));
    }
    mismatches += CountMismatches(loaded.at(path), a.batch, a.answers);
    compared += a.answers.size();
  }
  report.Check("query: sampled answers equal the epoch's container bitwise",
               mismatches == 0 && compared > 0,
               Fmt("%zu of %zu differ over %zu epochs", mismatches, compared, loaded.size()));
  report.Check("query: epochs monotone on every connection", out->query.monotone);
  for (int i = 0; i < kLiveTenants; ++i) {
    CheckShardDurability(report, port, dirs, tenants[static_cast<size_t>(i)],
                         live[static_cast<size_t>(i)].epoch,
                         args.seed + 40 + static_cast<uint64_t>(i));
  }
  out->peak_rss_mb = server.PeakRssMb();
  if (traced) {
    const std::string& t0 = tenants[0];
    const uint64_t epochs = std::max<uint64_t>(1, live[0].epoch);
    out->wal_bytes_per_reading =
        static_cast<double>(FileSize(dirs.wal + "/" + ShardFileStem(t0) + ".wal")) /
        static_cast<double>(all_feed.sent / kLiveTenants);
    out->snap_bytes = static_cast<double>(FileSize(ContainerPath(dirs, t0, live[0].epoch)));
    out->ledger_records_per_epoch =
        static_cast<double>(dp::AuditLedger::ParseJsonl(ReadFile(LedgerPath(dirs, t0))).size()) /
        static_cast<double>(epochs);
    if (auto snap = serve::ReadSnapshot(ContainerPath(dirs, t0, live[0].epoch)); snap.ok()) {
      out->last_snap = std::move(*snap);
    }
    out->probe_batches.assign(fleets[0].batches.begin(), fleets[0].batches.begin() + 64);
  }
  report.Check("server exits cleanly", server.Stop());
  RemoveTree(dirs.root);
  report.Attempted(all_feed.batches + out->query.batches);
  report.Failed(all_feed.failed + out->query.failed);
  return true;
}

}  // namespace

void RunLiveMixed(const Args& args, Report& report) {
  const std::string wl = "live_mixed";
  const uint64_t run_ns = static_cast<uint64_t>(args.seconds * 1e9);
  // Several cold servers per run (see RunQueryZipf); the traced run uses one
  // instance, with traced and untraced windows.
  const int instances = args.trace ? 1 : 3;
  std::vector<LivePass> passes(static_cast<size_t>(instances));
  std::vector<double> setup_times, rss;
  FeedStats feed;
  Samples query_us;
  double hits = 0, lookups = 0, feed_ns = 0, cpu_s = 0, ops = 0;
  for (int k = 0; k < instances; ++k) {
    LivePass& p = passes[static_cast<size_t>(k)];
    double setup_s = 0;
    if (!RunLiveInstance(args, run_ns / static_cast<uint64_t>(instances), args.trace, k, report,
                         &p, &setup_s)) {
      return;
    }
    setup_times.push_back(setup_s);
    rss.push_back(p.peak_rss_mb);
    Merge(feed, p.feed);
    feed_ns += static_cast<double>(p.feed.end_ns - p.feed.start_ns);
    query_us.Append(p.query.latency_us);
    cpu_s += p.server_cpu_s;
    ops += static_cast<double>(p.feed.accepted + p.feed.clamped) +
           static_cast<double>((p.query.batches - p.query.failed) * kQueryBatch);
    hits += p.cache_hits;
    lookups += p.cache_lookups;
  }
  const double setup_s = MedianOf(setup_times);
  const double achieved = static_cast<double>(feed.accepted + feed.clamped) / (feed_ns * 1e-9);
  Named(report, wl, "setup_s", setup_s, "s", Fmt("median of %d cold starts", instances));
  Named(report, wl, "peak_rss_mb", MedianOf(rss), "MB", "server VmHWM, median of instances");
  Named(report, wl, "ingest_readings_per_s", achieved, "1/s",
        Fmt("offered %.0f/s open loop", kLiveReadingsPerS));
  const double cpu_us = ops > 0 ? cpu_s * 1e6 / ops : 0.0;
  Named(report, wl, "server_cpu_us_per_op", cpu_us, "us",
        "server user + system CPU per admitted reading or answered query");
  Named(report, wl, "freshness_p50_ms", feed.freshness_ms.Pct(50), "ms");
  Named(report, wl, "freshness_p99_ms", feed.freshness_ms.Pct(99), "ms");
  Named(report, wl, "query_p50_us", query_us.Pct(50), "us",
        Fmt("at %.0f batches/s offered", kLiveQueryRate));
  Named(report, wl, "query_p99_us", query_us.Pct(99), "us");
  Named(report, wl, "cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio",
        Fmt("base %.0f lookups over the generations observed", lookups));
  ReportLatency(report, wl, "freshness", feed.freshness_ms, 1.0, "ms");
  ReportLatency(report, wl, "query batch latency", query_us, 1.0, "us");
  ReportLateness(report, wl, "feeder", feed.lateness_us);
  report.Info(Fmt("%s load: 1 open-loop feeder over %d tenants x %d CER meters at %.0f "
                  "readings/s, %d open-loop query connections at %.0f batches/s; "
                  "server --threads=%d; %d instances",
                  wl.c_str(), kLiveTenants, kLiveMeters, kLiveReadingsPerS,
                  kLiveQueryConns, kLiveQueryRate, kServerThreads, instances));
  if (!args.trace) {
    report.Metric("setup_s", setup_s, "s");
    report.Metric("peak_rss_mb", MedianOf(rss), "MB");
    report.Metric("cpu_us_per_op", cpu_us, "us");
    report.Metric("throughput_per_s", achieved, "1/s");
    report.Metric("latency_p50_ms", query_us.Pct(50) * 1e-3, "ms");
    return;
  }
  LivePass& t = passes[0];
  report.Metric("obs.trace_overhead_pct", OverheadPct(t.query.plain_us, t.query.traced_us), "%");
  report.Info(Fmt("%s overhead base: query p50 %.2f us in untraced windows (n=%zu) vs %.2f us "
                  "in traced windows (n=%zu), one server",
                  wl.c_str(), t.query.plain_us.Pct(50), t.query.plain_us.size(),
                  t.query.traced_us.Pct(50), t.query.traced_us.size()));
  ReportSpans(report, wl, t.spans);
  ReportServerCounters(report, t.before, t.after);
  report.Metric("query_server.cache_hit_ratio",
                t.cache_lookups > 0 ? t.cache_hits / t.cache_lookups : 0, "ratio");
  const double sent = static_cast<double>(t.feed.sent);
  report.Metric("ingest.clamped_ratio", static_cast<double>(t.feed.clamped) / sent, "ratio");
  report.Metric("ingest.rejected_ratio", static_cast<double>(t.feed.rejected) / sent, "ratio");
  report.Info(Fmt("%s ratio base: %.0f readings sent", wl.c_str(), sent));
  const double epochs = PromSum(t.after.prom, "stpt_ingest_epochs_total");
  report.Metric("ingest.epochs", epochs, "count");
  report.Metric("prefix.timesteps_per_epoch",
                epochs > 0 ? PromSum(t.after.prom, "stpt_ingest_flush_timesteps_total") / epochs
                           : 0,
                "count");
  report.Metric("wal.bytes_per_reading", t.wal_bytes_per_reading, "B");
  report.Metric("snapshot.bytes_per_epoch", t.snap_bytes, "B");
  report.Metric("ledger.records_per_epoch", t.ledger_records_per_epoch, "count");
  ProbeReadingDecode(t.probe_batches, report);
  ProbeAdmit(t.probe_batches, UnitKwh(), report);
  ProbeWal(args.work_dir, t.probe_batches, report);
  ProbePublishStages(args.work_dir, UnitKwh(), report);
  std::vector<std::string> tenants;
  for (int i = 0; i < kLiveTenants; ++i) tenants.push_back(LiveTenant(i));
  const QueryPlan plan = MakePlan(MakeQueryPool(args.seed ^ 0x51ed), tenants, false);
  std::vector<query::Workload> batches(64);
  Rng probe_rng(args.seed);
  for (auto& b : batches) plan.Next(probe_rng, b);
  ProbeQueryCodec(batches, report);
  if (t.last_snap) ProbeAnswer(*t.last_snap, batches, report);
  ProbeRoute(kLiveTenants, report);
}

}  // namespace perfbench
