#include "ingest/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>

#include "ingest/contribution_map.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serve/snapshot.h"

namespace stpt::ingest {
namespace {

// FNV-1a, the repo's conventional cheap stable hash (see fuzz/fuzz_util.h).
// Keyed per shard so noise streams never collide across tenants.
uint64_t Fnv1a64(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t ShardStream(const std::string& tenant, const std::string& tile) {
  // Length-prefixed concatenation, so ("ab", "c") and ("a", "bc") hash to
  // different streams even though names are arbitrary bytes.
  std::string key = std::to_string(tenant.size());
  key.push_back(':');
  key += tenant;
  key += tile;
  return Fnv1a64(key);
}

/// File-system-safe rendering of a wire name: tenant/tile come off the wire
/// as arbitrary bytes, and they become snapshot/ledger path components.
/// Anything outside [A-Za-z0-9_-] is replaced, and a replaced or empty name
/// gets an FNV suffix so distinct hostile names cannot collide onto one
/// path.
std::string SafeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  bool replaced = name.empty();
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (ok && out.size() < 64) {
      out.push_back(c);
    } else {
      replaced = true;
      if (out.size() < 64) out.push_back('_');
    }
  }
  if (replaced) {
    char suffix[20];
    std::snprintf(suffix, sizeof(suffix), "-%08llx",
                  static_cast<unsigned long long>(Fnv1a64(name) & 0xFFFFFFFFull));
    out += suffix;
  }
  return out;
}

/// Shortest round-trip double rendering (%.17g survives a bitwise
/// parse-back, which the CI ledger check relies on).
std::string JsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The default shard appends to ledger_path itself; every other shard gets
/// a per-shard suffix. Recovery recomputes the same path to read the dead
/// process's ledger before the new shard truncates it.
std::string ShardLedgerPath(const std::string& ledger_path,
                            const std::string& tenant,
                            const std::string& tile) {
  std::string path = ledger_path;
  if (tenant != serve::kDefaultTenant || tile != serve::kDefaultTile) {
    path += "." + SafeName(tenant) + "." + SafeName(tile);
  }
  return path;
}

std::string ShardWalPath(const std::string& wal_dir, const std::string& tenant,
                         const std::string& tile) {
  return wal_dir + "/" + SafeName(tenant) + "." + SafeName(tile) + ".wal";
}

std::string ShardSnapshotPath(const std::string& snapshot_dir,
                              const std::string& tenant,
                              const std::string& tile, uint64_t publish_seq) {
  return snapshot_dir + "/" + SafeName(tenant) + "." + SafeName(tile) + ".p" +
         std::to_string(publish_seq) + serve::kSnapshotExtension;
}

/// Whole-file read for recovery verification; nullopt when unreadable.
std::optional<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string bytes;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) bytes.append(buf, n);
  std::fclose(file);
  return bytes;
}

// Child-span stages of a traced ingest request under the serve tier's exec
// span: apply covers the whole batch, publish the w-event republish it
// triggered (the registry records its own swap span under publish).
constexpr uint64_t kStageApply = 1;
constexpr uint64_t kStagePublish = 2;

obs::TraceContext ChildContext(const obs::TraceContext& parent, uint64_t seq) {
  obs::TraceContext child = parent;
  child.span_id = obs::ChildSpanId(parent.span_id, seq);
  return child;
}

void RecordIngestSpan(const obs::TraceContext& ctx, uint64_t parent_span_id,
                      uint64_t start_ns, const char* name,
                      std::vector<std::pair<std::string, std::string>> attrs) {
  obs::TraceSpan span;
  span.trace_hi = ctx.trace_hi;
  span.trace_lo = ctx.trace_lo;
  span.span_id = ctx.span_id;
  span.parent_span_id = parent_span_id;
  span.start_ns = start_ns;
  span.end_ns = obs::NowNanos();
  span.name = name;
  span.lane = "ingest";
  span.attrs = std::move(attrs);
  obs::TraceStore::Global().Add(std::move(span));
}

}  // namespace

/// All mutable per-shard state, guarded by `mu`. Shards are heap-pinned
/// (unique_ptr in the map), so the accountant→ledger and
/// publisher→accountant back-pointers below stay valid for the shard's
/// lifetime.
struct IngestPipeline::Shard {
  std::mutex mu;
  std::string tenant;
  std::string tile;

  grid::ConsumptionMatrix raw;  ///< ring accumulator: slice at slot t % ct
  std::optional<IncrementalPrefix> sanitized;  ///< DP-released matrix + prefix
  std::optional<core::StreamingPublisher> publisher;
  std::optional<dp::BudgetAccountant> accountant;
  dp::AuditLedger ledger;
  Rng rng{0};

  /// Admitted contribution per (meter, cell), one map per ring slot — the
  /// state that enforces the ±unit_sensitivity clamp. A slice's keys die
  /// wholesale with its publication (an O(1) Clear of its map), so the
  /// ring holds at most the open window's meters.
  std::vector<ContributionMap> contribution;
  /// Cleared maps from sealed slices, buffers intact. A virgin ring slot
  /// adopts one instead of growing from scratch: map capacity ramps once
  /// per shard (to the open window's depth), not once per slice — the
  /// fresh-allocation page faults of per-slice ramps dominated admission
  /// cost on the live path.
  std::vector<ContributionMap> contribution_pool;
  /// Live keys across the ring — the contribution_cap denominator.
  int64_t contribution_keys = 0;

  /// Reading WAL, attached when options.wal_dir is set (and not replaying).
  std::optional<Wal> wal;

  int64_t next_slice = 0;   ///< first unpublished logical timestep
  int64_t high_water = -1;  ///< max logical timestep that received a reading
  uint64_t accepted = 0;
  uint64_t clamped = 0;
  uint64_t rejected = 0;
  int64_t readings_since_publish = 0;
  int64_t last_publish_ns = 0;
  uint64_t epoch = 0;      ///< registry epoch currently published (0 = none)
  uint64_t publish_seq = 0;
};

IngestPipeline::IngestPipeline(serve::SnapshotRegistry* registry, Clock* clock,
                               IngestOptions options)
    : registry_(registry), clock_(clock), options_(std::move(options)) {
  batches_ctr_ = metrics_.GetCounter("stpt_ingest_batches_total",
                                     "Reading batches applied");
  readings_ctr_ = metrics_.GetCounter("stpt_ingest_readings_total",
                                      "Meter readings accepted");
  clamped_ctr_ = metrics_.GetCounter(
      "stpt_ingest_clamped_total",
      "Readings whose contribution was clamped to the sensitivity bound");
  rejected_ctr_ = metrics_.GetCounter(
      "stpt_ingest_rejected_total",
      "Readings rejected (out of bounds, late, or shard limit)");
  epochs_ctr_ = metrics_.GetCounter("stpt_ingest_epochs_total",
                                    "Epochs published into the registry");
  flush_timesteps_ctr_ = metrics_.GetCounter(
      "stpt_ingest_flush_timesteps_total",
      "Timesteps rescanned by incremental prefix flushes");
  publish_errors_ctr_ = metrics_.GetCounter("stpt_ingest_publish_errors_total",
                                            "Failed publication attempts");
  wal_errors_ctr_ = metrics_.GetCounter(
      "stpt_ingest_wal_errors_total",
      "WAL append failures (ingest continues, recovery coverage degrades)");
  shards_gauge_ =
      metrics_.GetGauge("stpt_ingest_shards", "Shards with ingest state");
  republish_latency_ = metrics_.GetHistogram(
      "stpt_ingest_republish_latency_ns",
      "End-to-end publication latency: DP release to registry swap",
      obs::LatencyBucketsNs());
}

IngestPipeline::~IngestPipeline() = default;

StatusOr<std::unique_ptr<IngestPipeline>> IngestPipeline::Create(
    serve::SnapshotRegistry* registry, Clock* clock, IngestOptions options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("ingest: registry must not be null");
  }
  if (clock == nullptr) {
    return Status::InvalidArgument("ingest: clock must not be null");
  }
  if (options.dims.cx <= 0 || options.dims.cy <= 0 || options.dims.ct <= 0) {
    return Status::InvalidArgument("ingest: dims must be positive");
  }
  if (options.epoch_readings < 0 || options.epoch_ticks_ns < 0) {
    return Status::InvalidArgument("ingest: epoch thresholds must be >= 0");
  }
  if (options.max_shards < 1) {
    return Status::InvalidArgument("ingest: max_shards must be >= 1");
  }
  if (options.accountant_epsilon < 0.0) {
    return Status::InvalidArgument("ingest: accountant_epsilon must be >= 0");
  }
  if (options.backfill_grace < 0 || options.backfill_grace >= options.dims.ct) {
    return Status::InvalidArgument(
        "ingest: backfill_grace must be in [0, ct)");
  }
  if (options.contribution_cap < 0) {
    return Status::InvalidArgument("ingest: contribution_cap must be >= 0");
  }
  // Publisher knobs are validated once here by a dry run, so FindShard can
  // treat per-shard construction as infallible-by-options.
  core::StreamingPublisher::Options pub;
  pub.window = options.window;
  pub.epsilon = options.epsilon;
  pub.dissimilarity_fraction = options.dissimilarity_fraction;
  auto probe = core::StreamingPublisher::Create(
      options.dims.cx * options.dims.cy, options.unit_sensitivity, pub);
  if (!probe.ok()) return probe.status();
  return std::unique_ptr<IngestPipeline>(
      new IngestPipeline(registry, clock, std::move(options)));
}

IngestPipeline::Shard* IngestPipeline::FindShard(const std::string& tenant,
                                                 const std::string& tile,
                                                 bool create) {
  std::lock_guard<std::mutex> lock(shards_mu_);
  for (const auto& shard : shards_) {
    if (shard->tenant == tenant && shard->tile == tile) return shard.get();
  }
  if (!create) return nullptr;
  if (shards_.size() >= static_cast<size_t>(options_.max_shards)) return nullptr;
  if (tenant.size() > serve::kMaxShardNameBytes ||
      tile.size() > serve::kMaxShardNameBytes) {
    return nullptr;
  }

  auto shard = std::make_unique<Shard>();
  shard->tenant = tenant;
  shard->tile = tile;
  shard->raw = *grid::ConsumptionMatrix::Create(options_.dims);
  shard->contribution.resize(static_cast<size_t>(options_.dims.ct));
  shard->sanitized = *IncrementalPrefix::Create(options_.dims);

  const double accountant_epsilon =
      options_.accountant_epsilon > 0.0
          ? options_.accountant_epsilon
          : options_.epsilon * (static_cast<double>(options_.dims.ct) /
                                    options_.window +
                                2.0);
  shard->accountant = *dp::BudgetAccountant::Create(accountant_epsilon);
  if (!options_.ledger_path.empty()) {
    const std::string path =
        ShardLedgerPath(options_.ledger_path, tenant, tile);
    if (!shard->ledger.OpenFile(path).ok()) return nullptr;
  }
  shard->accountant->AttachLedger(&shard->ledger);

  core::StreamingPublisher::Options pub;
  pub.window = options_.window;
  pub.epsilon = options_.epsilon;
  pub.dissimilarity_fraction = options_.dissimilarity_fraction;
  shard->publisher = *core::StreamingPublisher::Create(
      options_.dims.cx * options_.dims.cy, options_.unit_sensitivity, pub);
  shard->publisher->AttachAccountant(&*shard->accountant, "stream");

  shard->rng = Rng(options_.seed).Fork(ShardStream(tenant, tile));
  shard->last_publish_ns = clock_->NowNanos();

  // WAL genesis: open append-mode and stamp the header carrying the exact
  // wire names (SafeName is lossy; recovery needs the originals to rebuild
  // the same noise stream). Suppressed during replay — Recover re-attaches
  // the log itself, without a second header.
  if (!options_.wal_dir.empty() && !recovering_) {
    auto wal = Wal::Open(ShardWalPath(options_.wal_dir, tenant, tile));
    if (wal.ok() && wal->AppendHeader(tenant, tile).ok()) {
      shard->wal.emplace(std::move(*wal));
    } else {
      wal_errors_ctr_->Increment();
    }
  }

  shards_.push_back(std::move(shard));
  shards_gauge_->Set(static_cast<double>(shards_.size()));
  return shards_.back().get();
}

serve::ReadingAck IngestPipeline::Apply(const serve::ReadingBatch& batch) {
  batches_ctr_->Increment();
  // A sampled batch gets an ingest/apply span chained under the caller's
  // active span; it is installed as the active context so the publish it
  // triggers (and the registry swap under that) link to the same trace.
  const obs::TraceContext* req_ctx = obs::CurrentTraceContext();
  const bool traced = req_ctx != nullptr && req_ctx->sampled;
  const uint64_t apply_start_ns = obs::NowNanos();
  obs::TraceContext apply_ctx;
  uint64_t apply_parent = 0;
  std::optional<obs::ScopedTraceContext> scoped;
  if (traced) {
    apply_parent = req_ctx->span_id;
    apply_ctx = ChildContext(*req_ctx, kStageApply);
    scoped.emplace(apply_ctx);
  }
  const serve::ShardKey key = serve::ResolveShardKey(batch.tenant, batch.tile);
  serve::ReadingAck ack;
  const bool flush = batch.readings.empty();
  Shard* shard = FindShard(key.tenant, key.tile, /*create=*/!flush);
  if (shard == nullptr) {
    ack.rejected = batch.readings.size();
    rejected_ctr_->Increment(ack.rejected);
    return ack;
  }

  std::lock_guard<std::mutex> lock(shard->mu);
  // Log first, admit second: the WAL records the batch as received, so
  // replay re-runs the same admission decisions instead of trusting them.
  // An append failure degrades recovery coverage but never drops readings.
  if (!batch.readings.empty() && shard->wal.has_value()) {
    if (!shard->wal->AppendBatch(batch.readings).ok()) {
      wal_errors_ctr_->Increment();
    }
  }
  AdmitLocked(*shard, batch.readings, ack);

  // Epoch boundary: count- or tick-based, checked at batch granularity so
  // a replayed batch sequence republishes at identical points; an empty
  // batch is an explicit flush.
  bool due = flush;
  if (options_.epoch_readings > 0 &&
      shard->readings_since_publish >= options_.epoch_readings) {
    due = true;
  }
  if (options_.epoch_ticks_ns > 0 &&
      clock_->NowNanos() - shard->last_publish_ns >= options_.epoch_ticks_ns) {
    due = true;
  }
  // A count/tick epoch releases only *completed* timesteps, minus the
  // backfill grace — the newest slice plus `backfill_grace` behind it stay
  // open for late readings (each slice's w-event release is immutable once
  // spent, so sealing early would reject its tail). A flush is the explicit
  // "no more data is coming" signal and publishes through the newest slice.
  const int64_t through =
      flush ? shard->high_water
            : shard->high_water - 1 - options_.backfill_grace;
  if (due && through >= shard->next_slice) {
    if (!PublishLocked(*shard, through).ok()) publish_errors_ctr_->Increment();
  }
  ack.epoch = shard->epoch;
  if (traced) {
    RecordIngestSpan(apply_ctx, apply_parent, apply_start_ns, "ingest/apply",
                     {{"tenant", key.tenant},
                      {"tile", key.tile},
                      {"accepted", std::to_string(ack.accepted)},
                      {"epoch", std::to_string(ack.epoch)}});
  }
  return ack;
}

void IngestPipeline::AdmitLocked(
    Shard& shard, const std::vector<serve::MeterReading>& readings,
    serve::ReadingAck& ack) {
  const grid::Dims& dims = options_.dims;
  const double unit = options_.unit_sensitivity;
  uint64_t accepted = 0;
  uint64_t clamped = 0;
  uint64_t rejected = 0;
  // Ring slot of logical timestep t is t % ct, but t is confined to
  // [next_slice, next_slice + ct) here, so one add and a conditional
  // subtract replace the hardware divide — several per reading, and the
  // divider is the slowest ALU op on the whole admission path.
  const int64_t ct = dims.ct;
  const int64_t ring_base = shard.next_slice % ct;
  const auto ring_slot = [&](int64_t t) {
    const int64_t slot = ring_base + (t - shard.next_slice);
    return slot < ct ? slot : slot - ct;
  };
  constexpr size_t kPrefetchAhead = 16;
  for (size_t ri = 0; ri < readings.size(); ++ri) {
    const serve::MeterReading& r = readings[ri];
    // The contribution probe and the raw-cell bump are dependent loads into
    // tables the batch's own wire traffic usually evicted; issue reading
    // ri+16's lines now so they are in flight while this one is processed.
    if (ri + kPrefetchAhead < readings.size()) {
      const serve::MeterReading& q = readings[ri + kPrefetchAhead];
      const int64_t qt = q.t;
      if (q.x >= 0 && q.x < dims.cx && q.y >= 0 && q.y < dims.cy &&
          qt >= shard.next_slice && qt < shard.next_slice + ct) {
        const int64_t qslot = ring_slot(qt);
        shard.contribution[static_cast<size_t>(qslot)].Prefetch(
            q.meter_id, q.x * dims.cy + q.y);
        __builtin_prefetch(&shard.raw.data()[static_cast<size_t>(
            (q.x * dims.cy + q.y) * ct + qslot)]);
      }
    }
    const int64_t t = r.t;
    // Ring admission: exactly the open window [next_slice, next_slice + ct)
    // is writable. Earlier slices are sealed (their DP release is immutable
    // once spent) and later ones have no ring slot yet. next_slice >= 0, so
    // negative t is rejected here too.
    const bool in_bounds =
        r.x >= 0 && r.x < dims.cx && r.y >= 0 && r.y < dims.cy;
    if (!in_bounds || t < shard.next_slice || t >= shard.next_slice + ct ||
        !std::isfinite(r.kwh)) {
      ++rejected;
      continue;
    }
    // Sensitivity clamp: this meter's *total* admitted contribution to the
    // cell stays in [-unit, +unit], so replaying one reading forever — or
    // duplicating it within a batch — moves the pre-noise cell by at most
    // the sensitivity the noise is calibrated for.
    const int64_t tslot = ring_slot(t);
    ContributionMap& cmap = shard.contribution[static_cast<size_t>(tslot)];
    if (cmap.capacity() == 0 && !shard.contribution_pool.empty()) {
      cmap = std::move(shard.contribution_pool.back());
      shard.contribution_pool.pop_back();
    }
    const bool may_insert =
        options_.contribution_cap <= 0 ||
        shard.contribution_keys < options_.contribution_cap;
    const size_t keys_before = cmap.size();
    double* slot =
        cmap.FindOrInsert(r.meter_id, r.x * dims.cy + r.y, may_insert);
    if (slot == nullptr) {
      // Admitting an untracked contribution could breach the contract.
      ++rejected;
      continue;
    }
    shard.contribution_keys +=
        static_cast<int64_t>(cmap.size() != keys_before);
    const double prev = *slot;
    const double total = std::clamp(prev + r.kwh, -unit, unit);
    const double delta = total - prev;
    *slot = total;
    // Unconditional: a zero delta (meter already saturated) is rare, and
    // the cell line is already here — a branch would just mispredict.
    shard.raw.add(r.x, r.y, static_cast<int>(tslot), delta);
    shard.high_water = std::max(shard.high_water, t);
    const bool in_full = delta == r.kwh;
    accepted += static_cast<uint64_t>(in_full);
    clamped += static_cast<uint64_t>(!in_full);
  }
  shard.accepted += accepted;
  shard.clamped += clamped;
  shard.rejected += rejected;
  // Clamped readings still count toward the epoch boundary: they carry
  // fresh (if truncated) signal, and boundary placement must be a pure
  // function of the reading sequence for replay to be deterministic.
  shard.readings_since_publish += static_cast<int64_t>(accepted + clamped);
  if (accepted > 0) readings_ctr_->Increment(accepted);
  if (clamped > 0) clamped_ctr_->Increment(clamped);
  if (rejected > 0) rejected_ctr_->Increment(rejected);
  ack.accepted += accepted;
  ack.clamped += clamped;
  ack.rejected += rejected;
}

Status IngestPipeline::PublishLocked(Shard& shard, int64_t through) {
  obs::Span span("ingest/publish", republish_latency_);
  const obs::TraceContext* parent_ctx = obs::CurrentTraceContext();
  const bool traced = parent_ctx != nullptr && parent_ctx->sampled;
  const uint64_t publish_start_ns = obs::NowNanos();
  obs::TraceContext publish_ctx;
  uint64_t publish_parent = 0;
  std::optional<obs::ScopedTraceContext> scoped;
  if (traced) {
    publish_parent = parent_ctx->span_id;
    publish_ctx = ChildContext(*parent_ctx, kStagePublish);
    scoped.emplace(publish_ctx);  // the registry's swap span chains here
  }
  const grid::Dims& dims = options_.dims;
  const int cells = dims.cx * dims.cy;

  // w-event release slice by slice, in time order. The publisher draws its
  // noise serially from the shard's forked stream under the shard lock, so
  // the release depends only on the reading sequence — never on thread
  // count or concurrent tenants.
  std::vector<double> slice(static_cast<size_t>(cells));
  for (int64_t t = shard.next_slice; t <= through; ++t) {
    const int slot = static_cast<int>(t % dims.ct);
    size_t i = 0;
    for (int x = 0; x < dims.cx; ++x) {
      for (int y = 0; y < dims.cy; ++y) slice[i++] = shard.raw.at(x, y, slot);
    }
    auto released = shard.publisher->ProcessSlice(slice, shard.rng);
    if (!released.ok()) return released.status();
    STPT_RETURN_IF_ERROR(shard.sanitized->SetSliceLogical(t, *released));
    // Sealing logical slice t recycles its ring slot for t + ct.
    for (int x = 0; x < dims.cx; ++x) {
      for (int y = 0; y < dims.cy; ++y) shard.raw.set(x, y, slot, 0.0);
    }
    // Sealed slices can no longer admit, so their clamp keys are dead
    // weight; clearing per seal is what bounds the ring to the open window.
    ContributionMap& cmap = shard.contribution[static_cast<size_t>(slot)];
    shard.contribution_keys -= static_cast<int64_t>(cmap.size());
    cmap.Clear();
    if (cmap.capacity() != 0) {
      shard.contribution_pool.push_back(std::move(cmap));
      cmap = ContributionMap();
    }
  }
  shard.next_slice = through + 1;

  // Incremental prefix maintenance on the exec pool: only the republished
  // t-suffix is rescanned (bit-identical to a from-scratch build).
  flush_timesteps_ctr_->Increment(
      static_cast<uint64_t>(shard.sanitized->Flush()));

  serve::Snapshot snapshot;
  snapshot.meta.algorithm = "stream-w-event";
  snapshot.meta.eps_total = shard.accountant->ConsumedEpsilon();
  snapshot.meta.eps_sanitize = snapshot.meta.eps_total;
  snapshot.sanitized = shard.sanitized->matrix();
  snapshot.prefix = shard.sanitized->prefix();
  snapshot.meta.norm_min = snapshot.sanitized.MinValue();
  snapshot.meta.norm_max = snapshot.sanitized.MaxValue();

  ++shard.publish_seq;
  if (!options_.snapshot_dir.empty()) {
    STPT_RETURN_IF_ERROR(serve::WriteSnapshot(
        snapshot, ShardSnapshotPath(options_.snapshot_dir, shard.tenant,
                                    shard.tile, shard.publish_seq)));
  }

  // Zero-downtime flip: Load on the first publication of a shard the
  // registry has never seen, Swap (RCU hot swap) afterwards — including
  // over a generation someone else loaded (e.g. the server's startup
  // snapshot for the default shard).
  const serve::ShardKey key{shard.tenant, shard.tile};
  StatusOr<uint64_t> epoch = registry_->Route(shard.tenant, shard.tile).ok()
                                 ? registry_->Swap(key, std::move(snapshot))
                                 : registry_->Load(key, std::move(snapshot));
  if (!epoch.ok()) return epoch.status();
  shard.epoch = *epoch;
  epochs_ctr_->Increment();
  shard.readings_since_publish = 0;
  shard.last_publish_ns = clock_->NowNanos();
  // Durable commit point: the fsynced marker tells recovery this epoch's
  // budget charges, snapshot and ledger lines all reached their sinks. A
  // crash after the charge but before the marker leaves a torn publish,
  // which replay repeats deterministically.
  if (shard.wal.has_value() &&
      !shard.wal->AppendEpochMark(through, shard.publish_seq).ok()) {
    wal_errors_ctr_->Increment();
  }
  if (traced) {
    RecordIngestSpan(publish_ctx, publish_parent, publish_start_ns,
                     "ingest/publish",
                     {{"tenant", shard.tenant},
                      {"tile", shard.tile},
                      {"epoch", std::to_string(shard.epoch)}});
  }
  return Status::OK();
}

int IngestPipeline::PublishAll() {
  std::vector<Shard*> shards;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards.reserve(shards_.size());
    for (const auto& shard : shards_) shards.push_back(shard.get());
  }
  int published = 0;
  for (Shard* shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Same seal rule as a count/tick epoch: completed slices minus grace.
    const int64_t through =
        shard->high_water - 1 - options_.backfill_grace;
    if (through < shard->next_slice) continue;
    if (options_.epoch_ticks_ns > 0 &&
        clock_->NowNanos() - shard->last_publish_ns <
            options_.epoch_ticks_ns) {
      continue;  // deadline not yet due; the next timer fire will catch it
    }
    if (PublishLocked(*shard, through).ok()) {
      ++published;
    } else {
      publish_errors_ctr_->Increment();
    }
  }
  return published;
}

int IngestPipeline::FlushAll() {
  std::vector<Shard*> shards;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards.reserve(shards_.size());
    for (const auto& shard : shards_) shards.push_back(shard.get());
  }
  int published = 0;
  for (Shard* shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->high_water < shard->next_slice) continue;
    if (PublishLocked(*shard, shard->high_water).ok()) {
      ++published;
    } else {
      publish_errors_ctr_->Increment();
    }
  }
  return published;
}

Status IngestPipeline::Recover(const std::string& snapshot_dir,
                               const std::string& ledger_path) {
  if (options_.wal_dir.empty()) return Status::OK();
  recovering_ = true;
  Status status = Status::OK();
  for (const std::string& wal_path : Wal::ListLogs(options_.wal_dir)) {
    status = RecoverShardLog(wal_path, snapshot_dir, ledger_path);
    if (!status.ok()) break;
  }
  recovering_ = false;
  return status;
}

Status IngestPipeline::RecoverShardLog(const std::string& wal_path,
                                       const std::string& snapshot_dir,
                                       const std::string& ledger_path) {
  auto records = Wal::ReadAll(wal_path);
  if (!records.ok()) return records.status();
  if (records->empty()) return Status::OK();
  const Wal::Record& header = records->front();
  if (header.type != Wal::RecordType::kHeader) {
    return Status::InvalidArgument("ingest recover: '" + wal_path +
                                   "' does not start with a header record");
  }
  const std::string tenant = header.tenant;
  const std::string tile = header.tile;

  // Capture what the dead process left behind BEFORE the new shard opens
  // (and truncates) its ledger sink: the old ledger lines for the
  // prefix-match check, and the last marked container for byte identity.
  std::vector<dp::AuditRecord> old_ledger;
  bool have_old_ledger = false;
  if (!ledger_path.empty()) {
    if (auto bytes =
            ReadFileBytes(ShardLedgerPath(ledger_path, tenant, tile))) {
      old_ledger = dp::AuditLedger::ParseJsonl(*bytes);
      have_old_ledger = true;
    }
  }
  uint64_t last_marked_seq = 0;
  for (const Wal::Record& r : *records) {
    if (r.type == Wal::RecordType::kEpochMark) last_marked_seq = r.publish_seq;
  }
  std::optional<std::string> old_snapshot;
  if (!snapshot_dir.empty() && last_marked_seq > 0) {
    old_snapshot = ReadFileBytes(
        ShardSnapshotPath(snapshot_dir, tenant, tile, last_marked_seq));
  }

  Shard* shard = FindShard(tenant, tile, /*create=*/true);
  if (shard == nullptr) {
    return Status::ResourceExhausted("ingest recover: cannot create shard '" +
                                     tenant + "/" + tile + "'");
  }

  std::lock_guard<std::mutex> lock(shard->mu);
  // Replay from genesis through the normal admission/publication path. All
  // of it — clamp decisions, noise draws, budget charges — is a pure
  // function of the logged sequence, so the rebuilt shard lands bitwise on
  // the pre-crash state at its last marker. Readings logged after the last
  // marker re-enter the open window, exactly as if the crash never
  // happened.
  for (size_t i = 1; i < records->size(); ++i) {
    const Wal::Record& r = (*records)[i];
    if (r.type == Wal::RecordType::kBatch) {
      serve::ReadingAck ack;
      AdmitLocked(*shard, r.readings, ack);
    } else if (r.type == Wal::RecordType::kEpochMark) {
      if (r.through < shard->next_slice) {
        return Status::Internal("ingest recover: non-monotone epoch mark in '" +
                                wal_path + "'");
      }
      STPT_RETURN_IF_ERROR(PublishLocked(*shard, r.through));
      if (shard->publish_seq != r.publish_seq) {
        return Status::Internal(
            "ingest recover: publish_seq diverged replaying '" + wal_path +
            "' (replayed " + std::to_string(shard->publish_seq) +
            ", logged " + std::to_string(r.publish_seq) + ")");
      }
    }
  }

  // Bit-identity verification against the dead process's artifacts. The
  // old ledger may run LONGER than the replay (a torn publish charges the
  // accountant before reaching its marker); it must never disagree on the
  // shared prefix.
  if (have_old_ledger) {
    const std::vector<dp::AuditRecord> replayed = shard->ledger.records();
    if (replayed.size() > old_ledger.size()) {
      return Status::Internal(
          "ingest recover: replayed ledger for '" + tenant + "/" + tile +
          "' outran the on-disk ledger (" + std::to_string(replayed.size()) +
          " > " + std::to_string(old_ledger.size()) + " records)");
    }
    for (size_t i = 0; i < replayed.size(); ++i) {
      const dp::AuditRecord& a = replayed[i];
      const dp::AuditRecord& b = old_ledger[i];
      if (a.seq != b.seq || a.stage != b.stage || a.mechanism != b.mechanism ||
          a.epsilon != b.epsilon || a.sensitivity != b.sensitivity ||
          a.composition != b.composition ||
          a.consumed_after != b.consumed_after) {
        return Status::Internal(
            "ingest recover: ledger record " + std::to_string(i) +
            " diverged from the on-disk ledger for '" + tenant + "/" + tile +
            "'");
      }
    }
  }
  if (old_snapshot.has_value()) {
    const auto rewritten = ReadFileBytes(
        ShardSnapshotPath(snapshot_dir, tenant, tile, last_marked_seq));
    if (!rewritten.has_value() || *rewritten != *old_snapshot) {
      return Status::Internal(
          "ingest recover: rewritten container diverged from the pre-crash "
          "bytes for '" +
          tenant + "/" + tile + "'");
    }
  }

  // Resume logging in place: append-mode, no second header — the genesis
  // header is still the first record, so repeated kill/recover cycles keep
  // replaying one coherent log.
  auto wal = Wal::Open(wal_path);
  if (wal.ok()) {
    shard->wal.emplace(std::move(*wal));
  } else {
    wal_errors_ctr_->Increment();
  }
  return Status::OK();
}

StatusOr<IngestPipeline::ShardAudit> IngestPipeline::Audit(
    const std::string& tenant, const std::string& tile) const {
  Shard* shard =
      const_cast<IngestPipeline*>(this)->FindShard(tenant, tile, false);
  if (shard == nullptr) {
    return Status::NotFound("ingest: no such shard: " + tenant + "/" + tile);
  }
  std::lock_guard<std::mutex> lock(shard->mu);
  ShardAudit audit;
  audit.epoch = shard->epoch;
  audit.consumed_epsilon = shard->accountant->ConsumedEpsilon();
  audit.ledger_composed_epsilon = shard->ledger.ComposedEpsilon();
  audit.ledger_records = shard->ledger.size();
  audit.republish_count = shard->publisher->republish_count();
  audit.accepted = shard->accepted;
  audit.clamped = shard->clamped;
  audit.rejected = shard->rejected;
  audit.contribution_keys = static_cast<size_t>(shard->contribution_keys);
  return audit;
}

std::string IngestPipeline::StatsJson() const {
  std::vector<Shard*> shards;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards.reserve(shards_.size());
    for (const auto& shard : shards_) shards.push_back(shard.get());
  }
  std::ostringstream os;
  os << "{\"shards\": [";
  bool first = true;
  for (Shard* shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (!first) os << ", ";
    first = false;
    os << "{\"tenant\": \"" << obs::JsonEscape(shard->tenant)
       << "\", \"tile\": \"" << obs::JsonEscape(shard->tile)
       << "\", \"epoch\": " << shard->epoch
       << ", \"accepted\": " << shard->accepted
       << ", \"clamped\": " << shard->clamped
       << ", \"rejected\": " << shard->rejected
       << ", \"contribution_keys\": " << shard->contribution_keys
       << ", \"next_slice\": " << shard->next_slice
       << ", \"pending_timesteps\": "
       << (shard->high_water >= shard->next_slice
               ? shard->high_water - shard->next_slice + 1
               : 0)
       << ", \"republish_count\": " << shard->publisher->republish_count()
       << ", \"consumed_epsilon\": "
       << JsonDouble(shard->accountant->ConsumedEpsilon())
       << ", \"ledger_composed_epsilon\": "
       << JsonDouble(shard->ledger.ComposedEpsilon())
       << ", \"ledger_records\": " << shard->ledger.size() << "}";
  }
  os << "], \"batches\": " << batches_ctr_->Value()
     << ", \"epochs\": " << epochs_ctr_->Value() << "}";
  return os.str();
}

std::string IngestPipeline::MetricsText() const {
  return metrics_.ToPrometheusText();
}

}  // namespace stpt::ingest
