#ifndef STPT_INGEST_PIPELINE_H_
#define STPT_INGEST_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "dp/audit_ledger.h"
#include "dp/budget_accountant.h"
#include "grid/consumption_matrix.h"
#include "ingest/clock.h"
#include "ingest/incremental_prefix.h"
#include "ingest/wal.h"
#include "core/streaming.h"
#include "obs/metrics.h"
#include "serve/event_loop.h"
#include "serve/registry.h"

namespace stpt::ingest {

/// Validated by IngestPipeline::Create.
struct IngestOptions {
  /// Accumulator dimensions of every shard this pipeline creates.
  grid::Dims dims{8, 8, 64};

  /// Publish after this many accepted readings per shard (0 = no
  /// count-based boundary). Checked at batch granularity so a fixed batch
  /// sequence always triggers at the same points. Count/tick epochs
  /// release only completed timesteps — the newest slice stays open until
  /// a later reading moves past it or a flush arrives.
  int64_t epoch_readings = 4096;

  /// Publish when the injected clock advanced this much since the shard's
  /// last publication (0 = no tick-based boundary). Only fires when the
  /// shard has unpublished data.
  int64_t epoch_ticks_ns = 0;

  /// w-event publisher knobs (see core::StreamingPublisher::Options).
  /// unit_sensitivity is also ENFORCED at admission: per (meter, cell,
  /// timestep), admitted contribution is clamped into
  /// [-unit_sensitivity, +unit_sensitivity], so the sensitivity the noise
  /// is calibrated for is the sensitivity the accumulator actually has.
  int window = 10;
  double epsilon = 1.0;
  double dissimilarity_fraction = 0.2;
  double unit_sensitivity = 1.0;

  /// Backfill grace: count/tick epochs keep this many additional completed
  /// slices open behind the newest (they seal at
  /// high_water - 1 - backfill_grace), so late-but-in-grace readings still
  /// clamp-admit before their slice's release is spent. A flush always
  /// seals through high_water. 0 = only the newest slice stays open.
  int backfill_grace = 0;

  /// Cap on tracked (meter, cell, timestep) contribution keys per shard —
  /// the clamp map's memory bound. At the cap, readings that would
  /// introduce a new key are rejected: admitting untracked contributions
  /// could breach the sensitivity contract. 0 = unlimited.
  int64_t contribution_cap = 1 << 20;

  /// Directory for per-shard reading WALs
  /// ("<safe tenant>.<safe tile>.wal"); enables Recover(). Empty = no WAL,
  /// no crash recovery.
  std::string wal_dir;

  /// Hard budget for each shard's BudgetAccountant. 0 auto-sizes to
  /// epsilon * (ct / window + 2), which upper-bounds the worst-case w-event
  /// spend over the full horizon (per window the publisher spends at most
  /// epsilon, and ct slices span at most ct/window + 1 windows).
  double accountant_epsilon = 0.0;

  /// Seed for per-shard noise streams: shard (tenant, tile) draws from
  /// Rng(seed).Fork(fnv1a(tenant, tile)), so shards are independent and a
  /// replayed reading sequence reproduces every snapshot bit for bit.
  uint64_t seed = 0x5EEDu;

  /// Directory for the .stpt container written on every publication
  /// (empty = keep epochs in memory only, still hot-swapped into the
  /// registry).
  std::string snapshot_dir;

  /// JSONL audit-ledger sink. The default shard appends to this path,
  /// shard (tenant, tile) to "<path>.<tenant>.<tile>". Empty = in-memory
  /// ledgers only.
  std::string ledger_path;

  /// Hard cap on shards this pipeline will create; batches addressed to
  /// new shards beyond it are rejected wholesale.
  int max_shards = 64;
};

/// Live ingestion: reading batches in, DP-republished epochs out.
///
/// One pipeline owns per-shard state keyed like the SnapshotRegistry:
/// a raw ConsumptionMatrix accumulator, an IncrementalPrefix over the
/// *sanitized* matrix, a w-event StreamingPublisher charged through a
/// BudgetAccountant + AuditLedger, and a forked noise stream. Apply runs
/// on exec pool workers (dispatched by the event loop's kReadingBatch
/// handler) or directly from tests; shards are independently locked, so
/// distinct tenants ingest concurrently while one shard's epoch pipeline
/// — accumulate, publish slices, incremental prefix flush, snapshot
/// encode, registry hot swap — stays strictly ordered.
///
/// Epoch boundaries come from accepted-reading counts and/or the injected
/// Clock, never ambient time. An empty batch forces a boundary (flush) for
/// its shard, which is how feeders drain a trailing partial epoch.
///
/// The accumulator is a RING over dims.ct logical timesteps: a reading at
/// logical t lands in physical slot t % ct, slots are recycled (zeroed)
/// when their slice seals, and admission accepts exactly the open window
/// [next_slice, next_slice + ct). Admission also enforces the declared
/// sensitivity: per (meter, cell, timestep) contributions are clamped to
/// ±unit_sensitivity (see IngestOptions), so a hostile feeder replaying
/// one meter's reading forever moves no published cell by more than
/// unit_sensitivity of pre-noise signal. With a wal_dir configured, every
/// batch is write-ahead-logged and Recover() rebuilds crashed shards
/// bit-for-bit by deterministic replay.
class IngestPipeline final : public serve::IngestSink {
 public:
  /// Validates options. `registry` and `clock` are not owned and must
  /// outlive the pipeline.
  static StatusOr<std::unique_ptr<IngestPipeline>> Create(
      serve::SnapshotRegistry* registry, Clock* clock, IngestOptions options);

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;
  ~IngestPipeline() override;

  /// serve::IngestSink: applies one batch, possibly publishing an epoch.
  serve::ReadingAck Apply(const serve::ReadingBatch& batch) override;

  /// serve::IngestSink: {"shards": [...], "batches": N} (see .cc).
  std::string StatsJson() const override;

  /// serve::IngestSink: the stpt_ingest_* families in Prometheus text.
  std::string MetricsText() const override;

  /// serve::IngestSink: the timer-driven epoch sweep. Publishes the
  /// completed slices (through high_water - 1 - backfill_grace) of every
  /// shard whose tick deadline has passed — or of every shard with
  /// completed unpublished slices when epoch_ticks_ns is 0, making the
  /// caller's period the deadline. This is what lets an idle shard meet
  /// its epoch deadline without waiting for another batch to arrive.
  /// Returns the number of shards that published.
  int PublishAll() override;

  /// Crash recovery: rebuilds every shard logged under options.wal_dir by
  /// replaying its WAL from genesis through the normal admission path and
  /// republishing at each epoch marker. Because admission, noise draws and
  /// budget charges are all deterministic functions of the reading
  /// sequence, the rebuilt shard — accumulator, publisher window, Rng
  /// position, accountant and ledger — is bitwise identical to the
  /// pre-crash shard at its last marker. Verifies that bit-identity
  /// against what the dead process left behind: the replayed ledger must
  /// be a prefix-match of the on-disk JSONL at `ledger_path` (a torn
  /// publish may have charged without reaching its marker, so the old
  /// ledger may run longer), and the re-written last container must equal
  /// the bytes previously at `snapshot_dir` when both exist. A last
  /// container of another format version fails FailedPrecondition before
  /// replay, with no file touched. Call after Create and before serving;
  /// no-op when wal_dir is empty.
  Status Recover(const std::string& snapshot_dir,
                 const std::string& ledger_path);

  /// This pipeline's metric registry (stpt_ingest_* families).
  obs::Registry& metrics() const { return metrics_; }

  /// Read-only view of one shard's privacy spend, for tests and audits:
  /// the accountant's composed epsilon and the ledger replay (bitwise
  /// equal by construction). NotFound for unknown shards.
  struct ShardAudit {
    uint64_t epoch = 0;
    double consumed_epsilon = 0.0;
    double ledger_composed_epsilon = 0.0;
    size_t ledger_records = 0;
    int64_t republish_count = 0;
    uint64_t accepted = 0;
    uint64_t clamped = 0;
    uint64_t rejected = 0;
    size_t contribution_keys = 0;
  };
  StatusOr<ShardAudit> Audit(const std::string& tenant,
                             const std::string& tile) const;

 private:
  struct Shard;

  IngestPipeline(serve::SnapshotRegistry* registry, Clock* clock,
                 IngestOptions options);

  /// Finds or creates the shard for (tenant, tile). Returns null (and
  /// counts the rejection) at max_shards; never creates for `create` =
  /// false.
  Shard* FindShard(const std::string& tenant, const std::string& tile,
                   bool create);

  /// The shared admission path: bounds/seal/ring checks, per-meter
  /// contribution clamping, raw-ring accumulation, and shard + metric
  /// accounting for one reading sequence. Used by Apply and by WAL replay,
  /// so a replayed sequence makes byte-identical decisions. Caller holds
  /// the shard mutex.
  void AdmitLocked(Shard& shard,
                   const std::vector<serve::MeterReading>& readings,
                   serve::ReadingAck& ack);

  /// Publishes logical slices [next_slice, through] of one shard: w-event
  /// release per slice, raw ring-slot recycle, clamp-map eviction,
  /// incremental prefix flush, snapshot encode, registry load-or-swap, and
  /// (when a WAL is attached) the fsynced epoch marker. Count/tick epochs
  /// pass high_water - 1 - backfill_grace (in-grace slices stay open for
  /// more readings); a flush passes high_water. Caller holds the shard
  /// mutex and guarantees through >= next_slice.
  Status PublishLocked(Shard& shard, int64_t through);

  /// Replays one WAL file into a fresh shard and verifies bit-identity
  /// against the dead process's ledger and last container.
  Status RecoverShardLog(const std::string& wal_path,
                         const std::string& snapshot_dir,
                         const std::string& ledger_path);

  serve::SnapshotRegistry* registry_;
  Clock* clock_;
  IngestOptions options_;

  /// True while Recover replays WALs: suppresses WAL creation in FindShard
  /// so replayed batches are not re-logged. Only touched single-threaded,
  /// between Create and serving.
  bool recovering_ = false;

  mutable std::mutex shards_mu_;  ///< guards the shard map topology
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable obs::Registry metrics_;
  obs::Counter* batches_ctr_ = nullptr;
  obs::Counter* readings_ctr_ = nullptr;
  obs::Counter* clamped_ctr_ = nullptr;
  obs::Counter* rejected_ctr_ = nullptr;
  obs::Counter* epochs_ctr_ = nullptr;
  obs::Counter* flush_timesteps_ctr_ = nullptr;
  obs::Counter* publish_errors_ctr_ = nullptr;
  obs::Counter* wal_errors_ctr_ = nullptr;
  obs::Gauge* shards_gauge_ = nullptr;
  obs::Histogram* republish_latency_ = nullptr;
};

}  // namespace stpt::ingest

#endif  // STPT_INGEST_PIPELINE_H_
