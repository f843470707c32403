// Tests for stpt::ingest: reading-batch wire codecs, incremental prefix
// maintenance (bit-identity against from-scratch builds), the ingest
// pipeline's epoch/rejection/audit semantics, and end-to-end loopback
// ingestion with zero-downtime republication.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "fuzz/fuzz_util.h"
#include "fuzz/targets.h"
#include "grid/consumption_matrix.h"
#include "gtest/gtest.h"
#include "ingest/clock.h"
#include "ingest/contribution_map.h"
#include "ingest/incremental_prefix.h"
#include "ingest/pipeline.h"
#include "ingest/wal.h"
#include "query/range_query.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "serve/wire.h"

namespace stpt {
namespace {

/// Restores the default worker count when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { exec::SetThreads(0); }
};

// ------------------------------ wire codecs ------------------------------

serve::ReadingBatch MakeBatch() {
  serve::ReadingBatch batch;
  batch.tenant = "acme";
  batch.tile = "7";
  batch.readings = {{11, 0, 1, 2, 2.5}, {12, 3, 2, 1, 0.0}, {13, 1, 1, 0, -4.0}};
  return batch;
}

TEST(ReadingCodecTest, BatchRoundTrip) {
  const serve::ReadingBatch batch = MakeBatch();
  auto decoded = serve::DecodeReadingBatch(serve::EncodeReadingBatch(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, batch);
}

TEST(ReadingCodecTest, EmptyBatchRoundTrip) {
  serve::ReadingBatch flush;  // empty readings = flush, empty names = default
  auto decoded = serve::DecodeReadingBatch(serve::EncodeReadingBatch(flush));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, flush);
}

TEST(ReadingCodecTest, AckRoundTrip) {
  const serve::ReadingAck ack{3, 1, 7, 0, {}};
  auto decoded = serve::DecodeReadingAck(serve::EncodeReadingAck(ack));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, ack);
}

TEST(ReadingCodecTest, AckClampedFieldRoundTrip) {
  // clamped = 0 encodes to the pre-change layout (no optional field)...
  serve::ReadingAck legacy{3, 1, 7, 0, {}};
  EXPECT_EQ(serve::EncodeReadingAck(legacy).size(), 3 * sizeof(uint64_t));
  // ...and a nonzero count rides the optional trailing field, with and
  // without a trace context behind it.
  serve::ReadingAck ack{3, 1, 7, 0, {}};
  ack.clamped = 42;
  auto decoded = serve::DecodeReadingAck(serve::EncodeReadingAck(ack));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, ack);
  ack.trace.trace_hi = 0x1111;
  ack.trace.trace_lo = 0x2222;
  ack.trace.span_id = 0x3333;
  ack.trace.sampled = true;
  decoded = serve::DecodeReadingAck(serve::EncodeReadingAck(ack));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, ack);
}

TEST(ReadingCodecTest, AckPresentZeroClampedRejected) {
  // The canonical encoding omits the field when clamped == 0; a present
  // zero would make two encodings of one ack, so the decoder rejects it.
  const serve::ReadingAck ack{3, 1, 7, 0, {}};
  std::vector<uint8_t> bytes = serve::EncodeReadingAck(ack);
  bytes.push_back(8);  // field length tag
  for (int i = 0; i < 8; ++i) bytes.push_back(0);  // clamped = 0
  EXPECT_FALSE(serve::DecodeReadingAck(bytes).ok());
}

TEST(ReadingCodecTest, AckEveryTruncationRejected) {
  serve::ReadingAck ack{3, 1, 7, 0, {}};
  ack.clamped = 9;
  ack.trace.trace_hi = 1;
  ack.trace.trace_lo = 2;
  ack.trace.span_id = 3;
  ack.trace.sampled = true;
  const std::vector<uint8_t> bytes = serve::EncodeReadingAck(ack);
  ASSERT_EQ(bytes.size(), 24u + 9u + 34u);
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + n);
    // Prefixes that end exactly on an optional-field boundary are
    // themselves canonical acks (24 = no options, 33 = clamped only);
    // every other truncation must be rejected.
    if (n == 24 || n == 33) {
      EXPECT_TRUE(serve::DecodeReadingAck(prefix).ok()) << "prefix " << n;
      continue;
    }
    EXPECT_FALSE(serve::DecodeReadingAck(prefix).ok()) << "prefix " << n;
  }
}

TEST(ReadingCodecTest, CountLieRejected) {
  std::vector<uint8_t> bytes = serve::EncodeReadingBatch(MakeBatch());
  // The count field sits right after the two strings; inflating it makes
  // count * 28 disagree with the body size.
  const size_t count_off = 4 + 4 + 4 + 1;  // len+“acme”, len+“7”, count
  bytes[count_off] = 200;
  EXPECT_FALSE(serve::DecodeReadingBatch(bytes).ok());
}

TEST(ReadingCodecTest, NonFiniteKwhRejected) {
  serve::ReadingBatch batch = MakeBatch();
  batch.readings[1].kwh = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(serve::DecodeReadingBatch(serve::EncodeReadingBatch(batch)).ok());
  batch.readings[1].kwh = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(serve::DecodeReadingBatch(serve::EncodeReadingBatch(batch)).ok());
}

TEST(ReadingCodecTest, EveryTruncationRejected) {
  const std::vector<uint8_t> bytes = serve::EncodeReadingBatch(MakeBatch());
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + n);
    EXPECT_FALSE(serve::DecodeReadingBatch(prefix).ok()) << "prefix " << n;
  }
}

TEST(ReadingCodecTest, TruncationAndBitflipSweepNeverCrashes) {
  const std::vector<uint8_t> bytes = serve::EncodeReadingBatch(MakeBatch());
  const fuzz::SweepStats stats = fuzz::TruncationAndBitflipSweep(
      bytes, [](const uint8_t* data, size_t size) {
        return serve::DecodeReadingBatch({data, data + size}).ok();
      });
  EXPECT_EQ(stats.cases, bytes.size() + 8 * bytes.size());
  // Most flips land inside reading fields and still decode (any finite
  // meter/cell/load combination is wire-legal — admission policy lives in
  // the pipeline), but framing corruption must be rejected: every
  // truncation plus the string-length and count flips.
  EXPECT_LT(stats.accepted, stats.cases - bytes.size());
}

TEST(ContributionMapTest, FindInsertClearAndCapBehaviour) {
  ingest::ContributionMap m;
  double* a = m.FindOrInsert(7, 3, /*may_insert=*/true);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 0.0);
  *a = 1.5;
  EXPECT_EQ(m.size(), 1u);
  // Existing keys are found even when inserting is disallowed.
  double* again = m.FindOrInsert(7, 3, /*may_insert=*/false);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(*again, 1.5);
  // A new key with may_insert=false is refused and nothing is inserted —
  // the pipeline's contribution_cap path.
  EXPECT_EQ(m.FindOrInsert(8, 3, /*may_insert=*/false), nullptr);
  EXPECT_EQ(m.size(), 1u);
  // Same meter, different cell is a distinct key.
  ASSERT_NE(m.FindOrInsert(7, 4, /*may_insert=*/true), nullptr);
  EXPECT_EQ(m.size(), 2u);
  m.Clear();
  EXPECT_EQ(m.size(), 0u);
  // Cleared entries read as absent; re-inserting starts from zero again.
  double* fresh = m.FindOrInsert(7, 3, /*may_insert=*/true);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(*fresh, 0.0);
}

TEST(ContributionMapTest, GrowthPreservesEntriesAndClearSurvivesReuse) {
  ingest::ContributionMap m;
  // Push well past the initial capacity so the table doubles repeatedly.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5000; ++i) {
      double* p =
          m.FindOrInsert(static_cast<uint64_t>(i), i % 17, /*may_insert=*/true);
      ASSERT_NE(p, nullptr);
      *p = i * 0.5 + round;
    }
    EXPECT_EQ(m.size(), 5000u);
    for (int i = 0; i < 5000; ++i) {
      double* p = m.FindOrInsert(static_cast<uint64_t>(i), i % 17,
                                 /*may_insert=*/false);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(*p, i * 0.5 + round);
    }
    const size_t capacity = m.capacity();
    m.Clear();
    EXPECT_EQ(m.size(), 0u);
    // O(1) clear retains the grown buffer for the slice that reuses it.
    EXPECT_EQ(m.capacity(), capacity);
    EXPECT_EQ(m.FindOrInsert(0, 0, /*may_insert=*/false), nullptr);
  }
}

TEST(ReadingCodecTest, CheckedInCorpusReplaysClean) {
  const auto corpus =
      fuzz::LoadCorpus(std::string(STPT_SOURCE_DIR) + "/fuzz/corpus/ingest");
  ASSERT_FALSE(corpus.empty());
  for (const auto& entry : corpus) {
    // The harness aborts the process on any invariant violation.
    fuzz::FuzzIngest(entry.bytes.data(), entry.bytes.size());
  }
}

// --------------------------- incremental prefix ---------------------------

void RandomizedBitIdentityCheck(int threads, uint64_t seed) {
  ThreadGuard guard;
  exec::SetThreads(threads);
  const grid::Dims dims{5, 4, 16};
  auto inc = ingest::IncrementalPrefix::Create(dims);
  ASSERT_TRUE(inc.ok());
  Rng rng(seed);
  for (int round = 0; round < 24; ++round) {
    // A burst of trailing-range mutations, like an ingest epoch: some point
    // adds, then a few whole-slice overwrites (the DP release path).
    const int lo = static_cast<int>(rng.UniformInt(0, dims.ct - 1));
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(inc->Add(static_cast<int>(rng.UniformInt(0, dims.cx - 1)),
                           static_cast<int>(rng.UniformInt(0, dims.cy - 1)),
                           static_cast<int>(rng.UniformInt(lo, dims.ct - 1)),
                           rng.Uniform(-5.0, 5.0))
                      .ok());
    }
    for (int s = 0; s < 3; ++s) {
      std::vector<double> slice(static_cast<size_t>(dims.cx * dims.cy));
      for (double& v : slice) v = rng.Uniform(0.0, 10.0);
      ASSERT_TRUE(
          inc->SetSlice(static_cast<int>(rng.UniformInt(lo, dims.ct - 1)), slice)
              .ok());
    }
    EXPECT_TRUE(inc->dirty());
    EXPECT_GT(inc->Flush(), 0);
    EXPECT_FALSE(inc->dirty());
    // Bitwise, not approximate: the incremental rescan must be
    // indistinguishable from a from-scratch build.
    const grid::PrefixSum3D scratch(inc->matrix());
    ASSERT_EQ(inc->prefix().size(), scratch.raw().size());
    EXPECT_EQ(0, std::memcmp(inc->prefix().data(), scratch.raw().data(),
                             scratch.raw().size() * sizeof(double)))
        << "round " << round << " threads " << threads;
  }
}

TEST(IncrementalPrefixTest, MatchesFromScratchBitwiseSingleThread) {
  RandomizedBitIdentityCheck(1, 0xA11CE);
}

TEST(IncrementalPrefixTest, MatchesFromScratchBitwiseEightThreads) {
  RandomizedBitIdentityCheck(8, 0xA11CE);
}

TEST(IncrementalPrefixTest, RejectsBadArguments) {
  EXPECT_FALSE(ingest::IncrementalPrefix::Create({0, 2, 2}).ok());
  auto inc = ingest::IncrementalPrefix::Create({2, 2, 2});
  ASSERT_TRUE(inc.ok());
  EXPECT_FALSE(inc->Add(2, 0, 0, 1.0).ok());
  EXPECT_FALSE(inc->Add(0, 0, -1, 1.0).ok());
  EXPECT_FALSE(inc->SetSlice(2, std::vector<double>(4, 0.0)).ok());
  EXPECT_FALSE(inc->SetSlice(0, std::vector<double>(3, 0.0)).ok());
  EXPECT_EQ(inc->Flush(), 0);  // nothing dirty
}

// ------------------------------- pipeline --------------------------------

std::vector<serve::MeterReading> SliceReadings(const grid::Dims& dims, int t,
                                               int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<serve::MeterReading> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    serve::MeterReading r;
    r.meter_id = static_cast<uint64_t>(i);
    r.x = static_cast<int32_t>(rng.UniformInt(0, dims.cx - 1));
    r.y = static_cast<int32_t>(rng.UniformInt(0, dims.cy - 1));
    r.t = t;
    r.kwh = rng.Uniform(0.0, 4.0);
    out.push_back(r);
  }
  return out;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(IngestPipelineTest, ValidatesOptions) {
  auto registry = serve::SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ingest::ManualClock clock;
  ingest::IngestOptions options;
  EXPECT_FALSE(ingest::IngestPipeline::Create(nullptr, &clock, options).ok());
  EXPECT_FALSE(
      ingest::IngestPipeline::Create(registry->get(), nullptr, options).ok());
  options.dims = {0, 1, 1};
  EXPECT_FALSE(
      ingest::IngestPipeline::Create(registry->get(), &clock, options).ok());
  options = {};
  options.window = 0;  // rejected by the publisher dry run
  EXPECT_FALSE(
      ingest::IngestPipeline::Create(registry->get(), &clock, options).ok());
}

TEST(IngestPipelineTest, CountEpochKeepsNewestSliceOpen) {
  auto registry = serve::SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ingest::ManualClock clock;
  ingest::IngestOptions options;
  options.dims = {4, 4, 8};
  options.epoch_readings = 8;
  // Wide enough that repeated same-meter readings never clamp: this test
  // asserts exact accepted counts.
  options.unit_sensitivity = 100.0;
  auto pipeline =
      ingest::IngestPipeline::Create(registry->get(), &clock, options);
  ASSERT_TRUE(pipeline.ok());

  serve::ReadingBatch batch;
  batch.readings = SliceReadings(options.dims, 0, 10, 1);
  serve::ReadingAck ack = (*pipeline)->Apply(batch);
  EXPECT_EQ(ack.accepted, 10u);
  // Count trigger fired, but slice 0 is still in progress: no publication.
  EXPECT_EQ(ack.epoch, 0u);

  batch.readings = SliceReadings(options.dims, 1, 10, 2);
  ack = (*pipeline)->Apply(batch);
  EXPECT_EQ(ack.accepted, 10u);
  // Slice 1 moved the high water: slice 0 is complete and published.
  EXPECT_EQ(ack.epoch, 1u);

  // Slice 1 stayed open — more readings for it are still accepted.
  batch.readings = SliceReadings(options.dims, 1, 3, 3);
  ack = (*pipeline)->Apply(batch);
  EXPECT_EQ(ack.accepted, 3u);
  EXPECT_EQ(ack.rejected, 0u);

  // A flush publishes through slice 1; afterwards slice 1 is immutable.
  batch.readings.clear();
  ack = (*pipeline)->Apply(batch);
  EXPECT_EQ(ack.epoch, 2u);
  batch.readings = SliceReadings(options.dims, 1, 2, 4);
  ack = (*pipeline)->Apply(batch);
  EXPECT_EQ(ack.accepted, 0u);
  EXPECT_EQ(ack.rejected, 2u);
}

TEST(IngestPipelineTest, TickEpochUsesInjectedClockOnly) {
  auto registry = serve::SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ingest::ManualClock clock;
  ingest::IngestOptions options;
  options.dims = {4, 4, 8};
  options.epoch_readings = 0;
  options.epoch_ticks_ns = 1000;
  auto pipeline =
      ingest::IngestPipeline::Create(registry->get(), &clock, options);
  ASSERT_TRUE(pipeline.ok());

  serve::ReadingBatch batch;
  batch.readings = SliceReadings(options.dims, 0, 5, 1);
  EXPECT_EQ((*pipeline)->Apply(batch).epoch, 0u);
  batch.readings = SliceReadings(options.dims, 1, 5, 2);
  // Clock has not advanced: no boundary no matter how many batches.
  EXPECT_EQ((*pipeline)->Apply(batch).epoch, 0u);

  clock.Advance(1000);
  batch.readings = SliceReadings(options.dims, 1, 1, 3);
  // Tick boundary: completed slice 0 publishes, slice 1 stays open.
  EXPECT_EQ((*pipeline)->Apply(batch).epoch, 1u);
}

TEST(IngestPipelineTest, RejectsOutOfBoundsLateAndOverCap) {
  auto registry = serve::SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ingest::ManualClock clock;
  ingest::IngestOptions options;
  options.dims = {2, 2, 4};
  options.max_shards = 1;
  options.unit_sensitivity = 5.0;  // exact accepted counts below
  auto pipeline =
      ingest::IngestPipeline::Create(registry->get(), &clock, options);
  ASSERT_TRUE(pipeline.ok());

  serve::ReadingBatch batch;
  batch.readings = {{1, 2, 0, 0, 1.0},   // x out of bounds
                    {2, 0, -1, 0, 1.0},  // y out of bounds
                    {3, 0, 0, 9, 1.0},   // t out of bounds
                    {4, 0, 0, 1, std::numeric_limits<double>::infinity()},
                    {5, 1, 1, 1, 2.0}};  // valid
  const serve::ReadingAck ack = (*pipeline)->Apply(batch);
  EXPECT_EQ(ack.accepted, 1u);
  EXPECT_EQ(ack.rejected, 4u);

  // The shard cap rejects new tenants wholesale (default shard holds it).
  batch.tenant = "overflow";
  batch.readings = SliceReadings(options.dims, 0, 3, 7);
  const serve::ReadingAck capped = (*pipeline)->Apply(batch);
  EXPECT_EQ(capped.accepted, 0u);
  EXPECT_EQ(capped.rejected, 3u);
  EXPECT_FALSE((*pipeline)->Audit("overflow", "0").ok());
}

/// Streams the same deterministic sequence through a fresh pipeline at the
/// given thread count and returns the bytes of the final epoch's snapshot
/// container plus the shard audit.
struct DeterminismRun {
  std::vector<uint8_t> snapshot_bytes;
  ingest::IngestPipeline::ShardAudit audit;
};

DeterminismRun RunDeterministicSequence(int threads, const std::string& dir) {
  ThreadGuard guard;
  exec::SetThreads(threads);
  ::mkdir(dir.c_str(), 0755);
  auto registry = serve::SnapshotRegistry::Create();
  EXPECT_TRUE(registry.ok());
  ingest::ManualClock clock;
  ingest::IngestOptions options;
  options.dims = {6, 5, 12};
  options.epoch_readings = 64;
  options.snapshot_dir = dir;
  options.seed = 77;
  auto pipeline =
      ingest::IngestPipeline::Create(registry->get(), &clock, options);
  EXPECT_TRUE(pipeline.ok());

  uint64_t last_epoch = 0;
  uint64_t publishes = 0;
  for (int t = 0; t < options.dims.ct; ++t) {
    serve::ReadingBatch batch;
    batch.readings =
        SliceReadings(options.dims, t, 40, 500 + static_cast<uint64_t>(t));
    const serve::ReadingAck ack = (*pipeline)->Apply(batch);
    EXPECT_EQ(ack.rejected, 0u);
    if (ack.epoch > last_epoch) ++publishes;
    last_epoch = ack.epoch;
  }
  serve::ReadingBatch flush;
  const serve::ReadingAck ack = (*pipeline)->Apply(flush);
  if (ack.epoch > last_epoch) ++publishes;

  DeterminismRun run;
  run.snapshot_bytes = ReadFileBytes(dir + "/default.0.p" +
                                     std::to_string(publishes) + ".stpt");
  auto audit = (*pipeline)->Audit(serve::kDefaultTenant, serve::kDefaultTile);
  EXPECT_TRUE(audit.ok());
  run.audit = *audit;
  return run;
}

TEST(IngestPipelineTest, BitIdenticalSnapshotsAndLedgerAcrossThreadCounts) {
  const DeterminismRun one =
      RunDeterministicSequence(1, testing::TempDir() + "/ingest_det_1");
  const DeterminismRun eight =
      RunDeterministicSequence(8, testing::TempDir() + "/ingest_det_8");
  ASSERT_FALSE(one.snapshot_bytes.empty());
  // The container bytes — DP release, prefix table, meta — are identical
  // at any thread count: noise is drawn serially per shard, and the
  // incremental prefix recurrences do not depend on chunking.
  EXPECT_EQ(one.snapshot_bytes, eight.snapshot_bytes);
  EXPECT_EQ(one.audit.epoch, eight.audit.epoch);
  // Exact double equality is intentional everywhere below.
  EXPECT_EQ(one.audit.consumed_epsilon, eight.audit.consumed_epsilon);
  EXPECT_EQ(one.audit.ledger_composed_epsilon,
            eight.audit.ledger_composed_epsilon);
  // And within each run the ledger replay is the accountant, bitwise.
  EXPECT_EQ(one.audit.ledger_composed_epsilon, one.audit.consumed_epsilon);
  EXPECT_GT(one.audit.consumed_epsilon, 0.0);
  EXPECT_EQ(one.audit.ledger_records, eight.audit.ledger_records);
  EXPECT_GT(one.audit.ledger_records, 0u);
}

// --------------------------- sensitivity clamp ---------------------------

/// Streams `replays` copies of one reading (meter 99, cell (2,1), t=0,
/// `kwh` each) through a fresh pipeline, flushes, and returns the published
/// container bytes plus the shard audit.
void RunHostileFeeder(const std::string& dir, int64_t replays, double kwh,
                      std::vector<uint8_t>* snapshot_bytes,
                      ingest::IngestPipeline::ShardAudit* audit) {
  ::mkdir(dir.c_str(), 0755);
  auto registry = serve::SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ingest::ManualClock clock;
  ingest::IngestOptions options;
  options.dims = {4, 4, 4};
  options.epoch_readings = 0;  // the final flush is the only boundary
  options.snapshot_dir = dir;
  auto pipeline =
      ingest::IngestPipeline::Create(registry->get(), &clock, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  const serve::MeterReading reading{99, 2, 1, 0, kwh};
  int64_t remaining = replays;
  while (remaining > 0) {
    serve::ReadingBatch batch;
    batch.readings.assign(
        static_cast<size_t>(std::min<int64_t>(remaining, 4096)), reading);
    remaining -= static_cast<int64_t>(batch.readings.size());
    ASSERT_EQ((*pipeline)->Apply(batch).rejected, 0u);
  }
  serve::ReadingBatch flush;
  ASSERT_EQ((*pipeline)->Apply(flush).epoch, 1u);
  auto shard_audit =
      (*pipeline)->Audit(serve::kDefaultTenant, serve::kDefaultTile);
  ASSERT_TRUE(shard_audit.ok());
  *audit = *shard_audit;
  *snapshot_bytes = ReadFileBytes(dir + "/default.0.p1.stpt");
  ASSERT_FALSE(snapshot_bytes->empty());
}

TEST(IngestPipelineTest, HostileFeederMillionReplaysBoundedByUnitSensitivity) {
  // The sensitivity contract end to end: a hostile feeder replaying one
  // meter's oversized reading a million times moves the target cell by no
  // more than unit_sensitivity (1.0 here) of pre-noise signal. Admission
  // clamps per (meter, cell, timestep), so the hostile run's accumulator —
  // and, noise being a deterministic function of shard seed and publication
  // sequence, its published container bytes — exactly equal an honest
  // feeder's single in-bound reading.
  std::vector<uint8_t> honest_bytes, hostile_bytes;
  ingest::IngestPipeline::ShardAudit honest, hostile;
  RunHostileFeeder(testing::TempDir() + "/ingest_honest", 1, 1.0,
                   &honest_bytes, &honest);
  RunHostileFeeder(testing::TempDir() + "/ingest_hostile", 1000000, 5.0,
                   &hostile_bytes, &hostile);
  EXPECT_EQ(honest.accepted, 1u);
  EXPECT_EQ(honest.clamped, 0u);
  // Even the first hostile reading exceeds the bound, so every single one
  // of the million admits at most the clamped remainder.
  EXPECT_EQ(hostile.accepted, 0u);
  EXPECT_EQ(hostile.clamped, 1000000u);
  EXPECT_EQ(hostile.rejected, 0u);
  EXPECT_EQ(hostile_bytes, honest_bytes);
  EXPECT_EQ(hostile.consumed_epsilon, honest.consumed_epsilon);
  EXPECT_EQ(hostile.ledger_composed_epsilon, honest.ledger_composed_epsilon);
}

TEST(IngestPipelineTest, WithinBatchDuplicatesClampAgainstEachOther) {
  // Duplicate (meter, cell, timestep) rows inside ONE batch clamp against
  // each other — the ack the feeder sees matches what the accumulator
  // actually took, with no between-batch state to hide behind.
  auto run = [](const std::string& dir,
                std::vector<serve::MeterReading> readings,
                serve::ReadingAck* ack) {
    ::mkdir(dir.c_str(), 0755);
    auto registry = serve::SnapshotRegistry::Create();
    ASSERT_TRUE(registry.ok());
    ingest::ManualClock clock;
    ingest::IngestOptions options;
    options.dims = {2, 2, 2};
    options.epoch_readings = 0;
    options.snapshot_dir = dir;
    auto pipeline =
        ingest::IngestPipeline::Create(registry->get(), &clock, options);
    ASSERT_TRUE(pipeline.ok());
    serve::ReadingBatch batch;
    batch.readings = std::move(readings);
    *ack = (*pipeline)->Apply(batch);
    serve::ReadingBatch flush;
    EXPECT_EQ((*pipeline)->Apply(flush).epoch, 1u);
  };
  serve::ReadingAck dup_ack, single_ack;
  const std::string dup_dir = testing::TempDir() + "/ingest_dup";
  const std::string single_dir = testing::TempDir() + "/ingest_single";
  run(dup_dir, {{1, 0, 0, 0, 0.7}, {1, 0, 0, 0, 0.7}}, &dup_ack);
  run(single_dir, {{1, 0, 0, 0, 1.0}}, &single_ack);
  EXPECT_EQ(dup_ack.accepted, 1u);  // the first 0.7 fits the bound whole
  EXPECT_EQ(dup_ack.clamped, 1u);   // the second admits only the 0.3 left
  EXPECT_EQ(dup_ack.rejected, 0u);
  EXPECT_EQ(dup_ack.accepted + dup_ack.clamped + dup_ack.rejected, 2u);
  EXPECT_EQ(single_ack.accepted, 1u);
  const std::vector<uint8_t> dup_bytes =
      ReadFileBytes(dup_dir + "/default.0.p1.stpt");
  ASSERT_FALSE(dup_bytes.empty());
  EXPECT_EQ(dup_bytes, ReadFileBytes(single_dir + "/default.0.p1.stpt"));
}

TEST(IngestPipelineTest, BackfillGraceHoldsSlicesOpenThroughCountEpochs) {
  auto registry = serve::SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ingest::ManualClock clock;
  ingest::IngestOptions options;
  options.dims = {2, 2, 8};
  options.epoch_readings = 4;
  options.backfill_grace = 1;
  options.unit_sensitivity = 5.0;
  auto pipeline =
      ingest::IngestPipeline::Create(registry->get(), &clock, options);
  ASSERT_TRUE(pipeline.ok());

  // With grace = 1, count epochs seal through high_water - 2: the count
  // trigger fires on every batch below, but nothing seals until slice 2
  // exists.
  serve::ReadingBatch batch;
  for (int t = 0; t < 3; ++t) {
    batch.readings = SliceReadings(options.dims, t, 4, 10 + static_cast<uint64_t>(t));
    const serve::ReadingAck ack = (*pipeline)->Apply(batch);
    EXPECT_EQ(ack.accepted, 4u);
    EXPECT_EQ(ack.epoch, t < 2 ? 0u : 1u) << "t=" << t;
  }
  // Slice 1 is late but inside the grace window: still admitted.
  batch.readings = {{9, 0, 0, 1, 1.0}};
  serve::ReadingAck ack = (*pipeline)->Apply(batch);
  EXPECT_EQ(ack.accepted, 1u);
  EXPECT_EQ(ack.rejected, 0u);
  // Slice 0 sealed with epoch 1: immutable.
  batch.readings = {{9, 0, 0, 0, 1.0}};
  ack = (*pipeline)->Apply(batch);
  EXPECT_EQ(ack.accepted, 0u);
  EXPECT_EQ(ack.rejected, 1u);
  // A flush ignores the grace and seals everything...
  batch.readings.clear();
  ack = (*pipeline)->Apply(batch);
  EXPECT_EQ(ack.epoch, 2u);
  // ...after which the grace window is gone too.
  batch.readings = {{9, 0, 0, 1, 1.0}};
  ack = (*pipeline)->Apply(batch);
  EXPECT_EQ(ack.rejected, 1u);
}

TEST(IngestPipelineTest, RingAcceptsLogicalTimeBeyondCt) {
  auto registry = serve::SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ingest::ManualClock clock;
  ingest::IngestOptions options;
  options.dims = {2, 2, 4};
  options.epoch_readings = 0;
  options.unit_sensitivity = 5.0;
  options.accountant_epsilon = 100.0;  // 10 logical slices > one ct horizon
  auto pipeline =
      ingest::IngestPipeline::Create(registry->get(), &clock, options);
  ASSERT_TRUE(pipeline.ok());

  // Stream and seal 10 logical slices through a ct = 4 ring: slots recycle,
  // so logical time is unbounded by the accumulator's physical extent.
  serve::ReadingBatch batch;
  for (int t = 0; t < 10; ++t) {
    batch.readings = {{1, 0, 0, t, 1.0}, {2, 1, 1, t, 0.5}};
    serve::ReadingAck ack = (*pipeline)->Apply(batch);
    EXPECT_EQ(ack.accepted, 2u) << "t=" << t;
    batch.readings.clear();
    ack = (*pipeline)->Apply(batch);
    EXPECT_EQ(ack.epoch, static_cast<uint64_t>(t) + 1);
  }
  // The open window is now [10, 14): sealed and beyond-horizon timesteps
  // reject, in-window ones admit.
  batch.readings = {{3, 0, 0, 9, 1.0}};
  EXPECT_EQ((*pipeline)->Apply(batch).rejected, 1u);
  batch.readings = {{3, 0, 0, 14, 1.0}};
  EXPECT_EQ((*pipeline)->Apply(batch).rejected, 1u);
  batch.readings = {{3, 0, 0, 10, 1.0}, {4, 1, 0, 13, 1.0}};
  EXPECT_EQ((*pipeline)->Apply(batch).accepted, 2u);
}

// ----------------------------- wal / recovery -----------------------------

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(WalTest, TornTailAndCorruptionStopCleanly) {
  const std::string path = testing::TempDir() + "/torn.wal";
  std::remove(path.c_str());
  {
    auto wal = ingest::Wal::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(wal->AppendHeader("acme", "7").ok());
    ASSERT_TRUE(wal->AppendBatch({{1, 0, 0, 0, 1.0}, {2, 1, 1, 0, 2.0}}).ok());
    ASSERT_TRUE(wal->AppendEpochMark(0, 1).ok());
    ASSERT_TRUE(wal->AppendBatch({{3, 0, 1, 1, 0.5}}).ok());
  }
  auto intact = ingest::Wal::ReadAll(path);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  ASSERT_EQ(intact->size(), 4u);
  EXPECT_EQ((*intact)[0].type, ingest::Wal::RecordType::kHeader);
  EXPECT_EQ((*intact)[0].tenant, "acme");
  EXPECT_EQ((*intact)[0].tile, "7");
  ASSERT_EQ((*intact)[1].readings.size(), 2u);
  EXPECT_EQ((*intact)[1].readings[0].meter_id, 1u);
  EXPECT_EQ((*intact)[2].through, 0);
  EXPECT_EQ((*intact)[2].publish_seq, 1u);

  // Truncating mid-way through the final record is a crash mid-append: the
  // reader surfaces the intact prefix and stops, no error.
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  WriteFileBytes(path, {bytes.begin(), bytes.end() - 5});
  auto torn = ingest::Wal::ReadAll(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn->size(), 3u);

  // A flipped payload byte fails the CRC: same clean stop at the
  // last-intact boundary.
  std::vector<uint8_t> corrupt = bytes;
  corrupt[100] ^= 0xFF;  // inside the epoch-mark record's payload
  WriteFileBytes(path, corrupt);
  auto checked = ingest::Wal::ReadAll(path);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(checked->size(), 2u);

  EXPECT_FALSE(ingest::Wal::ReadAll(path + ".missing").ok());
}

ingest::IngestOptions RecoveryOptions(const std::string& base) {
  ingest::IngestOptions options;
  options.dims = {6, 5, 12};
  options.epoch_readings = 64;
  options.seed = 77;
  options.wal_dir = base + "/wal";
  options.snapshot_dir = base + "/snap";
  options.ledger_path = base + "/snap/ledger.jsonl";
  return options;
}

void MakeRecoveryDirs(const std::string& base) {
  ::mkdir(base.c_str(), 0755);
  ::mkdir((base + "/wal").c_str(), 0755);
  ::mkdir((base + "/snap").c_str(), 0755);
  // The WAL appends across process lifetimes by design; start this test
  // run's "process" from genesis.
  std::remove((base + "/wal/default.0.wal").c_str());
}

serve::ReadingBatch RecoveryBatch(const grid::Dims& dims, int t) {
  serve::ReadingBatch batch;
  batch.readings = SliceReadings(dims, t, 40, 500 + static_cast<uint64_t>(t));
  return batch;
}

/// The ISSUE's crash drill: stream half the horizon, die between epochs,
/// recover a fresh pipeline from snapshot + WAL, finish the stream — and
/// demand the result is bitwise indistinguishable from never crashing.
void KillAndRecoverBitwise(int threads, const std::string& base) {
  ThreadGuard guard;
  exec::SetThreads(threads);
  const std::string crash = base + "_crash";
  const std::string full = base + "_full";
  MakeRecoveryDirs(crash);
  MakeRecoveryDirs(full);
  const ingest::IngestOptions crash_options = RecoveryOptions(crash);
  const ingest::IngestOptions full_options = RecoveryOptions(full);

  // Phase 1: stream slices 0..5, then tear the pipeline down mid-stream
  // with slice 5 still open. Batch appends are flushed at Apply time and
  // epoch marks are fsynced, so what this leaves on disk is exactly what a
  // SIGKILL would: the logged reading sequence, the last publication's
  // snapshot, and the ledger lines written so far.
  double pre_crash_epsilon = 0.0;
  uint64_t pre_crash_epoch = 0;
  uint64_t pre_crash_accepted = 0;
  uint64_t pre_crash_clamped = 0;
  {
    auto registry = serve::SnapshotRegistry::Create();
    ASSERT_TRUE(registry.ok());
    ingest::ManualClock clock;
    auto pipeline =
        ingest::IngestPipeline::Create(registry->get(), &clock, crash_options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    for (int t = 0; t < 6; ++t) {
      EXPECT_EQ((*pipeline)->Apply(RecoveryBatch(crash_options.dims, t)).rejected,
                0u);
    }
    auto audit = (*pipeline)->Audit(serve::kDefaultTenant, serve::kDefaultTile);
    ASSERT_TRUE(audit.ok());
    pre_crash_epsilon = audit->consumed_epsilon;
    pre_crash_epoch = audit->epoch;
    pre_crash_accepted = audit->accepted;
    pre_crash_clamped = audit->clamped;
    ASSERT_GT(pre_crash_epoch, 0u);
  }

  // Phase 2: a fresh "process" recovers the shard and finishes the stream.
  uint64_t crash_final_epoch = 0;
  ingest::IngestPipeline::ShardAudit crash_audit;
  std::vector<uint8_t> crash_snapshot;
  {
    auto registry = serve::SnapshotRegistry::Create();
    ASSERT_TRUE(registry.ok());
    ingest::ManualClock clock;
    auto pipeline =
        ingest::IngestPipeline::Create(registry->get(), &clock, crash_options);
    ASSERT_TRUE(pipeline.ok());
    const Status recovered = (*pipeline)->Recover(crash_options.snapshot_dir,
                                                  crash_options.ledger_path);
    ASSERT_TRUE(recovered.ok()) << recovered.ToString();
    auto resumed =
        (*pipeline)->Audit(serve::kDefaultTenant, serve::kDefaultTile);
    ASSERT_TRUE(resumed.ok());
    // The resumed accountant IS the pre-crash accountant. Bitwise.
    EXPECT_EQ(resumed->consumed_epsilon, pre_crash_epsilon);
    EXPECT_EQ(resumed->ledger_composed_epsilon, resumed->consumed_epsilon);
    EXPECT_EQ(resumed->epoch, pre_crash_epoch);
    EXPECT_EQ(resumed->accepted, pre_crash_accepted);
    EXPECT_EQ(resumed->clamped, pre_crash_clamped);
    for (int t = 6; t < crash_options.dims.ct; ++t) {
      EXPECT_EQ((*pipeline)->Apply(RecoveryBatch(crash_options.dims, t)).rejected,
                0u);
    }
    serve::ReadingBatch flush;
    crash_final_epoch = (*pipeline)->Apply(flush).epoch;
    auto audit = (*pipeline)->Audit(serve::kDefaultTenant, serve::kDefaultTile);
    ASSERT_TRUE(audit.ok());
    crash_audit = *audit;
    crash_snapshot =
        ReadFileBytes(crash_options.snapshot_dir + "/default.0.p" +
                      std::to_string(crash_final_epoch) + ".stpt");
    ASSERT_FALSE(crash_snapshot.empty());
  }

  // Reference: the identical stream, never interrupted.
  auto registry = serve::SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ingest::ManualClock clock;
  auto pipeline =
      ingest::IngestPipeline::Create(registry->get(), &clock, full_options);
  ASSERT_TRUE(pipeline.ok());
  for (int t = 0; t < full_options.dims.ct; ++t) {
    EXPECT_EQ((*pipeline)->Apply(RecoveryBatch(full_options.dims, t)).rejected,
              0u);
  }
  serve::ReadingBatch flush;
  const uint64_t full_final_epoch = (*pipeline)->Apply(flush).epoch;
  ASSERT_EQ(full_final_epoch, crash_final_epoch);
  auto full_audit = (*pipeline)->Audit(serve::kDefaultTenant, serve::kDefaultTile);
  ASSERT_TRUE(full_audit.ok());

  // Everything downstream of the crash is bitwise identical to the
  // uninterrupted run: the next publication's container bytes, the composed
  // epsilon on both the accountant and the ledger replay, and the on-disk
  // JSONL ledger itself.
  const std::vector<uint8_t> full_snapshot =
      ReadFileBytes(full_options.snapshot_dir + "/default.0.p" +
                    std::to_string(full_final_epoch) + ".stpt");
  ASSERT_FALSE(full_snapshot.empty());
  EXPECT_EQ(crash_snapshot, full_snapshot);
  EXPECT_EQ(crash_audit.consumed_epsilon, full_audit->consumed_epsilon);
  EXPECT_EQ(crash_audit.ledger_composed_epsilon,
            full_audit->ledger_composed_epsilon);
  EXPECT_EQ(crash_audit.ledger_composed_epsilon, crash_audit.consumed_epsilon);
  EXPECT_GT(crash_audit.consumed_epsilon, 0.0);
  EXPECT_EQ(crash_audit.ledger_records, full_audit->ledger_records);
  EXPECT_EQ(crash_audit.accepted, full_audit->accepted);
  EXPECT_EQ(crash_audit.clamped, full_audit->clamped);
  EXPECT_EQ(ReadFileBytes(crash_options.ledger_path),
            ReadFileBytes(full_options.ledger_path));
}

TEST(IngestRecoveryTest, KillAndRecoverBitwiseSingleThread) {
  KillAndRecoverBitwise(1, testing::TempDir() + "/ingest_rec_1");
}

TEST(IngestRecoveryTest, KillAndRecoverBitwiseEightThreads) {
  KillAndRecoverBitwise(8, testing::TempDir() + "/ingest_rec_8");
}

// ------------------------------- loopback --------------------------------

class IngestLoopbackTest : public testing::Test {
 protected:
  void Start(ingest::IngestOptions options) {
    auto registry = serve::SnapshotRegistry::Create();
    ASSERT_TRUE(registry.ok());
    registry_ = std::move(*registry);
    auto pipeline =
        ingest::IngestPipeline::Create(registry_.get(), &clock_, options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    pipeline_ = std::move(*pipeline);
    auto server =
        serve::EventLoopServer::Create(registry_.get(), serve::EventLoopOptions{});
    ASSERT_TRUE(server.ok());
    server_ = std::move(*server);
    server_->set_ingest_sink(pipeline_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  ingest::SystemClock clock_;
  std::unique_ptr<serve::SnapshotRegistry> registry_;
  std::unique_ptr<ingest::IngestPipeline> pipeline_;
  std::unique_ptr<serve::EventLoopServer> server_;
};

TEST_F(IngestLoopbackTest, IngestWithoutSinkFailsAndConnectionSurvives) {
  // A server without an ingest pipeline: kReadingBatch is a clean error,
  // not a protocol violation, and the connection keeps serving.
  auto registry = serve::SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  serve::Snapshot snap;
  auto matrix = grid::ConsumptionMatrix::Create({3, 3, 3});
  ASSERT_TRUE(matrix.ok());
  snap = serve::Snapshot::FromMatrix(*matrix, {});
  ASSERT_TRUE((*registry)
                  ->Load({serve::kDefaultTenant, serve::kDefaultTile}, snap)
                  .ok());
  auto server =
      serve::EventLoopServer::Create(registry->get(), serve::EventLoopOptions{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  auto client = serve::Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto ack = client->Ingest("", "", {{1, 0, 0, 0, 1.0}});
  ASSERT_FALSE(ack.ok());
  EXPECT_NE(ack.status().ToString().find("ingest"), std::string::npos);
  EXPECT_TRUE(client->QueryTenant("", "", {{0, 1, 0, 1, 0, 1}}).ok());
  (*server)->Stop();
}

TEST_F(IngestLoopbackTest, FlushPublishesAndServedAnswersMatchContainer) {
  ingest::IngestOptions options;
  options.dims = {6, 6, 10};
  options.snapshot_dir = testing::TempDir();
  // Loads are drawn from [0, 4); keep them under the sensitivity bound so
  // the accepted-only readings counter below still reads 120.
  options.unit_sensitivity = 5.0;
  Start(options);

  auto client = serve::Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  for (int t = 0; t < 4; ++t) {
    auto ack =
        client->Ingest("", "", SliceReadings(options.dims, t, 30,
                                             900 + static_cast<uint64_t>(t)));
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->rejected, 0u);
  }
  auto flushed = client->Ingest("", "", {});
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed->epoch, 1u);

  // Served answers are bit-identical to direct evaluation of the published
  // container — the ingest path reuses the serve-tier integrity contract.
  auto container =
      serve::ReadSnapshot(testing::TempDir() + "/default.0.p1.stpt");
  ASSERT_TRUE(container.ok());
  auto direct = grid::PrefixSum3D::FromRaw(options.dims, container->prefix);
  ASSERT_TRUE(direct.ok());
  Rng rng(31);
  auto wl = query::MakeWorkload(query::WorkloadKind::kRandom, options.dims, 64,
                                rng);
  ASSERT_TRUE(wl.ok());
  auto response = client->QueryTenant("", "", *wl);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->epoch, 1u);
  for (size_t i = 0; i < wl->size(); ++i) {
    const query::RangeQuery& q = (*wl)[i];
    const double expect = direct->BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1);
    EXPECT_EQ(std::memcmp(&response->answers[i], &expect, sizeof(double)), 0);
  }

  // Stats and metrics surface the ingest families over the wire. The
  // ingest block is spliced into the serving-counter JSON, not the
  // per-shard registry stats.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"ingest\": {\"shards\""), std::string::npos);
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("stpt_ingest_epochs_total 1"), std::string::npos);
  EXPECT_NE(metrics->find("stpt_ingest_readings_total 120"), std::string::npos);
}

TEST_F(IngestLoopbackTest, HammerAcrossTenRepublishesZeroErrorsMonotoneEpoch) {
  ingest::IngestOptions options;
  options.dims = {8, 8, 40};
  options.epoch_readings = 64;
  Start(options);

  // Seed the shard with one published slice so queries can start.
  auto feeder = serve::Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(feeder.ok());
  ASSERT_TRUE(
      feeder->Ingest("", "", SliceReadings(options.dims, 0, 32, 1)).ok());
  auto first = feeder->Ingest("", "", {});
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->epoch, 1u);

  constexpr int kClients = 3;
  std::atomic<bool> done{false};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> queries{0};
  std::atomic<uint64_t> max_epoch{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = serve::Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        errors.fetch_add(1);
        return;
      }
      Rng rng(7000 + static_cast<uint64_t>(c));
      auto wl =
          query::MakeWorkload(query::WorkloadKind::kRandom, options.dims, 64, rng);
      if (!wl.ok()) {
        errors.fetch_add(1);
        return;
      }
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_relaxed)) {
        auto response = client->QueryTenant("", "", *wl);
        // Zero-downtime contract: every query during a swap storm answers,
        // and the observed epoch never moves backwards.
        if (!response.ok() || response->answers.size() != wl->size() ||
            response->epoch < last_epoch) {
          errors.fetch_add(1);
          return;
        }
        last_epoch = response->epoch;
        queries.fetch_add(static_cast<int64_t>(wl->size()));
        uint64_t seen = max_epoch.load(std::memory_order_relaxed);
        while (seen < last_epoch &&
               !max_epoch.compare_exchange_weak(seen, last_epoch)) {
        }
      }
    });
  }

  // Stream slice by slice: each batch completes the previous slice, so
  // every batch past the count threshold republishes.
  uint64_t last_epoch = first->epoch;
  int republishes = 0;
  for (int t = 1; t < options.dims.ct && republishes < 12; ++t) {
    auto ack = feeder->Ingest(
        "", "", SliceReadings(options.dims, t, 80, 100 + static_cast<uint64_t>(t)));
    ASSERT_TRUE(ack.ok());
    ASSERT_EQ(ack->rejected, 0u);
    if (ack->epoch > last_epoch) ++republishes;
    EXPECT_GE(ack->epoch, last_epoch);
    last_epoch = ack->epoch;
  }
  EXPECT_GE(republishes, 10);
  // The feeder can finish before a client thread has sent its first query;
  // keep the clients querying until one of them has seen the final epoch.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (max_epoch.load() < last_epoch && errors.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(queries.load(), 0);
  EXPECT_EQ(max_epoch.load(), last_epoch);
  auto audit = pipeline_->Audit(serve::kDefaultTenant, serve::kDefaultTile);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->ledger_composed_epsilon, audit->consumed_epsilon);
}

TEST(IngestTimerTest, TimerDrivenSweepPublishesIdleShard) {
  // An idle shard must still meet its epoch deadline: the server's publish
  // timer drives IngestPipeline::PublishAll, so completed slices seal
  // without another batch (or a flush) ever arriving.
  auto registry = serve::SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ingest::SystemClock clock;
  ingest::IngestOptions options;
  options.dims = {4, 4, 8};
  options.epoch_readings = 0;
  options.epoch_ticks_ns = 0;  // the timer period is the deadline
  auto pipeline =
      ingest::IngestPipeline::Create(registry->get(), &clock, options);
  ASSERT_TRUE(pipeline.ok());
  serve::EventLoopOptions loop;
  loop.ingest_publish_interval_ms = 5;
  auto server = serve::EventLoopServer::Create(registry->get(), loop);
  ASSERT_TRUE(server.ok());
  (*server)->set_ingest_sink(pipeline->get());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = serve::Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  for (int t = 0; t < 2; ++t) {
    auto ack =
        client->Ingest("", "", SliceReadings(options.dims, t, 8,
                                             40 + static_cast<uint64_t>(t)));
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->rejected, 0u);
  }
  // No flush: only the timer sweep can seal the completed slice 0.
  uint64_t epoch = 0;
  for (int i = 0; i < 500 && epoch == 0; ++i) {
    auto audit =
        (*pipeline)->Audit(serve::kDefaultTenant, serve::kDefaultTile);
    if (audit.ok()) epoch = audit->epoch;
    if (epoch == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(epoch, 1u);
  (*server)->Stop();
}

}  // namespace
}  // namespace stpt
