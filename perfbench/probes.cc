// In-process layer probes: timed calls into the public functions of the
// layers no server span covers, run on the workload's own inputs. Each probe
// repeats its call until a small time budget is spent and reports the mean.
#include <cstring>

#include "common/rng.h"
#include "core/streaming.h"
#include "dp/audit_ledger.h"
#include "dp/budget_accountant.h"
#include "ingest/clock.h"
#include "ingest/incremental_prefix.h"
#include "ingest/pipeline.h"
#include "ingest/wal.h"
#include "serve/query_server.h"
#include "serve/registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace stpt;

constexpr uint64_t kProbeBudgetNs = 150'000'000;

/// Calls `step` (which returns the units of work it did) until the budget is
/// spent; returns elapsed ns per unit.
template <typename F>
double TimePerUnit(F step) {
  uint64_t units = 0;
  const uint64_t start = NowNs();
  uint64_t now = start;
  while (now - start < kProbeBudgetNs || units == 0) {
    units += step();
    now = NowNs();
  }
  return static_cast<double>(now - start) / static_cast<double>(units);
}

serve::Snapshot ProbeSnapshot(uint64_t seed) {
  auto m = grid::ConsumptionMatrix::Create({32, 32, 168});
  Rng rng(seed);
  for (double& v : m->mutable_data()) v = rng.Uniform(0.0, 50.0);
  serve::SnapshotMeta meta;
  meta.algorithm = "probe";
  return serve::Snapshot::FromMatrix(*m, meta);
}

}  // namespace

size_t CountMismatches(const serve::Snapshot& snap, const query::Workload& batch,
                       const std::vector<double>& answers) {
  auto prefix = grid::PrefixSum3D::FromRaw(snap.sanitized.dims(), snap.prefix);
  if (!prefix.ok() || answers.size() != batch.size()) return batch.size() + 1;
  size_t bad = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const query::RangeQuery& q = batch[i];
    const double expect = prefix->BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1);
    if (std::memcmp(&expect, &answers[i], sizeof(double)) != 0) ++bad;
  }
  return bad;
}

void SelfTest(Report& report) {
  const serve::Snapshot snap = ProbeSnapshot(99);
  Rng rng(5);
  auto batch = query::MakeWorkload(query::WorkloadKind::kRandom, snap.sanitized.dims(), 64, rng);
  auto prefix = grid::PrefixSum3D::FromRaw(snap.sanitized.dims(), snap.prefix);
  std::vector<double> answers;
  for (const auto& q : *batch) answers.push_back(prefix->BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1));
  const bool clean_passes = CountMismatches(snap, *batch, answers) == 0;
  uint64_t bits = 0;
  std::memcpy(&bits, &answers[17], sizeof(bits));
  bits ^= 1;  // one ulp: caught only by a bitwise comparison
  std::memcpy(&answers[17], &bits, sizeof(bits));
  const bool answer_caught = CountMismatches(snap, *batch, answers) == 1;
  // A container with one flipped payload byte must not decode.
  std::vector<uint8_t> bytes = serve::EncodeSnapshot(snap);
  bytes[bytes.size() / 2] ^= 0x10;
  const bool container_caught = !serve::DecodeSnapshot(bytes.data(), bytes.size()).ok();
  // A ledger whose epsilon was edited must stop composing to the total.
  dp::AuditLedger ledger;
  auto acct = dp::BudgetAccountant::Create(10.0);
  acct->AttachLedger(&ledger);
  (void)acct->Charge("a", 0.5);
  (void)acct->Charge("b", 0.25);
  auto records = ledger.records();
  records[1].epsilon = 0.2500001;
  const double tampered = dp::AuditLedger::ComposeRecords(records);
  const double consumed = acct->ConsumedEpsilon();
  const bool ledger_caught = std::memcmp(&tampered, &consumed, sizeof(double)) != 0;
  report.Check("self-test: tampered answer, container and ledger are caught",
               clean_passes && answer_caught && container_caught && ledger_caught,
               Fmt("clean=%d answer=%d container=%d ledger=%d", clean_passes, answer_caught,
                   container_caught, ledger_caught));
}

void ProbeReadingDecode(const ReadingBatches& batches, Report& report) {
  std::vector<std::vector<uint8_t>> frames;
  uint64_t per_pass = 0;
  for (const auto& readings : batches) {
    serve::ReadingBatch b;
    b.tenant = "probe";
    b.tile = "0";
    b.readings = readings;
    frames.push_back(serve::EncodeReadingBatch(b));
    per_pass += readings.size();
  }
  const double ns = TimePerUnit([&] {
    for (const auto& f : frames) {
      auto decoded = serve::DecodeReadingBatch(f);
      if (!decoded.ok()) report.Check("probe: reading frames decode", false);
    }
    return per_pass;
  });
  report.Metric("wire.reading_decode_ns_per_reading", ns, "ns");
}

void ProbeQueryCodec(const std::vector<query::Workload>& batches, Report& report) {
  uint64_t per_pass = 0;
  for (const auto& b : batches) per_pass += b.size();
  const double ns = TimePerUnit([&] {
    for (const auto& b : batches) {
      serve::TenantQueryRequest req;
      req.tenant = "probe";
      req.tile = "0";
      req.batch = b;
      auto decoded = serve::DecodeTenantQueryRequest(serve::EncodeTenantQueryRequest(req));
      serve::TenantQueryResponse resp;
      resp.epoch = 1;
      resp.answers.assign(decoded->batch.size(), 1.5);
      auto back = serve::DecodeTenantQueryResponse(serve::EncodeTenantQueryResponse(resp));
      if (!back.ok()) report.Check("probe: query frames decode", false);
    }
    return per_pass;
  });
  report.Metric("wire.query_codec_ns_per_query", ns, "ns");
}

void ProbeAnswer(const serve::Snapshot& snap, const std::vector<query::Workload>& batches,
                 Report& report) {
  auto engine = serve::QueryServer::Create(snap);
  if (!engine.ok()) return;
  for (const auto& b : batches) (void)engine->AnswerBatch(b);  // warm the cache
  uint64_t per_pass = 0;
  for (const auto& b : batches) per_pass += b.size();
  const double ns = TimePerUnit([&] {
    for (const auto& b : batches) (void)engine->AnswerBatch(b);
    return per_pass;
  });
  report.Metric("query_server.answer_ns_per_query", ns, "ns");
}

void ProbeRoute(int shards, Report& report) {
  auto registry = serve::SnapshotRegistry::Create();
  auto small = grid::ConsumptionMatrix::Create({4, 4, 4});
  std::vector<std::string> tenants;
  for (int i = 0; i < shards; ++i) {
    tenants.push_back(Fmt("route%d", i));
    (void)(*registry)->Load({tenants.back(), "0"},
                            serve::Snapshot::FromMatrix(*small, serve::SnapshotMeta{}));
  }
  size_t i = 0;
  const double ns = TimePerUnit([&] {
    for (int k = 0; k < 1024; ++k) {
      auto gen = (*registry)->Route(tenants[i++ % tenants.size()], "0");
      if (!gen.ok()) report.Check("probe: route finds shard", false);
    }
    return uint64_t{1024};
  });
  report.Metric("registry.route_ns", ns, "ns");
}

void ProbeAdmit(const ReadingBatches& batches, double unit, Report& report) {
  // A pipeline with no WAL and no epoch boundary: admission alone. A fresh
  // pipeline per pass keeps every reading inside the open ring window.
  uint64_t readings = 0;
  uint64_t elapsed = 0;
  while (elapsed < kProbeBudgetNs) {
    auto registry = serve::SnapshotRegistry::Create();
    ingest::ManualClock clock;
    ingest::IngestOptions options;
    options.dims = {32, 32, 168};
    options.epoch_readings = 0;
    options.unit_sensitivity = unit;
    auto pipeline = ingest::IngestPipeline::Create(registry->get(), &clock, options);
    for (const auto& r : batches) {
      serve::ReadingBatch b;
      b.tenant = "probe";
      b.tile = "0";
      b.readings = r;
      const uint64_t t0 = NowNs();
      const serve::ReadingAck ack = (*pipeline)->Apply(b);
      elapsed += NowNs() - t0;
      readings += r.size();
      if (ack.epoch != 0) report.Check("probe: admission publishes nothing", false);
    }
  }
  report.Metric("ingest.admit_ns_per_reading",
                static_cast<double>(elapsed) / static_cast<double>(readings), "ns");
}

void ProbeWal(const std::string& dir, const ReadingBatches& batches, Report& report) {
  const std::string path = dir + "/probe.wal";
  RemoveTree(path);
  auto wal = ingest::Wal::Open(path);
  if (!wal.ok() || !wal->AppendHeader("probe", "0").ok()) return;
  size_t i = 0;
  const double batch_ns = TimePerUnit([&] {
    (void)wal->AppendBatch(batches[i++ % batches.size()]);
    return uint64_t{1};
  });
  Samples marks;
  for (int k = 0; k < 16; ++k) {
    const uint64_t t0 = NowNs();
    (void)wal->AppendEpochMark(k, static_cast<uint64_t>(k + 1));
    marks.Add(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  report.Metric("wal.append_batch_us", batch_ns * 1e-3, "us");
  report.Metric("wal.epoch_mark_us", marks.Pct(50), "us");
  RemoveTree(path);
}

void ProbePublishStages(const std::string& dir, double unit, Report& report) {
  const grid::Dims dims{32, 32, 168};
  const int cells = dims.cx * dims.cy;
  Rng rng(11);
  std::vector<double> slice(static_cast<size_t>(cells));
  // Incremental prefix: one slice set and flushed per epoch, as ingest does.
  Samples flush_us;
  auto prefix = ingest::IncrementalPrefix::Create(dims);
  for (int t = 0; t < dims.ct; ++t) {
    for (double& v : slice) v = rng.Uniform(0.0, 40.0);
    (void)prefix->SetSliceLogical(t, slice);
    const uint64_t t0 = NowNs();
    prefix->Flush();
    flush_us.Add(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  report.Metric("prefix.flush_us", flush_us.Mean(), "us");
  // w-event release of one slice under an accountant with a ledger.
  core::StreamingPublisher::Options opt;
  auto publisher = core::StreamingPublisher::Create(cells, unit, opt);
  auto accountant = dp::BudgetAccountant::Create(opt.epsilon * (168.0 / opt.window + 2.0));
  dp::AuditLedger ledger;
  accountant->AttachLedger(&ledger);
  publisher->AttachAccountant(&*accountant, "probe");
  Samples release_us;
  for (int t = 0; t < dims.ct; ++t) {
    for (double& v : slice) v = rng.Uniform(0.0, 40.0);
    const uint64_t t0 = NowNs();
    auto released = publisher->ProcessSlice(slice, rng);
    release_us.Add(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!released.ok()) break;
  }
  report.Metric("dp.release_slice_us", release_us.Mean(), "us");
  // Ledger append to a JSONL file on the run's filesystem.
  {
    dp::AuditLedger file_ledger;
    const std::string path = dir + "/probe-ledger.jsonl";
    RemoveTree(path);
    if (file_ledger.OpenFile(path).ok()) {
      uint64_t seq = 0;
      const double ns = TimePerUnit([&] {
        dp::AuditRecord rec;
        rec.seq = seq;
        rec.stage = Fmt("stream/t%llu/pub", static_cast<unsigned long long>(seq++));
        rec.mechanism = "laplace";
        rec.epsilon = 0.1;
        rec.sensitivity = unit;
        rec.composition = "sequential";
        file_ledger.Append(rec);
        return uint64_t{1};
      });
      report.Metric("ledger.append_us", ns * 1e-3, "us");
    }
    RemoveTree(path);
  }
  // Container encode and write at the live shard size.
  const serve::Snapshot snap = ProbeSnapshot(3);
  Samples encode_us, write_us;
  const std::string path = dir + "/probe.stpt";
  for (int k = 0; k < 8; ++k) {
    uint64_t t0 = NowNs();
    const std::vector<uint8_t> bytes = serve::EncodeSnapshot(snap);
    encode_us.Add(static_cast<double>(NowNs() - t0) * 1e-3);
    t0 = NowNs();
    (void)serve::WriteSnapshot(snap, path);
    write_us.Add(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  RemoveTree(path);
  report.Metric("snapshot.encode_us", encode_us.Pct(50), "us");
  report.Metric("snapshot.write_us", write_us.Pct(50), "us");
}

}  // namespace perfbench
