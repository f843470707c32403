#include "serve/query_server.h"

#include <sstream>
#include <utility>

#include "exec/parallel.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace stpt::serve {
namespace {

/// Batches slower than this are counted in stpt_serve_slow_batches_total
/// and logged at warn level (the serve-layer slow-query log).
constexpr uint64_t kSlowBatchNs = 50'000'000;  // 50 ms

}  // namespace

std::string ServerStats::ToJson() const {
  std::ostringstream os;
  os << "{\"queries\": " << queries << ", \"invalid\": " << invalid
     << ", \"p50_ns\": " << p50_ns << ", \"p99_ns\": " << p99_ns << "}";
  return os.str();
}

class QueryServer::Impl {
 public:
  Impl(SnapshotMeta meta, grid::PrefixSum3D prefix)
      : meta_(std::move(meta)), prefix_(std::move(prefix)) {
    queries_ = registry_.GetCounter("stpt_serve_queries_total",
                                    "Queries answered successfully");
    invalid_ = registry_.GetCounter("stpt_serve_invalid_total",
                                    "Batches rejected by bounds validation");
    batches_ = registry_.GetCounter("stpt_serve_batches_total",
                                    "Query batches accepted by AnswerBatch");
    slow_batches_ = registry_.GetCounter("stpt_serve_slow_batches_total",
                                         "Batches slower than 50 ms");
    latency_ = registry_.GetHistogram("stpt_serve_batch_latency_ns",
                                      "AnswerBatch() wall time per accepted batch",
                                      obs::LatencyBucketsNs());
  }

  const grid::Dims& dims() const { return prefix_.dims(); }
  const SnapshotMeta& meta() const { return meta_; }
  obs::Registry& metrics() { return registry_; }

  StatusOr<QueryResponse> AnswerBatch(const query::Workload& batch) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const Status valid = query::ValidateQuery(batch[i], prefix_.dims());
      if (!valid.ok()) {
        invalid_->Increment();
        return Status::InvalidArgument("AnswerBatch: query " + std::to_string(i) +
                                       " invalid: " + valid.message());
      }
    }
    batches_->Increment();
    // Named span so the batch shows up in the trace-region profile
    // (`stpt_serve stats` top_regions) and labels the worker-chunk lanes.
    obs::Span batch_span("serve/answer_batch");
    const uint64_t start_ns = obs::NowNanos();
    QueryResponse answers(batch.size());
    exec::ParallelFor(static_cast<int64_t>(batch.size()), [&](int64_t i) {
      // Each slot is written by exactly one index (the ParallelFor purity
      // contract).
      const query::RangeQuery& q = batch[i];
      answers[i] = prefix_.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1);
    });
    const uint64_t end_ns = obs::NowNanos();
    const uint64_t batch_ns = end_ns - start_ns;
    queries_->Increment(batch.size());
    // A sampled batch pins its trace id to the latency bucket it lands in
    // (an OpenMetrics exemplar), so a scrape outlier links to its trace.
    const obs::TraceContext* ctx = obs::CurrentTraceContext();
    const bool sampled = ctx != nullptr && ctx->sampled;
    if (sampled) {
      latency_->ObserveWithExemplar(static_cast<double>(batch_ns), ctx->trace_hi,
                                    ctx->trace_lo, end_ns);
    } else {
      latency_->Observe(static_cast<double>(batch_ns));
    }
    if (batch_ns > kSlowBatchNs) {
      slow_batches_->Increment();
      // Shard identity + trace id make the warn line joinable against the
      // per-tenant RED series and a `stpt_serve trace` fetch.
      obs::Log(obs::LogLevel::kWarn, "serve", "slow batch",
               {{"queries", std::to_string(batch.size())},
                {"wall_ns", std::to_string(batch_ns)},
                {"threshold_ns", std::to_string(kSlowBatchNs)},
                {"tenant", tenant_},
                {"tile", tile_},
                {"epoch", std::to_string(epoch_)},
                {"trace_id", sampled ? obs::TraceIdHex(*ctx) : ""}});
    }
    return answers;
  }

  void SetShardIdentity(const std::string& tenant, const std::string& tile,
                        uint64_t epoch) {
    tenant_ = tenant;
    tile_ = tile;
    epoch_ = epoch;
  }

  ServerStats stats() const {
    ServerStats s;
    s.queries = queries_->Value();
    s.invalid = invalid_->Value();
    s.p50_ns = static_cast<uint64_t>(latency_->Quantile(0.50));
    s.p99_ns = static_cast<uint64_t>(latency_->Quantile(0.99));
    return s;
  }

 private:
  SnapshotMeta meta_;
  grid::PrefixSum3D prefix_;
  // Per-instance registry; the handles below are resolved once in the
  // constructor and are lock-free thereafter.
  obs::Registry registry_;
  obs::Counter* queries_ = nullptr;
  obs::Counter* invalid_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* slow_batches_ = nullptr;
  obs::Histogram* latency_ = nullptr;
  // Shard identity, written once by the registry before the generation is
  // published (never mutated while queries run).
  std::string tenant_;
  std::string tile_;
  uint64_t epoch_ = 0;
};

QueryServer::QueryServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
QueryServer::QueryServer(QueryServer&&) noexcept = default;
QueryServer& QueryServer::operator=(QueryServer&&) noexcept = default;
QueryServer::~QueryServer() = default;

StatusOr<QueryServer> QueryServer::Create(Snapshot snapshot) {
  auto prefix =
      grid::PrefixSum3D::FromRaw(snapshot.sanitized.dims(), std::move(snapshot.prefix));
  if (!prefix.ok()) return prefix.status();
  return Create(std::move(snapshot.meta), std::move(*prefix));
}

QueryServer QueryServer::Create(SnapshotMeta meta, grid::PrefixSum3D prefix) {
  return QueryServer(std::make_unique<Impl>(std::move(meta), std::move(prefix)));
}

const grid::Dims& QueryServer::dims() const { return impl_->dims(); }
const SnapshotMeta& QueryServer::meta() const { return impl_->meta(); }

StatusOr<QueryResponse> QueryServer::AnswerBatch(const query::Workload& batch) {
  return impl_->AnswerBatch(batch);
}

void QueryServer::SetShardIdentity(const std::string& tenant,
                                   const std::string& tile, uint64_t epoch) {
  impl_->SetShardIdentity(tenant, tile, epoch);
}

ServerStats QueryServer::stats() const { return impl_->stats(); }
obs::Registry& QueryServer::metrics() const { return impl_->metrics(); }

}  // namespace stpt::serve
