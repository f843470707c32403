#ifndef STPT_SERVE_QUERY_SERVER_H_
#define STPT_SERVE_QUERY_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "grid/consumption_matrix.h"
#include "obs/metrics.h"
#include "query/range_query.h"
#include "serve/snapshot.h"
#include "serve/wire.h"

namespace stpt::serve {

/// Point-in-time serving counters. Latency percentiles come from a
/// log-scaled histogram of AnswerBatch() wall times (obs::NowNanos), one
/// observation per batch, so they are approximate to one power-of-two bucket.
struct ServerStats {
  uint64_t queries = 0;       ///< answered successfully
  uint64_t invalid = 0;       ///< batches rejected by validation
  uint64_t p50_ns = 0;        ///< median batch latency (bucket upper bound)
  uint64_t p99_ns = 0;        ///< 99th percentile batch latency

  /// Renders the stats as a small JSON object (used by the wire protocol).
  std::string ToJson() const;
};

/// Read-only range-query engine over one published snapshot.
///
/// Answers are O(1) per query via the snapshot's 3-D prefix sums and are
/// bit-identical to grid::PrefixSum3D::BoxSum over the sanitized matrix at
/// any thread count. Batches fan out on the stpt::exec pool. All methods are
/// thread-safe; one generation of a SnapshotRegistry shard owns one engine,
/// and the event-loop server's workers drive it concurrently.
///
/// Each engine owns a private obs::Registry (`stpt_serve_*` metrics) so that
/// several engines in one process — or in one test — never mix counters;
/// stats() is a typed view over the same registry handles, which keeps the
/// `stats` and `metrics` wire commands consistent by construction.
class QueryServer {
 public:
  /// Builds the engine from an in-memory snapshot (no file round-trip):
  /// Create(meta, prefix table). Fails when the table does not match the
  /// release's dims.
  static StatusOr<QueryServer> Create(Snapshot snapshot);

  /// Builds the engine from what it keeps of a release: its meta and its
  /// prefix table. The release matrix itself is never needed to answer.
  static QueryServer Create(SnapshotMeta meta, grid::PrefixSum3D prefix);

  QueryServer(QueryServer&&) noexcept;
  QueryServer& operator=(QueryServer&&) noexcept;
  ~QueryServer();

  const grid::Dims& dims() const;
  const SnapshotMeta& meta() const;

  /// Answers a batch in index order, in parallel on the exec pool. The
  /// whole batch is validated first; an invalid query fails the batch with
  /// InvalidArgument naming the offending index. Batches slower than 50 ms
  /// are counted in stpt_serve_slow_batches_total and logged at warn level.
  StatusOr<QueryResponse> AnswerBatch(const query::Workload& batch);

  /// Names the shard this engine serves (tenant/tile/epoch). Set by the
  /// SnapshotRegistry right after construction, before the generation is
  /// published, so slow-batch logs and traces can identify the shard. An
  /// engine used standalone keeps empty identity and logs as before.
  void SetShardIdentity(const std::string& tenant, const std::string& tile,
                        uint64_t epoch);

  /// Snapshot of the serving counters.
  ServerStats stats() const;

  /// This engine's private metric registry (thread-safe; valid for the
  /// engine's lifetime). Exported by the `metrics` wire command and by
  /// stpt_cli --metrics alongside the process-wide registry.
  obs::Registry& metrics() const;

 private:
  class Impl;
  explicit QueryServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace stpt::serve

#endif  // STPT_SERVE_QUERY_SERVER_H_
