#ifndef STPT_SERVE_REGISTRY_H_
#define STPT_SERVE_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "serve/query_server.h"
#include "serve/snapshot.h"

namespace stpt::serve {

/// The shard a request addresses when it leaves its tenant or tile empty.
inline constexpr const char* kDefaultTenant = "default";
inline constexpr const char* kDefaultTile = "0";

/// Upper bound on tenant/tile name length, shared with the wire codecs so
/// hostile frames cannot make the registry key arbitrarily large.
inline constexpr size_t kMaxShardNameBytes = 255;

/// Routing key for one served grid: which utility (tenant) and which
/// spatial tile of its fleet. The publication epoch is addressed
/// separately (see Route), because it changes on every hot-swap while the
/// key does not.
struct ShardKey {
  std::string tenant;
  std::string tile;

  bool operator==(const ShardKey&) const = default;
};

struct ShardKeyHash {
  size_t operator()(const ShardKey& k) const;
};

/// The shard a request names: an empty tenant or tile means kDefaultTenant
/// or kDefaultTile. The query, meta and ingest paths all resolve their
/// wire address through here.
inline ShardKey ResolveShardKey(const std::string& tenant,
                                const std::string& tile) {
  return {tenant.empty() ? kDefaultTenant : tenant,
          tile.empty() ? kDefaultTile : tile};
}

/// One immutable published generation of a shard. Queries capture a
/// shared_ptr to a generation once per batch, so a concurrent hot-swap can
/// never change (or free) the data under a batch that is already running:
/// the old generation stays alive until its last in-flight batch drops the
/// reference.
struct ShardGeneration {
  ShardKey key;
  uint64_t epoch = 0;  ///< monotonically increasing per shard, starts at 1
  std::shared_ptr<QueryServer> engine;
};

/// Summary row for List()/StatsJson().
struct ShardInfo {
  ShardKey key;
  uint64_t epoch = 0;
  grid::Dims dims;
  SnapshotMeta meta;
  ServerStats stats;
};

/// Validated by SnapshotRegistry::Create.
struct SnapshotRegistryOptions {
  /// Hard cap on concurrently loaded shards; Load fails with
  /// ResourceExhausted beyond it.
  int max_shards = 1024;
};

/// A multi-tenant shard router: maps (tenant, tile, epoch) to the query
/// engine serving that published grid.
///
/// Two planes with different locking:
///
/// * The **admin plane** (Load/Swap/Unload) is serialized by a mutex and
///   may do file I/O. Swap builds the replacement engine *outside* any
///   lock the data plane takes, then publishes it by exchanging one
///   shared_ptr under the map lock, held exclusively for that exchange
///   alone — an RCU-style flip. No query is ever dropped by a swap:
///   in-flight batches finish on the generation they captured, later
///   batches see the new one.
/// * The **data plane** (Route) takes a shared lock to find the shard and
///   copy its generation pointer. All engine state (prefix table,
///   counters) lives in the generation, so readers never wait on each
///   other.
///
/// The registry's own obs::Registry carries the admin/topology metrics
/// (shard count, load/swap/unload counters, swap-latency histogram);
/// per-shard serving counters live in each generation's engine registry
/// as before.
class SnapshotRegistry {
 public:
  static StatusOr<std::unique_ptr<SnapshotRegistry>> Create(
      SnapshotRegistryOptions options = {});

  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  /// Publishes a release, given as its meta and prefix table, as epoch 1
  /// of a new shard. Fails with FailedPrecondition if the key is already
  /// loaded (use Swap), with InvalidArgument for empty/oversized names, and
  /// with ResourceExhausted at max_shards. Returns the epoch (always 1).
  StatusOr<uint64_t> Load(const ShardKey& key, SnapshotMeta meta,
                          grid::PrefixSum3D prefix);
  /// Load of `snapshot`'s meta and prefix table; InvalidArgument when the
  /// table does not match the release's dims.
  StatusOr<uint64_t> Load(const ShardKey& key, Snapshot snapshot);
  StatusOr<uint64_t> LoadFile(const ShardKey& key, const std::string& path);

  /// Hot-swaps the current generation of an existing shard for a release
  /// given as its meta and prefix table, returning the new epoch
  /// (previous + 1). The flip itself is one pointer exchange; concurrent
  /// queries are never dropped. Fails with NotFound if the shard is not
  /// loaded (use Load).
  StatusOr<uint64_t> Swap(const ShardKey& key, SnapshotMeta meta,
                          grid::PrefixSum3D prefix);
  /// Swap to `snapshot`'s meta and prefix table; InvalidArgument when the
  /// table does not match the release's dims.
  StatusOr<uint64_t> Swap(const ShardKey& key, Snapshot snapshot);
  StatusOr<uint64_t> SwapFile(const ShardKey& key, const std::string& path);

  /// Removes a shard. In-flight batches on the final generation still
  /// finish (they hold the reference); new Route calls fail.
  Status Unload(const ShardKey& key);

  /// Resolves (tenant, tile, epoch) to the generation serving it.
  /// epoch 0 means "current". A nonzero epoch must match the currently
  /// published one — older epochs are gone once swapped out — otherwise
  /// NotFound describes whether the shard or the epoch is missing.
  StatusOr<std::shared_ptr<const ShardGeneration>> Route(
      const std::string& tenant, const std::string& tile,
      uint64_t epoch = 0) const;

  /// All loaded shards, sorted by (tenant, tile), with live counters.
  std::vector<ShardInfo> List() const;

  /// Registry-wide stats JSON: a "shards" array (one object per shard with
  /// key, epoch, dims, meta, and serving counters) plus admin totals.
  /// Pass non-empty `tenant` (and optionally `tile`) to filter.
  std::string StatsJson(const std::string& tenant = "",
                        const std::string& tile = "") const;

  /// Admin/topology metrics plus per-shard serving counters rendered as
  /// labeled Prometheus families (stpt_shard_*{tenant=...,tile=...}), so
  /// one scrape sees every tenant without name collisions between the
  /// per-engine registries.
  std::string ToPrometheusText() const;

  size_t shard_count() const;

  /// The admin-plane metric registry (valid for the registry's lifetime).
  obs::Registry& metrics() const;

  ~SnapshotRegistry();

 private:
  explicit SnapshotRegistry(SnapshotRegistryOptions options);

  SnapshotRegistryOptions options_;

  /// Guards shards_: the topology and each shard's current generation. The
  /// generation is a plain shared_ptr under this lock, not a
  /// std::atomic<std::shared_ptr>: libstdc++ 12's atomic load releases its
  /// lock bit with relaxed order, which ThreadSanitizer reports as a race
  /// with Swap.
  mutable std::shared_mutex map_mu_;
  std::unordered_map<ShardKey, std::shared_ptr<const ShardGeneration>,
                     ShardKeyHash>
      shards_;
  std::mutex admin_mu_;  ///< serializes Load/Swap/Unload end to end

  mutable obs::Registry registry_;
  obs::Gauge* shards_gauge_ = nullptr;
  obs::Counter* loads_ = nullptr;
  obs::Counter* swaps_ = nullptr;
  obs::Counter* unloads_ = nullptr;
  obs::Histogram* swap_latency_ = nullptr;
};

}  // namespace stpt::serve

#endif  // STPT_SERVE_REGISTRY_H_
