#include "serve/registry.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace stpt::serve {

size_t ShardKeyHash::operator()(const ShardKey& k) const {
  // FNV-1a over tenant, a separator that cannot appear in either name's
  // length prefix role, then tile.
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001B3ULL;
    }
    h ^= 0xFF;
    h *= 0x100000001B3ULL;
  };
  mix(k.tenant);
  mix(k.tile);
  return static_cast<size_t>(h);
}

namespace {

Status ValidateName(const char* what, const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument(std::string("registry: ") + what +
                                   " must not be empty");
  }
  if (name.size() > kMaxShardNameBytes) {
    return Status::InvalidArgument(std::string("registry: ") + what +
                                   " exceeds " +
                                   std::to_string(kMaxShardNameBytes) + " bytes");
  }
  return Status::OK();
}

Status ValidateKey(const ShardKey& key) {
  STPT_RETURN_IF_ERROR(ValidateName("tenant", key.tenant));
  return ValidateName("tile", key.tile);
}

StatusOr<std::shared_ptr<QueryServer>> BuildEngine(Snapshot snapshot) {
  auto engine = QueryServer::Create(std::move(snapshot));
  if (!engine.ok()) return engine.status();
  return std::make_shared<QueryServer>(std::move(*engine));
}

/// Records the registry half of a traced admin chain (load or swap) when the
/// caller holds a sampled context: the span chains the published epoch to the
/// ingest/publish (or admin-frame) span driving it.
void RecordAdminSpan(const char* name, const ShardKey& key, uint64_t epoch,
                     uint64_t start_ns) {
  const obs::TraceContext* ctx = obs::CurrentTraceContext();
  if (ctx == nullptr || !ctx->sampled) return;
  obs::TraceSpan span;
  span.trace_hi = ctx->trace_hi;
  span.trace_lo = ctx->trace_lo;
  span.span_id = obs::ChildSpanId(ctx->span_id, 1);
  span.parent_span_id = ctx->span_id;
  span.start_ns = start_ns;
  span.end_ns = obs::NowNanos();
  span.name = name;
  span.lane = "registry";
  span.attrs = {{"tenant", key.tenant},
                {"tile", key.tile},
                {"epoch", std::to_string(epoch)}};
  obs::TraceStore::Global().Add(std::move(span));
}

}  // namespace

SnapshotRegistry::SnapshotRegistry(SnapshotRegistryOptions options)
    : options_(std::move(options)) {
  shards_gauge_ =
      registry_.GetGauge("stpt_registry_shards", "Currently loaded shards");
  loads_ = registry_.GetCounter("stpt_registry_loads_total",
                                "Shards loaded since startup");
  swaps_ = registry_.GetCounter("stpt_registry_swaps_total",
                                "Generation hot-swaps since startup");
  unloads_ = registry_.GetCounter("stpt_registry_unloads_total",
                                  "Shards unloaded since startup");
  swap_latency_ = registry_.GetHistogram(
      "stpt_registry_swap_latency_ns",
      "Wall time of Swap/SwapFile, engine build included",
      obs::LatencyBucketsNs());
}

SnapshotRegistry::~SnapshotRegistry() = default;

StatusOr<std::unique_ptr<SnapshotRegistry>> SnapshotRegistry::Create(
    SnapshotRegistryOptions options) {
  if (options.max_shards < 1) {
    return Status::InvalidArgument("registry: max_shards must be >= 1, got " +
                                   std::to_string(options.max_shards));
  }
  return std::unique_ptr<SnapshotRegistry>(
      new SnapshotRegistry(std::move(options)));
}

StatusOr<uint64_t> SnapshotRegistry::Load(const ShardKey& key, Snapshot snapshot) {
  STPT_RETURN_IF_ERROR(ValidateKey(key));
  std::lock_guard<std::mutex> admin(admin_mu_);
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    if (shards_.contains(key)) {
      return Status::FailedPrecondition("registry: shard '" + key.tenant + "/" +
                                        key.tile + "' already loaded (use swap)");
    }
    if (shards_.size() >= static_cast<size_t>(options_.max_shards)) {
      return Status::ResourceExhausted(
          "registry: max_shards (" + std::to_string(options_.max_shards) +
          ") reached");
    }
  }
  const uint64_t start_ns = obs::NowNanos();
  auto engine = BuildEngine(std::move(snapshot));
  if (!engine.ok()) return engine.status();
  auto gen = std::make_shared<ShardGeneration>();
  gen->key = key;
  gen->epoch = 1;
  gen->engine = std::move(*engine);
  gen->engine->SetShardIdentity(key.tenant, key.tile, gen->epoch);
  {
    std::unique_lock<std::shared_mutex> lock(map_mu_);
    shards_.emplace(key, std::move(gen));
    shards_gauge_->Set(static_cast<double>(shards_.size()));
  }
  loads_->Increment();
  RecordAdminSpan("registry/load", key, uint64_t{1}, start_ns);
  return uint64_t{1};
}

StatusOr<uint64_t> SnapshotRegistry::LoadFile(const ShardKey& key,
                                              const std::string& path) {
  auto snapshot = ReadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  return Load(key, std::move(*snapshot));
}

StatusOr<uint64_t> SnapshotRegistry::Swap(const ShardKey& key, Snapshot snapshot) {
  STPT_RETURN_IF_ERROR(ValidateKey(key));
  std::lock_guard<std::mutex> admin(admin_mu_);
  const uint64_t start_ns = obs::NowNanos();
  uint64_t epoch = 0;
  {
    // admin_mu_ keeps the shard loaded, and its epoch fixed, until the flip.
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    auto it = shards_.find(key);
    if (it == shards_.end()) {
      return Status::NotFound("registry: shard '" + key.tenant + "/" + key.tile +
                              "' not loaded (use load)");
    }
    epoch = it->second->epoch + 1;
  }
  // Build the replacement engine with no data-plane lock held; queries keep
  // flowing against the old generation the whole time.
  auto engine = BuildEngine(std::move(snapshot));
  if (!engine.ok()) return engine.status();
  auto gen = std::make_shared<ShardGeneration>();
  gen->key = key;
  gen->epoch = epoch;
  gen->engine = std::move(*engine);
  gen->engine->SetShardIdentity(key.tenant, key.tile, epoch);
  // The RCU flip: one pointer exchange publishes the new generation. Batches
  // that already captured the old one finish on it; its engine is destroyed,
  // outside the lock, when the last such reference drops.
  std::shared_ptr<const ShardGeneration> old;
  {
    std::unique_lock<std::shared_mutex> lock(map_mu_);
    old = std::exchange(shards_.at(key), std::move(gen));
  }
  swaps_->Increment();
  swap_latency_->Observe(static_cast<double>(obs::NowNanos() - start_ns));
  RecordAdminSpan("registry/swap", key, epoch, start_ns);
  return epoch;
}

StatusOr<uint64_t> SnapshotRegistry::SwapFile(const ShardKey& key,
                                              const std::string& path) {
  auto snapshot = ReadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  return Swap(key, std::move(*snapshot));
}

Status SnapshotRegistry::Unload(const ShardKey& key) {
  STPT_RETURN_IF_ERROR(ValidateKey(key));
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::unique_lock<std::shared_mutex> lock(map_mu_);
  auto it = shards_.find(key);
  if (it == shards_.end()) {
    return Status::NotFound("registry: shard '" + key.tenant + "/" + key.tile +
                            "' not loaded");
  }
  shards_.erase(it);
  shards_gauge_->Set(static_cast<double>(shards_.size()));
  unloads_->Increment();
  return Status::OK();
}

StatusOr<std::shared_ptr<const ShardGeneration>> SnapshotRegistry::Route(
    const std::string& tenant, const std::string& tile, uint64_t epoch) const {
  std::shared_ptr<const ShardGeneration> gen;
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    auto it = shards_.find(ShardKey{tenant, tile});
    if (it == shards_.end()) {
      return Status::NotFound("registry: no shard for tenant '" + tenant +
                              "' tile '" + tile + "'");
    }
    gen = it->second;
  }
  if (epoch != 0 && epoch != gen->epoch) {
    return Status::NotFound("registry: epoch " + std::to_string(epoch) +
                            " of '" + tenant + "/" + tile +
                            "' is no longer published (current " +
                            std::to_string(gen->epoch) + ")");
  }
  return gen;
}

std::vector<ShardInfo> SnapshotRegistry::List() const {
  std::vector<std::shared_ptr<const ShardGeneration>> gens;
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    gens.reserve(shards_.size());
    for (const auto& [key, gen] : shards_) gens.push_back(gen);
  }
  std::vector<ShardInfo> out;
  out.reserve(gens.size());
  for (const auto& gen : gens) {
    ShardInfo info;
    info.key = gen->key;
    info.epoch = gen->epoch;
    info.dims = gen->engine->dims();
    info.meta = gen->engine->meta();
    info.stats = gen->engine->stats();
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(), [](const ShardInfo& a, const ShardInfo& b) {
    return a.key.tenant != b.key.tenant ? a.key.tenant < b.key.tenant
                                        : a.key.tile < b.key.tile;
  });
  return out;
}

std::string SnapshotRegistry::StatsJson(const std::string& tenant,
                                        const std::string& tile) const {
  std::ostringstream os;
  os << "{\"shards\": [";
  bool first = true;
  for (const ShardInfo& info : List()) {
    if (!tenant.empty() && info.key.tenant != tenant) continue;
    if (!tile.empty() && info.key.tile != tile) continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"tenant\": \"" << obs::JsonEscape(info.key.tenant)
       << "\", \"tile\": \"" << obs::JsonEscape(info.key.tile)
       << "\", \"epoch\": " << info.epoch
       << ", \"dims\": [" << info.dims.cx << ", " << info.dims.cy << ", "
       << info.dims.ct << "], \"algorithm\": \""
       << obs::JsonEscape(info.meta.algorithm)
       << "\", \"eps_total\": " << info.meta.eps_total
       << ", \"stats\": " << info.stats.ToJson() << "}";
  }
  os << "], \"loads_total\": " << loads_->Value()
     << ", \"swaps_total\": " << swaps_->Value()
     << ", \"unloads_total\": " << unloads_->Value() << "}";
  return os.str();
}

std::string SnapshotRegistry::ToPrometheusText() const {
  std::ostringstream os;
  os << registry_.ToPrometheusText();
  const std::vector<ShardInfo> shards = List();
  auto emit =[&os, &shards](const char* name, const char* help,
                             auto value_of) {
    os << "# HELP " << name << " " << help << "\n# TYPE " << name
       << " counter\n";
    for (const ShardInfo& info : shards) {
      // Tenant/tile names are client-controlled; escape them so a hostile
      // name cannot break out of the label quoting in the exposition text.
      os << name << "{tenant=\"" << obs::PromEscapeLabel(info.key.tenant)
         << "\",tile=\"" << obs::PromEscapeLabel(info.key.tile) << "\"} "
         << value_of(info) << "\n";
    }
  };
  emit("stpt_shard_epoch", "Currently published epoch per shard",
       [](const ShardInfo& i) { return i.epoch; });
  emit("stpt_shard_queries_total", "Queries answered per shard",
       [](const ShardInfo& i) { return i.stats.queries; });
  emit("stpt_shard_invalid_total", "Query batches rejected per shard",
       [](const ShardInfo& i) { return i.stats.invalid; });
  return os.str();
}

size_t SnapshotRegistry::shard_count() const {
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  return shards_.size();
}

obs::Registry& SnapshotRegistry::metrics() const { return registry_; }

}  // namespace stpt::serve
