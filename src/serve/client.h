#ifndef STPT_SERVE_CLIENT_H_
#define STPT_SERVE_CLIENT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "query/range_query.h"
#include "serve/wire.h"

namespace stpt::serve {

/// Blocking client for the framed TCP protocol. One connection, one
/// outstanding request at a time; open several clients for concurrency
/// (each is cheap: a socket and nothing else). Not thread-safe — confine
/// each instance to one thread.
class Client {
 public:
  /// Connects to host:port (host is resolved via getaddrinfo, so both
  /// "127.0.0.1" and "localhost" work).
  static StatusOr<Client> Connect(const std::string& host, int port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Answers for each query of `batch`, index-aligned, from the addressed
  /// shard (kQueryRequestV2). Empty tenant/tile address the default shard;
  /// a server-side validation failure surfaces as the server's error
  /// Status. Epoch 0 accepts the current generation, a nonzero epoch fails
  /// with the server's NotFound if that generation was swapped out. The
  /// response carries the epoch that answered. A valid `trace`
  /// context rides the frame (start_ns stamped at send if unset) and is
  /// echoed in the response; a default-constructed one leaves the frame
  /// byte-identical to the pre-trace protocol.
  StatusOr<TenantQueryResponse> QueryTenant(const std::string& tenant,
                                            const std::string& tile,
                                            const query::Workload& batch,
                                            uint64_t epoch = 0,
                                            obs::TraceContext trace = {});

  /// Streams one batch of meter readings into the server's ingest pipeline
  /// (kReadingBatch frame). Empty tenant/tile address the default shard. An
  /// empty `readings` vector forces an epoch boundary (flush) for the
  /// addressed shard. Returns the ack: admission counts plus the epoch now
  /// published. Fails with the server's FailedPrecondition when the server
  /// runs without an ingest pipeline.
  /// `trace` behaves as in QueryTenant: valid contexts ride the frame and
  /// come back in the ack, default ones leave the bytes unchanged.
  StatusOr<ReadingAck> Ingest(const std::string& tenant, const std::string& tile,
                              const std::vector<MeterReading>& readings,
                              obs::TraceContext trace = {});

  /// Loads a snapshot container (server-side path) as a new shard.
  /// Returns the published epoch (1). FailedPrecondition-style server
  /// error if the shard already exists — use Swap.
  StatusOr<uint64_t> Load(const std::string& tenant, const std::string& tile,
                          const std::string& path);

  /// Hot-swaps an existing shard to a new snapshot container with zero
  /// dropped queries. Returns the new epoch.
  StatusOr<uint64_t> Swap(const std::string& tenant, const std::string& tile,
                          const std::string& path);

  /// Removes a shard; in-flight batches on the old generation finish.
  Status Unload(const std::string& tenant, const std::string& tile);

  /// Per-shard stats JSON (SnapshotRegistry::StatsJson). Empty strings
  /// select all shards.
  StatusOr<std::string> ShardStats(const std::string& tenant = "",
                                   const std::string& tile = "");

  /// Dims + snapshot metadata of the addressed shard. Empty tenant/tile
  /// address the default shard; a shard that is not loaded fails with the
  /// server's NotFound.
  StatusOr<WireMeta> Meta(const std::string& tenant = "",
                          const std::string& tile = "");

  /// Serving-counter JSON (ServerStats::ToJson).
  StatusOr<std::string> Stats();

  /// Full metric snapshot in Prometheus text exposition format: the
  /// engine's registry followed by the server process's global registry.
  StatusOr<std::string> Metrics();

  /// Fetches recently completed sampled traces from the server's span
  /// store as JSON (obs::TraceStore::ToJson shape). `limit` keeps the most
  /// recent N traces (0 = all stored); a non-empty `trace_id` (32 hex
  /// chars) selects one trace.
  StatusOr<std::string> FetchTraces(uint32_t limit = 0,
                                    const std::string& trace_id = "");

  /// Asks the server to stop; returns OK once the ack arrives.
  Status Shutdown();

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// One request/response round trip; maps kError frames to Status.
  StatusOr<Frame> Call(MsgType request, const std::vector<uint8_t>& payload,
                       MsgType expected_response);

  /// Shared load/swap/unload round trip; returns the published epoch.
  StatusOr<uint64_t> Admin(AdminVerb verb, const std::string& tenant,
                           const std::string& tile, const std::string& path);

  int fd_ = -1;
};

}  // namespace stpt::serve

#endif  // STPT_SERVE_CLIENT_H_
