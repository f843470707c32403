#ifndef STPT_SERVE_WIRE_H_
#define STPT_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "grid/consumption_matrix.h"
#include "obs/trace_context.h"
#include "query/range_query.h"
#include "serve/snapshot.h"

namespace stpt::serve {

/// --- Framed TCP protocol --------------------------------------------------
///
/// Every message is one frame:
///
///   u32 LE  frame length L (= 1 + payload bytes, L >= 1, L <= kMaxFrameBytes)
///   u8      message type (MsgType)
///   ...     payload (message-specific, little-endian fixed width)
///
/// Payloads (`str` below is u32 length + bytes, names capped at
/// kMaxWireNameBytes, paths at kMaxWirePathBytes). Types 1 and 2 are
/// reserved; readers reject them like any unknown type. An empty tenant or
/// tile addresses the default shard (ResolveShardKey in serve/registry.h).
///   kStatsRequest     empty
///   kStatsResponse    u32 length + UTF-8 JSON (server stats)
///   kMetaRequest      str tenant, str tile (the kShardStatsRequest payload)
///   kMetaResponse     i32 cx cy ct, u32 algo length + bytes, f64 eps_total,
///                     eps_pattern, eps_sanitize, norm_min, norm_max,
///                     i32 t_train — of the addressed shard
///   kError            u32 length + UTF-8 message
///   kShutdown         empty (server acks with an empty kShutdown, then stops)
///   kMetricsRequest   empty
///   kMetricsResponse  u32 length + UTF-8 Prometheus text exposition
///                     (engine registry followed by the process-wide registry)
///   kQueryRequestV2   str tenant, str tile, u64 epoch (0 = current), u32
///                     count, then count x 6 i32 (x0 x1 y0 y1 t0 t1)
///   kQueryResponseV2  u64 epoch that answered, u32 count, count x f64
///                     answers (index-aligned)
///   kAdminRequest     u8 verb (AdminVerb), str tenant, str tile, str path
///                     (snapshot container path for load/swap; must be empty
///                     for unload)
///   kAdminResponse    u8 verb echoed, u64 epoch now published (0 after
///                     unload), str message
///   kShardStatsRequest  str tenant, str tile (both empty = all shards)
///   kShardStatsResponse str JSON (SnapshotRegistry::StatsJson)
///   kReadingBatch     str tenant, str tile, u32 count, then count x
///                     { u64 meter_id, i32 x, i32 y, i32 t, f64 kwh } — one
///                     live meter reading per tuple. kWh must be finite.
///   kReadingAck       u64 accepted, u64 rejected, u64 epoch currently
///                     published for the addressed shard (0 = none yet),
///                     then an OPTIONAL clamped-count field (u8 len = 8,
///                     u64 clamped) encoded only when clamped != 0 — absent
///                     reproduces the pre-clamping byte layout, the same
///                     interop pattern as the trace field below (the u8
///                     length disambiguates the two: 8 vs 33)
///   kTraceRequest     u32 limit (0 = all stored), str trace-id filter
///                     (32 hex chars, empty = all traces)
///   kTraceResponse    str JSON (obs::TraceStore::ToJson)
///
/// Trace context (`trace` below): every addressed request frame
/// (kQueryRequestV2, kAdminRequest, kReadingBatch) and its response
/// (kQueryResponseV2, kAdminResponse, kReadingAck) may end with ONE optional
/// trailing length-delimited trace-context field (see obs/trace_context.h
/// for the exact layout: u8 len, u8 flags, u64
/// trace_hi/trace_lo/span_id/start_ns).
/// Absent = untraced — an untraced frame's bytes are identical to the
/// pre-trace protocol, so old peers and untraced traffic interoperate
/// unchanged. Servers echo the request's context in the response.
///
/// A reader that sees a malformed frame (bad length, unknown type, short
/// payload) gets a non-OK Status and the connection is dropped; the peer's
/// other connections are unaffected.

enum class MsgType : uint8_t {
  // 1 and 2 are reserved (the retired unaddressed query frame and its
  // response): an old client may still send them, so no new message may
  // take their numbers.
  kStatsRequest = 3,
  kStatsResponse = 4,
  kMetaRequest = 5,
  kMetaResponse = 6,
  kError = 7,
  kShutdown = 8,
  kMetricsRequest = 9,
  kMetricsResponse = 10,
  kQueryRequestV2 = 11,
  kQueryResponseV2 = 12,
  kAdminRequest = 13,
  kAdminResponse = 14,
  kShardStatsRequest = 15,
  kShardStatsResponse = 16,
  kReadingBatch = 17,
  kReadingAck = 18,
  kTraceRequest = 19,
  kTraceResponse = 20,
};

/// Registry admin verbs carried by kAdminRequest.
enum class AdminVerb : uint8_t {
  kLoad = 1,
  kSwap = 2,
  kUnload = 3,
};

/// Index-aligned answers for one query batch (what QueryServer::AnswerBatch
/// returns and kQueryResponseV2 carries).
using QueryResponse = std::vector<double>;

/// Upper bound on one frame (1 MiB of queries is ~43k queries per batch).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<uint8_t> payload;
};

/// Snapshot dims + metadata as carried by kMetaResponse.
struct WireMeta {
  grid::Dims dims;
  SnapshotMeta meta;
};

/// Upper bound on tenant/tile names on the wire (mirrors the registry cap).
inline constexpr uint32_t kMaxWireNameBytes = 255;

/// Upper bound on the snapshot path in kAdminRequest.
inline constexpr uint32_t kMaxWirePathBytes = 4096;

/// kQueryRequestV2: a query batch addressed to one shard. Empty tenant and
/// tile mean the default shard; epoch 0 means the current generation.
struct TenantQueryRequest {
  std::string tenant;
  std::string tile;
  uint64_t epoch = 0;
  query::Workload batch;
  obs::TraceContext trace;  ///< optional; encoded only when trace.valid()

  bool operator==(const TenantQueryRequest&) const = default;
};

/// kQueryResponseV2: index-aligned answers plus the epoch that produced
/// them, so a client hammering across a hot-swap can tell generations apart.
struct TenantQueryResponse {
  uint64_t epoch = 0;
  QueryResponse answers;
  obs::TraceContext trace;  ///< request context echoed back

  bool operator==(const TenantQueryResponse&) const = default;
};

/// kAdminRequest: load/swap/unload one shard. `path` names a snapshot
/// container on the server's filesystem for load/swap and must be empty
/// for unload.
struct AdminRequest {
  AdminVerb verb = AdminVerb::kLoad;
  std::string tenant;
  std::string tile;
  std::string path;
  obs::TraceContext trace;  ///< optional; encoded only when trace.valid()

  bool operator==(const AdminRequest&) const = default;
};

/// kAdminResponse: the epoch now published for the shard (0 after unload).
struct AdminResponse {
  AdminVerb verb = AdminVerb::kLoad;
  uint64_t epoch = 0;
  std::string message;
  obs::TraceContext trace;  ///< request context echoed back

  bool operator==(const AdminResponse&) const = default;
};

/// kShardStatsRequest: filter for the per-shard stats JSON; empty strings
/// select every shard. kMetaRequest carries the same payload as the address
/// of the one shard it asks about, where empty strings mean the default
/// shard.
struct ShardStatsRequest {
  std::string tenant;
  std::string tile;

  bool operator==(const ShardStatsRequest&) const = default;
};

/// One live smart-meter reading: kwh consumed by `meter_id` at grid cell
/// (x, y) during timestep t. Fixed 28-byte wire layout inside kReadingBatch.
struct MeterReading {
  uint64_t meter_id = 0;
  int32_t x = 0;
  int32_t y = 0;
  int32_t t = 0;
  double kwh = 0.0;

  bool operator==(const MeterReading&) const = default;
};

/// kReadingBatch: readings addressed to one shard's ingest accumulator.
/// Empty tenant/tile address the default shard, like kQueryRequestV2.
struct ReadingBatch {
  std::string tenant;
  std::string tile;
  std::vector<MeterReading> readings;
  obs::TraceContext trace;  ///< optional; encoded only when trace.valid()

  bool operator==(const ReadingBatch&) const = default;
};

/// kReadingAck: per-batch admission counts plus the epoch currently
/// published for the addressed shard so feeders can watch republishes land.
/// `accepted + clamped + rejected` always equals the batch's reading count:
/// accepted entered the accumulator in full, clamped were admitted but had
/// excess kWh cut by the per-meter sensitivity cap (or duplicated a
/// (meter, cell, t) key already at its cap), rejected never touched it.
struct ReadingAck {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t epoch = 0;
  uint64_t clamped = 0;     ///< optional on the wire; 0 = pre-change layout
  obs::TraceContext trace;  ///< request context echoed back

  bool operator==(const ReadingAck&) const = default;
};

/// kTraceRequest: fetch recently completed sampled request traces from the
/// server's obs::TraceStore. `limit` keeps only the most recent N traces
/// (0 = all stored); a non-empty `trace_id` (32 lowercase hex chars) selects
/// one trace.
struct TraceFetchRequest {
  uint32_t limit = 0;
  std::string trace_id;

  bool operator==(const TraceFetchRequest&) const = default;
};

/// Upper bound on the kTraceRequest filter (a 128-bit id is 32 hex chars).
inline constexpr uint32_t kMaxWireTraceIdBytes = 64;

/// --- Payload codecs (pure, no I/O) ---------------------------------------

std::vector<uint8_t> EncodeString(const std::string& text);  // stats/metrics/error
StatusOr<std::string> DecodeString(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeMetaResponse(const WireMeta& meta);
StatusOr<WireMeta> DecodeMetaResponse(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeTenantQueryRequest(const TenantQueryRequest& request);
StatusOr<TenantQueryRequest> DecodeTenantQueryRequest(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeTenantQueryResponse(const TenantQueryResponse& response);
StatusOr<TenantQueryResponse> DecodeTenantQueryResponse(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeAdminRequest(const AdminRequest& request);
StatusOr<AdminRequest> DecodeAdminRequest(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeAdminResponse(const AdminResponse& response);
StatusOr<AdminResponse> DecodeAdminResponse(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeShardStatsRequest(const ShardStatsRequest& request);
StatusOr<ShardStatsRequest> DecodeShardStatsRequest(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeReadingBatch(const ReadingBatch& batch);
StatusOr<ReadingBatch> DecodeReadingBatch(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeReadingAck(const ReadingAck& ack);
StatusOr<ReadingAck> DecodeReadingAck(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeTraceFetchRequest(const TraceFetchRequest& request);
StatusOr<TraceFetchRequest> DecodeTraceFetchRequest(
    const std::vector<uint8_t>& payload);

/// --- Incremental frame decoding (event-loop read path) ---------------------

/// Accumulates nonblocking read() chunks and yields complete frames. The
/// same header/length/type validation as ReadFrame, but pull-based: the
/// event loop appends whatever the socket had and asks for frames until
/// Next returns false (need more bytes) or an error (drop the connection).
class FrameDecoder {
 public:
  /// Appends raw stream bytes.
  void Append(const uint8_t* data, size_t n);

  /// Extracts the next complete frame into `out`. Returns true when a
  /// frame was produced, false when more bytes are needed, and a Status
  /// error on a malformed stream (bad length or unknown type) — the
  /// decoder is then poisoned and the connection should be dropped.
  StatusOr<bool> Next(Frame* out);

  /// Bytes buffered but not yet consumed by Next.
  size_t buffered() const { return buf_.size() - off_; }

 private:
  std::vector<uint8_t> buf_;
  size_t off_ = 0;
  bool poisoned_ = false;
};

/// --- Frame I/O over a connected socket ------------------------------------

/// Writes one frame. Uses MSG_NOSIGNAL so a peer that hung up yields a
/// Status (kInternal, "connection closed by peer") instead of SIGPIPE.
Status WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& payload);

/// Reads one frame. Clean close before the first header byte returns
/// NotFound("connection closed") — the normal end-of-session signal; a close
/// mid-frame or an oversized/zero length returns InvalidArgument.
StatusOr<Frame> ReadFrame(int fd);

/// True for the Status ReadFrame returns on a clean peer close.
bool IsConnectionClosed(const Status& status);

}  // namespace stpt::serve

#endif  // STPT_SERVE_WIRE_H_
