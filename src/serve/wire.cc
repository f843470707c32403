#include "serve/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>

namespace stpt::serve {
namespace {

constexpr const char* kClosedMessage = "connection closed";

// Byte-wise append; see the matching note in snapshot.cc on why this is
// not vector::insert over a char* range.
void PutBytes(std::vector<uint8_t>& out, const void* src, size_t n) {
  const auto* p = static_cast<const uint8_t*>(src);
  for (size_t i = 0; i < n; ++i) out.push_back(p[i]);
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void PutI32(std::vector<uint8_t>& out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutF64(std::vector<uint8_t>& out, double v) {
  const uint64_t u = std::bit_cast<uint64_t>(v);
  PutU32(out, static_cast<uint32_t>(u));
  PutU32(out, static_cast<uint32_t>(u >> 32));
}

/// Bounds-checked reader over a payload (mirrors the snapshot Cursor).
class Cursor {
 public:
  explicit Cursor(const std::vector<uint8_t>& bytes) : data_(bytes.data()), size_(bytes.size()) {}

  size_t remaining() const { return size_ - off_; }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = static_cast<uint32_t>(data_[off_]) |
         static_cast<uint32_t>(data_[off_ + 1]) << 8 |
         static_cast<uint32_t>(data_[off_ + 2]) << 16 |
         static_cast<uint32_t>(data_[off_ + 3]) << 24;
    off_ += 4;
    return true;
  }

  bool ReadI32(int32_t* v) {
    uint32_t u = 0;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }

  bool ReadF64(double* v) {
    uint32_t lo = 0, hi = 0;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = std::bit_cast<double>(static_cast<uint64_t>(hi) << 32 | lo);
    return true;
  }

  bool ReadBytes(void* dst, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, data_ + off_, n);
    off_ += n;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t off_ = 0;
};

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("wire: malformed ") + what);
}

/// The one frame-type check behind FrameDecoder::Next and ReadFrame. The
/// reserved types 1 and 2 fail it like any other unknown type.
bool KnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(MsgType::kStatsRequest) &&
         type <= static_cast<uint8_t>(MsgType::kTraceResponse);
}

/// Loops a full read over partial recv()s. Returns the number of bytes
/// read: n on success, 0 on clean close before the first byte, and -1 on
/// error or mid-buffer close.
ssize_t ReadFully(int fd, uint8_t* dst, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, dst + got, n - got, 0);
    if (r == 0) return got == 0 ? 0 : -1;
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

Status WriteFully(int fd, const uint8_t* src, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, src + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("wire: connection closed by peer during write");
    }
    sent += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeString(const std::string& text) {
  std::vector<uint8_t> out;
  out.reserve(4 + text.size());
  PutU32(out, static_cast<uint32_t>(text.size()));
  PutBytes(out, text.data(), text.size());
  return out;
}

StatusOr<std::string> DecodeString(const std::vector<uint8_t>& payload) {
  Cursor cur(payload);
  uint32_t len = 0;
  if (!cur.ReadU32(&len)) return Malformed("string header");
  if (len != cur.remaining()) return Malformed("string length");
  std::string text(len, '\0');
  if (len > 0 && !cur.ReadBytes(text.data(), len)) return Malformed("string body");
  return text;
}

std::vector<uint8_t> EncodeMetaResponse(const WireMeta& meta) {
  std::vector<uint8_t> out;
  PutI32(out, meta.dims.cx);
  PutI32(out, meta.dims.cy);
  PutI32(out, meta.dims.ct);
  PutU32(out, static_cast<uint32_t>(meta.meta.algorithm.size()));
  PutBytes(out, meta.meta.algorithm.data(), meta.meta.algorithm.size());
  PutF64(out, meta.meta.eps_total);
  PutF64(out, meta.meta.eps_pattern);
  PutF64(out, meta.meta.eps_sanitize);
  PutF64(out, meta.meta.norm_min);
  PutF64(out, meta.meta.norm_max);
  PutI32(out, meta.meta.t_train);
  return out;
}

StatusOr<WireMeta> DecodeMetaResponse(const std::vector<uint8_t>& payload) {
  Cursor cur(payload);
  WireMeta meta;
  if (!cur.ReadI32(&meta.dims.cx) || !cur.ReadI32(&meta.dims.cy) ||
      !cur.ReadI32(&meta.dims.ct)) {
    return Malformed("meta dims");
  }
  uint32_t algo_len = 0;
  if (!cur.ReadU32(&algo_len)) return Malformed("meta header");
  if (algo_len > cur.remaining()) return Malformed("meta algorithm length");
  meta.meta.algorithm.resize(algo_len);
  if (algo_len > 0 && !cur.ReadBytes(meta.meta.algorithm.data(), algo_len)) {
    return Malformed("meta algorithm");
  }
  if (!cur.ReadF64(&meta.meta.eps_total) || !cur.ReadF64(&meta.meta.eps_pattern) ||
      !cur.ReadF64(&meta.meta.eps_sanitize) || !cur.ReadF64(&meta.meta.norm_min) ||
      !cur.ReadF64(&meta.meta.norm_max) || !cur.ReadI32(&meta.meta.t_train)) {
    return Malformed("meta body");
  }
  if (cur.remaining() != 0) return Malformed("meta trailing bytes");
  return meta;
}

namespace {

// Shared helpers for the addressed codecs: length-prefixed strings with a
// hard cap, so hostile frames cannot smuggle oversized names into the
// registry.
void PutString(std::vector<uint8_t>& out, const std::string& text) {
  PutU32(out, static_cast<uint32_t>(text.size()));
  PutBytes(out, text.data(), text.size());
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

bool ReadU64(Cursor& cur, uint64_t* v) {
  uint32_t lo = 0, hi = 0;
  if (!cur.ReadU32(&lo) || !cur.ReadU32(&hi)) return false;
  *v = static_cast<uint64_t>(hi) << 32 | lo;
  return true;
}

bool ReadCappedString(Cursor& cur, uint32_t cap, std::string* out) {
  uint32_t len = 0;
  if (!cur.ReadU32(&len)) return false;
  if (len > cap || len > cur.remaining()) return false;
  out->resize(len);
  return len == 0 || cur.ReadBytes(out->data(), len);
}

bool ReadQueryBody(Cursor& cur, query::Workload* batch) {
  uint32_t count = 0;
  if (!cur.ReadU32(&count)) return false;
  // The body may be followed only by an optional trace-context field, so the
  // count still cannot lie: anything else trailing fails ReadTrailingTrace.
  if (static_cast<size_t>(count) * 24 > cur.remaining()) return false;
  batch->resize(count);
  for (query::RangeQuery& q : *batch) {
    if (!cur.ReadI32(&q.x0) || !cur.ReadI32(&q.x1) || !cur.ReadI32(&q.y0) ||
        !cur.ReadI32(&q.y1) || !cur.ReadI32(&q.t0) || !cur.ReadI32(&q.t1)) {
      return false;
    }
  }
  return true;
}

/// Consumes the rest of the payload as the optional trace-context field:
/// zero remaining bytes = untraced, exactly one well-formed field = traced,
/// anything else = malformed. Strictness keeps the codecs canonical — every
/// accepted payload re-encodes byte-identically.
bool ReadTrailingTrace(Cursor& cur, obs::TraceContext* out) {
  *out = obs::TraceContext{};
  if (cur.remaining() == 0) return true;
  if (cur.remaining() != obs::kTraceFieldBytes) return false;
  uint8_t buf[obs::kTraceFieldBytes];
  if (!cur.ReadBytes(buf, sizeof buf)) return false;
  return obs::DecodeTraceField(buf, sizeof buf, out);
}

}  // namespace

std::vector<uint8_t> EncodeTenantQueryRequest(const TenantQueryRequest& request) {
  std::vector<uint8_t> out;
  out.reserve(24 + request.tenant.size() + request.tile.size() +
              request.batch.size() * 24);
  PutString(out, request.tenant);
  PutString(out, request.tile);
  PutU64(out, request.epoch);
  PutU32(out, static_cast<uint32_t>(request.batch.size()));
  for (const query::RangeQuery& q : request.batch) {
    PutI32(out, q.x0);
    PutI32(out, q.x1);
    PutI32(out, q.y0);
    PutI32(out, q.y1);
    PutI32(out, q.t0);
    PutI32(out, q.t1);
  }
  obs::AppendTraceField(out, request.trace);
  return out;
}

StatusOr<TenantQueryRequest> DecodeTenantQueryRequest(
    const std::vector<uint8_t>& payload) {
  Cursor cur(payload);
  TenantQueryRequest request;
  if (!ReadCappedString(cur, kMaxWireNameBytes, &request.tenant)) {
    return Malformed("v2 query tenant");
  }
  if (!ReadCappedString(cur, kMaxWireNameBytes, &request.tile)) {
    return Malformed("v2 query tile");
  }
  if (!ReadU64(cur, &request.epoch)) return Malformed("v2 query epoch");
  if (!ReadQueryBody(cur, &request.batch)) return Malformed("v2 query body");
  if (!ReadTrailingTrace(cur, &request.trace)) {
    return Malformed("v2 query trace field");
  }
  return request;
}

std::vector<uint8_t> EncodeTenantQueryResponse(const TenantQueryResponse& response) {
  std::vector<uint8_t> out;
  out.reserve(12 + response.answers.size() * 8);
  PutU64(out, response.epoch);
  PutU32(out, static_cast<uint32_t>(response.answers.size()));
  for (double a : response.answers) PutF64(out, a);
  obs::AppendTraceField(out, response.trace);
  return out;
}

StatusOr<TenantQueryResponse> DecodeTenantQueryResponse(
    const std::vector<uint8_t>& payload) {
  Cursor cur(payload);
  TenantQueryResponse response;
  if (!ReadU64(cur, &response.epoch)) return Malformed("v2 response epoch");
  uint32_t count = 0;
  if (!cur.ReadU32(&count)) return Malformed("v2 response header");
  if (static_cast<size_t>(count) * 8 > cur.remaining()) {
    return Malformed("v2 response length");
  }
  response.answers.resize(count);
  for (double& a : response.answers) {
    if (!cur.ReadF64(&a)) return Malformed("v2 response body");
  }
  if (!ReadTrailingTrace(cur, &response.trace)) {
    return Malformed("v2 response trace field");
  }
  return response;
}

std::vector<uint8_t> EncodeAdminRequest(const AdminRequest& request) {
  std::vector<uint8_t> out;
  out.reserve(13 + request.tenant.size() + request.tile.size() +
              request.path.size());
  out.push_back(static_cast<uint8_t>(request.verb));
  PutString(out, request.tenant);
  PutString(out, request.tile);
  PutString(out, request.path);
  obs::AppendTraceField(out, request.trace);
  return out;
}

StatusOr<AdminRequest> DecodeAdminRequest(const std::vector<uint8_t>& payload) {
  Cursor cur(payload);
  uint8_t verb = 0;
  if (!cur.ReadBytes(&verb, 1)) return Malformed("admin verb");
  if (verb < static_cast<uint8_t>(AdminVerb::kLoad) ||
      verb > static_cast<uint8_t>(AdminVerb::kUnload)) {
    return Malformed("admin verb value");
  }
  AdminRequest request;
  request.verb = static_cast<AdminVerb>(verb);
  if (!ReadCappedString(cur, kMaxWireNameBytes, &request.tenant)) {
    return Malformed("admin tenant");
  }
  if (!ReadCappedString(cur, kMaxWireNameBytes, &request.tile)) {
    return Malformed("admin tile");
  }
  if (!ReadCappedString(cur, kMaxWirePathBytes, &request.path)) {
    return Malformed("admin path");
  }
  if (!ReadTrailingTrace(cur, &request.trace)) {
    return Malformed("admin trace field");
  }
  if (request.verb == AdminVerb::kUnload && !request.path.empty()) {
    return Malformed("admin unload path (must be empty)");
  }
  if (request.verb != AdminVerb::kUnload && request.path.empty()) {
    return Malformed("admin path (must not be empty)");
  }
  return request;
}

std::vector<uint8_t> EncodeAdminResponse(const AdminResponse& response) {
  std::vector<uint8_t> out;
  out.reserve(13 + response.message.size());
  out.push_back(static_cast<uint8_t>(response.verb));
  PutU64(out, response.epoch);
  PutString(out, response.message);
  obs::AppendTraceField(out, response.trace);
  return out;
}

StatusOr<AdminResponse> DecodeAdminResponse(const std::vector<uint8_t>& payload) {
  Cursor cur(payload);
  uint8_t verb = 0;
  if (!cur.ReadBytes(&verb, 1)) return Malformed("admin response verb");
  if (verb < static_cast<uint8_t>(AdminVerb::kLoad) ||
      verb > static_cast<uint8_t>(AdminVerb::kUnload)) {
    return Malformed("admin response verb value");
  }
  AdminResponse response;
  response.verb = static_cast<AdminVerb>(verb);
  if (!ReadU64(cur, &response.epoch)) return Malformed("admin response epoch");
  uint32_t len = 0;
  if (!cur.ReadU32(&len)) return Malformed("admin response header");
  if (len > cur.remaining()) return Malformed("admin response length");
  response.message.resize(len);
  if (len > 0 && !cur.ReadBytes(response.message.data(), len)) {
    return Malformed("admin response body");
  }
  if (!ReadTrailingTrace(cur, &response.trace)) {
    return Malformed("admin response trace field");
  }
  return response;
}

std::vector<uint8_t> EncodeShardStatsRequest(const ShardStatsRequest& request) {
  std::vector<uint8_t> out;
  out.reserve(8 + request.tenant.size() + request.tile.size());
  PutString(out, request.tenant);
  PutString(out, request.tile);
  return out;
}

StatusOr<ShardStatsRequest> DecodeShardStatsRequest(
    const std::vector<uint8_t>& payload) {
  Cursor cur(payload);
  ShardStatsRequest request;
  if (!ReadCappedString(cur, kMaxWireNameBytes, &request.tenant)) {
    return Malformed("shard stats tenant");
  }
  if (!ReadCappedString(cur, kMaxWireNameBytes, &request.tile)) {
    return Malformed("shard stats tile");
  }
  if (cur.remaining() != 0) return Malformed("shard stats trailing bytes");
  return request;
}

std::vector<uint8_t> EncodeReadingBatch(const ReadingBatch& batch) {
  std::vector<uint8_t> out;
  out.reserve(12 + batch.tenant.size() + batch.tile.size() +
              batch.readings.size() * 28);
  PutString(out, batch.tenant);
  PutString(out, batch.tile);
  PutU32(out, static_cast<uint32_t>(batch.readings.size()));
  for (const MeterReading& r : batch.readings) {
    PutU64(out, r.meter_id);
    PutI32(out, r.x);
    PutI32(out, r.y);
    PutI32(out, r.t);
    PutF64(out, r.kwh);
  }
  obs::AppendTraceField(out, batch.trace);
  return out;
}

StatusOr<ReadingBatch> DecodeReadingBatch(const std::vector<uint8_t>& payload) {
  Cursor cur(payload);
  ReadingBatch batch;
  if (!ReadCappedString(cur, kMaxWireNameBytes, &batch.tenant)) {
    return Malformed("reading batch tenant");
  }
  if (!ReadCappedString(cur, kMaxWireNameBytes, &batch.tile)) {
    return Malformed("reading batch tile");
  }
  uint32_t count = 0;
  if (!cur.ReadU32(&count)) return Malformed("reading batch header");
  if (static_cast<size_t>(count) * 28 > cur.remaining()) {
    return Malformed("reading batch length");
  }
  batch.readings.resize(count);
  for (MeterReading& r : batch.readings) {
    if (!ReadU64(cur, &r.meter_id) || !cur.ReadI32(&r.x) ||
        !cur.ReadI32(&r.y) || !cur.ReadI32(&r.t) || !cur.ReadF64(&r.kwh)) {
      return Malformed("reading batch body");
    }
    // Non-finite consumption would poison every prefix sum it touches;
    // reject it at the codec so hostile feeders cannot corrupt a shard.
    if (!std::isfinite(r.kwh)) return Malformed("reading batch kwh (non-finite)");
  }
  if (!ReadTrailingTrace(cur, &batch.trace)) {
    return Malformed("reading batch trace field");
  }
  return batch;
}

namespace {

/// Length byte of the optional trailing clamped-count field on kReadingAck.
/// Distinct from obs::kTraceFieldBytes - 1 (= 33), so a decoder can tell the
/// two optional fields apart by their first byte.
constexpr uint8_t kClampedFieldLen = 8;

}  // namespace

std::vector<uint8_t> EncodeReadingAck(const ReadingAck& ack) {
  std::vector<uint8_t> out;
  out.reserve(33);
  PutU64(out, ack.accepted);
  PutU64(out, ack.rejected);
  PutU64(out, ack.epoch);
  // Optional field, emitted only when nonzero so a clamp-free ack keeps the
  // pre-change byte layout and old peers interoperate unchanged.
  if (ack.clamped != 0) {
    out.push_back(kClampedFieldLen);
    PutU64(out, ack.clamped);
  }
  obs::AppendTraceField(out, ack.trace);
  return out;
}

StatusOr<ReadingAck> DecodeReadingAck(const std::vector<uint8_t>& payload) {
  Cursor cur(payload);
  ReadingAck ack;
  if (!ReadU64(cur, &ack.accepted) || !ReadU64(cur, &ack.rejected) ||
      !ReadU64(cur, &ack.epoch)) {
    return Malformed("reading ack body");
  }
  // The optional clamped field precedes the optional trace field, so the
  // only valid remainders are 0 (neither), 9 (clamped), 34 (trace), and 43
  // (both) — the sizes alone say whether a clamped field is present.
  const size_t clamped_bytes = 1 + sizeof(uint64_t);
  if (cur.remaining() == clamped_bytes ||
      cur.remaining() == clamped_bytes + obs::kTraceFieldBytes) {
    uint8_t len = 0;
    if (!cur.ReadBytes(&len, 1) || len != kClampedFieldLen ||
        !ReadU64(cur, &ack.clamped)) {
      return Malformed("reading ack clamped field");
    }
    // A present-but-zero field would re-encode without the field; reject it
    // so every accepted payload stays canonical.
    if (ack.clamped == 0) return Malformed("reading ack clamped field (zero)");
  }
  if (!ReadTrailingTrace(cur, &ack.trace)) {
    return Malformed("reading ack trace field");
  }
  return ack;
}

std::vector<uint8_t> EncodeTraceFetchRequest(const TraceFetchRequest& request) {
  std::vector<uint8_t> out;
  out.reserve(8 + request.trace_id.size());
  PutU32(out, request.limit);
  PutString(out, request.trace_id);
  return out;
}

StatusOr<TraceFetchRequest> DecodeTraceFetchRequest(
    const std::vector<uint8_t>& payload) {
  Cursor cur(payload);
  TraceFetchRequest request;
  if (!cur.ReadU32(&request.limit)) return Malformed("trace request limit");
  if (!ReadCappedString(cur, kMaxWireTraceIdBytes, &request.trace_id)) {
    return Malformed("trace request id");
  }
  if (cur.remaining() != 0) return Malformed("trace request trailing bytes");
  return request;
}

void FrameDecoder::Append(const uint8_t* data, size_t n) {
  // Compact lazily: only when the dead prefix dominates, so steady-state
  // appends are amortized O(n).
  if (off_ > 0 && off_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

StatusOr<bool> FrameDecoder::Next(Frame* out) {
  if (poisoned_) return Malformed("frame stream (already poisoned)");
  if (buffered() < 4) return false;
  const uint8_t* p = buf_.data() + off_;
  const uint32_t length = static_cast<uint32_t>(p[0]) |
                          static_cast<uint32_t>(p[1]) << 8 |
                          static_cast<uint32_t>(p[2]) << 16 |
                          static_cast<uint32_t>(p[3]) << 24;
  if (length < 1 || length > kMaxFrameBytes) {
    poisoned_ = true;
    return Malformed("frame length");
  }
  if (buffered() < 4 + static_cast<size_t>(length)) return false;
  const uint8_t type = p[4];
  if (!KnownFrameType(type)) {
    poisoned_ = true;
    return Malformed("frame type value");
  }
  out->type = static_cast<MsgType>(type);
  out->payload.assign(p + 5, p + 4 + length);
  off_ += 4 + static_cast<size_t>(length);
  return true;
}

Status WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& payload) {
  const uint64_t length = 1 + payload.size();
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument("wire: frame exceeds kMaxFrameBytes");
  }
  std::vector<uint8_t> frame;
  frame.reserve(4 + length);
  PutU32(frame, static_cast<uint32_t>(length));
  frame.push_back(static_cast<uint8_t>(type));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return WriteFully(fd, frame.data(), frame.size());
}

StatusOr<Frame> ReadFrame(int fd) {
  uint8_t header[4];
  const ssize_t got = ReadFully(fd, header, sizeof(header));
  if (got == 0) return Status::NotFound(kClosedMessage);
  if (got < 0) return Malformed("frame header (connection error or mid-frame close)");
  const uint32_t length = static_cast<uint32_t>(header[0]) |
                          static_cast<uint32_t>(header[1]) << 8 |
                          static_cast<uint32_t>(header[2]) << 16 |
                          static_cast<uint32_t>(header[3]) << 24;
  if (length < 1 || length > kMaxFrameBytes) return Malformed("frame length");
  uint8_t type = 0;
  if (ReadFully(fd, &type, 1) != 1) return Malformed("frame type");
  if (!KnownFrameType(type)) return Malformed("frame type value");
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload.resize(length - 1);
  if (!frame.payload.empty() &&
      ReadFully(fd, frame.payload.data(), frame.payload.size()) !=
          static_cast<ssize_t>(frame.payload.size())) {
    return Malformed("frame payload (truncated)");
  }
  return frame;
}

bool IsConnectionClosed(const Status& status) {
  return status.code() == StatusCode::kNotFound && status.message() == kClosedMessage;
}

}  // namespace stpt::serve
