#include "serve/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "obs/trace.h"

namespace stpt::serve {

StatusOr<Client> Client::Connect(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &result) != 0) {
    return Status::NotFound("client: cannot resolve '" + host + "'");
  }
  int fd = -1;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    return Status::Internal("client: cannot connect to " + host + ":" + service);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd);
}

Client::Client(Client&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<Frame> Client::Call(MsgType request, const std::vector<uint8_t>& payload,
                             MsgType expected_response) {
  if (fd_ < 0) return Status::FailedPrecondition("client: not connected");
  STPT_RETURN_IF_ERROR(WriteFrame(fd_, request, payload));
  auto frame = ReadFrame(fd_);
  if (!frame.ok()) return frame.status();
  if (frame->type == MsgType::kError) {
    auto message = DecodeString(frame->payload);
    return Status::Internal("server error: " +
                            (message.ok() ? *message : std::string("<unreadable>")));
  }
  if (frame->type != expected_response) {
    return Status::Internal("client: unexpected response type");
  }
  return frame;
}

StatusOr<TenantQueryResponse> Client::QueryTenant(const std::string& tenant,
                                                  const std::string& tile,
                                                  const query::Workload& batch,
                                                  uint64_t epoch,
                                                  obs::TraceContext trace) {
  TenantQueryRequest request;
  request.tenant = tenant;
  request.tile = tile;
  request.epoch = epoch;
  request.batch = batch;
  if (trace.valid() && trace.start_ns == 0) trace.start_ns = obs::NowNanos();
  request.trace = trace;
  auto frame = Call(MsgType::kQueryRequestV2, EncodeTenantQueryRequest(request),
                    MsgType::kQueryResponseV2);
  if (!frame.ok()) return frame.status();
  auto response = DecodeTenantQueryResponse(frame->payload);
  if (!response.ok()) return response.status();
  if (response->answers.size() != batch.size()) {
    return Status::Internal("client: answer count does not match batch");
  }
  return response;
}

StatusOr<uint64_t> Client::Admin(AdminVerb verb, const std::string& tenant,
                                 const std::string& tile,
                                 const std::string& path) {
  AdminRequest request;
  request.verb = verb;
  request.tenant = tenant;
  request.tile = tile;
  request.path = path;
  auto frame = Call(MsgType::kAdminRequest, EncodeAdminRequest(request),
                    MsgType::kAdminResponse);
  if (!frame.ok()) return frame.status();
  auto response = DecodeAdminResponse(frame->payload);
  if (!response.ok()) return response.status();
  if (response->verb != verb) {
    return Status::Internal("client: admin response echoes wrong verb");
  }
  return response->epoch;
}

StatusOr<uint64_t> Client::Load(const std::string& tenant,
                                const std::string& tile,
                                const std::string& path) {
  return Admin(AdminVerb::kLoad, tenant, tile, path);
}

StatusOr<uint64_t> Client::Swap(const std::string& tenant,
                                const std::string& tile,
                                const std::string& path) {
  return Admin(AdminVerb::kSwap, tenant, tile, path);
}

Status Client::Unload(const std::string& tenant, const std::string& tile) {
  auto epoch = Admin(AdminVerb::kUnload, tenant, tile, "");
  return epoch.ok() ? Status::OK() : epoch.status();
}

StatusOr<ReadingAck> Client::Ingest(const std::string& tenant,
                                    const std::string& tile,
                                    const std::vector<MeterReading>& readings,
                                    obs::TraceContext trace) {
  ReadingBatch batch;
  batch.tenant = tenant;
  batch.tile = tile;
  batch.readings = readings;
  if (trace.valid() && trace.start_ns == 0) trace.start_ns = obs::NowNanos();
  batch.trace = trace;
  auto frame =
      Call(MsgType::kReadingBatch, EncodeReadingBatch(batch), MsgType::kReadingAck);
  if (!frame.ok()) return frame.status();
  return DecodeReadingAck(frame->payload);
}

StatusOr<std::string> Client::ShardStats(const std::string& tenant,
                                         const std::string& tile) {
  auto frame = Call(MsgType::kShardStatsRequest,
                    EncodeShardStatsRequest({tenant, tile}),
                    MsgType::kShardStatsResponse);
  if (!frame.ok()) return frame.status();
  return DecodeString(frame->payload);
}

StatusOr<WireMeta> Client::Meta(const std::string& tenant,
                                const std::string& tile) {
  auto frame = Call(MsgType::kMetaRequest, EncodeShardStatsRequest({tenant, tile}),
                    MsgType::kMetaResponse);
  if (!frame.ok()) return frame.status();
  return DecodeMetaResponse(frame->payload);
}

StatusOr<std::string> Client::Stats() {
  auto frame = Call(MsgType::kStatsRequest, {}, MsgType::kStatsResponse);
  if (!frame.ok()) return frame.status();
  return DecodeString(frame->payload);
}

StatusOr<std::string> Client::Metrics() {
  auto frame = Call(MsgType::kMetricsRequest, {}, MsgType::kMetricsResponse);
  if (!frame.ok()) return frame.status();
  return DecodeString(frame->payload);
}

StatusOr<std::string> Client::FetchTraces(uint32_t limit,
                                          const std::string& trace_id) {
  TraceFetchRequest request;
  request.limit = limit;
  request.trace_id = trace_id;
  auto frame = Call(MsgType::kTraceRequest, EncodeTraceFetchRequest(request),
                    MsgType::kTraceResponse);
  if (!frame.ok()) return frame.status();
  return DecodeString(frame->payload);
}

Status Client::Shutdown() {
  auto frame = Call(MsgType::kShutdown, {}, MsgType::kShutdown);
  return frame.ok() ? Status::OK() : frame.status();
}

}  // namespace stpt::serve
