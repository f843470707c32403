#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "serve/wire.h"
#include "targets.h"

namespace stpt::fuzz {
namespace {

void RequireCanonical(const char* what, const std::vector<uint8_t>& reencoded,
                      const std::vector<uint8_t>& payload) {
  if (reencoded != payload) {
    std::fprintf(stderr, "FuzzWire: accepted %s payload is not canonical "
                         "(in %zu bytes, out %zu bytes)\n",
                 what, payload.size(), reencoded.size());
    std::abort();
  }
}

/// Feeds the bytes through ReadFrame as a raw socket stream: whatever a
/// hostile client can put on the wire, the frame reader must turn into
/// frames or a Status. Bounded at 64 frames; the writer side is closed up
/// front so a short stream terminates cleanly.
void FuzzFrameStream(const uint8_t* data, size_t size) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return;
  size_t sent = 0;
  while (sent < size) {
    const ssize_t w = ::write(fds[0], data + sent, size - sent);
    if (w <= 0) break;
    sent += static_cast<size_t>(w);
  }
  ::shutdown(fds[0], SHUT_WR);
  for (int i = 0; i < 64; ++i) {
    auto frame = serve::ReadFrame(fds[1]);
    if (!frame.ok()) break;
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace

int FuzzWire(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t mode = data[0];
  const std::vector<uint8_t> payload(data + 1, data + size);
  switch (mode) {
    case 2: {
      auto text = serve::DecodeString(payload);
      if (text.ok()) {
        RequireCanonical("string", serve::EncodeString(*text), payload);
      }
      break;
    }
    case 3: {
      auto meta = serve::DecodeMetaResponse(payload);
      if (meta.ok()) {
        RequireCanonical("meta", serve::EncodeMetaResponse(*meta), payload);
      }
      break;
    }
    case 5: {
      auto request = serve::DecodeTenantQueryRequest(payload);
      if (request.ok()) {
        RequireCanonical("tenant query request",
                         serve::EncodeTenantQueryRequest(*request), payload);
      }
      break;
    }
    case 6: {
      auto response = serve::DecodeTenantQueryResponse(payload);
      if (response.ok()) {
        RequireCanonical("tenant query response",
                         serve::EncodeTenantQueryResponse(*response), payload);
      }
      break;
    }
    case 7: {
      auto admin = serve::DecodeAdminRequest(payload);
      if (admin.ok()) {
        RequireCanonical("admin request", serve::EncodeAdminRequest(*admin),
                         payload);
      }
      break;
    }
    case 8: {
      auto admin = serve::DecodeAdminResponse(payload);
      if (admin.ok()) {
        RequireCanonical("admin response", serve::EncodeAdminResponse(*admin),
                         payload);
      }
      break;
    }
    case 9: {
      auto stats = serve::DecodeShardStatsRequest(payload);
      if (stats.ok()) {
        RequireCanonical("shard stats request",
                         serve::EncodeShardStatsRequest(*stats), payload);
      }
      break;
    }
    case 10: {
      auto fetch = serve::DecodeTraceFetchRequest(payload);
      if (fetch.ok()) {
        RequireCanonical("trace fetch request",
                         serve::EncodeTraceFetchRequest(*fetch), payload);
      }
      break;
    }
    default:
      // Every other mode (0, 1 and 4 included) feeds the frame reader.
      // Socket traffic is slower than pure codec calls, so cap the stream
      // the frame reader sees. 64 KiB is plenty to cover every header and
      // length edge case.
      FuzzFrameStream(payload.data(), std::min<size_t>(payload.size(), 1 << 16));
      break;
  }
  return 0;
}

}  // namespace stpt::fuzz
