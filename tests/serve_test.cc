#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <latch>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "fuzz/fuzz_util.h"
#include "fuzz/targets.h"
#include "grid/consumption_matrix.h"
#include "gtest/gtest.h"
#include "query/range_query.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/query_server.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "serve/snapshot_internal.h"
#include "serve/wire.h"

namespace stpt::serve {
namespace {

grid::ConsumptionMatrix MakeMatrix(grid::Dims dims, uint64_t seed) {
  auto matrix = grid::ConsumptionMatrix::Create(dims);
  EXPECT_TRUE(matrix.ok());
  Rng rng(seed);
  for (double& v : matrix->mutable_data()) {
    // Mix magnitudes and signs so bit-identity checks are meaningful.
    v = rng.Gaussian(0.0, 100.0) + rng.Laplace(0.5);
  }
  return std::move(*matrix);
}

Snapshot MakeTestSnapshot(grid::Dims dims = {6, 5, 9}, uint64_t seed = 42) {
  SnapshotMeta meta;
  meta.algorithm = "stpt";
  meta.eps_total = 30.0;
  meta.eps_pattern = 10.0;
  meta.eps_sanitize = 20.0;
  meta.t_train = 100;
  return Snapshot::FromMatrix(MakeMatrix(dims, seed), meta);
}

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

query::Workload MakeQueries(const grid::Dims& dims, int count, uint64_t seed) {
  Rng rng(seed);
  auto wl = query::MakeWorkload(query::WorkloadKind::kRandom, dims, count, rng);
  EXPECT_TRUE(wl.ok());
  return std::move(*wl);
}

/// Patches `bytes` in place and rewrites the CRC trailer so that decoding
/// reaches the structural check under test instead of failing the CRC.
void Recrc(std::vector<uint8_t>& bytes) {
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  bytes[bytes.size() - 4] = static_cast<uint8_t>(crc);
  bytes[bytes.size() - 3] = static_cast<uint8_t>(crc >> 8);
  bytes[bytes.size() - 2] = static_cast<uint8_t>(crc >> 16);
  bytes[bytes.size() - 1] = static_cast<uint8_t>(crc >> 24);
}

/// Bit-at-a-time CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF),
/// one input byte per outer step: the reference for the sliced Crc32.
uint32_t ReferenceCrc32(const uint8_t* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Field-by-field little-endian encoder of the layout documented in
/// serve/snapshot.h: the reference the bulk codec must match byte for byte.
/// Version 1 also wrote the prefix table (count, then cells) after the
/// matrix; it is kept to build the containers v2 readers must refuse.
std::vector<uint8_t> ReferenceEncode(const Snapshot& snap,
                                     uint32_t version = kSnapshotVersion) {
  std::vector<uint8_t> out;
  auto put_u32 = [&](uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  auto put_u64 = [&](uint64_t v) {
    put_u32(static_cast<uint32_t>(v));
    put_u32(static_cast<uint32_t>(v >> 32));
  };
  auto put_f64 = [&](double v) { put_u64(std::bit_cast<uint64_t>(v)); };
  for (char c : {'S', 'T', 'P', 'T'}) out.push_back(static_cast<uint8_t>(c));
  put_u32(version);
  const grid::Dims& dims = snap.sanitized.dims();
  put_u32(static_cast<uint32_t>(dims.cx));
  put_u32(static_cast<uint32_t>(dims.cy));
  put_u32(static_cast<uint32_t>(dims.ct));
  put_u32(static_cast<uint32_t>(snap.meta.algorithm.size()));
  for (char c : snap.meta.algorithm) out.push_back(static_cast<uint8_t>(c));
  put_f64(snap.meta.eps_total);
  put_f64(snap.meta.eps_pattern);
  put_f64(snap.meta.eps_sanitize);
  put_f64(snap.meta.norm_min);
  put_f64(snap.meta.norm_max);
  put_u32(static_cast<uint32_t>(snap.meta.t_train));
  put_u64(snap.sanitized.size());
  for (double v : snap.sanitized.data()) put_f64(v);
  if (version == 1) {
    put_u64(snap.prefix.size());
    for (double v : snap.prefix) put_f64(v);
  }
  put_u32(ReferenceCrc32(out.data(), out.size()));
  return out;
}

/// Every field bit for bit, signed zeros and NaN payloads included. The
/// container stores no prefix table, so the decoded one must be exactly a
/// from-scratch build over the decoded release.
void ExpectSnapshotsBitIdentical(const Snapshot& got, const Snapshot& want) {
  EXPECT_EQ(got.meta.algorithm, want.meta.algorithm);
  EXPECT_EQ(got.meta.t_train, want.meta.t_train);
  EXPECT_TRUE(BitIdentical(got.meta.eps_total, want.meta.eps_total));
  EXPECT_TRUE(BitIdentical(got.meta.eps_pattern, want.meta.eps_pattern));
  EXPECT_TRUE(BitIdentical(got.meta.eps_sanitize, want.meta.eps_sanitize));
  EXPECT_TRUE(BitIdentical(got.meta.norm_min, want.meta.norm_min));
  EXPECT_TRUE(BitIdentical(got.meta.norm_max, want.meta.norm_max));
  EXPECT_EQ(got.sanitized.dims(), want.sanitized.dims());
  ASSERT_EQ(got.sanitized.size(), want.sanitized.size());
  EXPECT_EQ(0, std::memcmp(got.sanitized.data().data(), want.sanitized.data().data(),
                           want.sanitized.size() * sizeof(double)));
  const std::vector<double> rebuilt = grid::PrefixSum3D(got.sanitized).raw();
  ASSERT_EQ(got.prefix.size(), rebuilt.size());
  EXPECT_EQ(0, std::memcmp(got.prefix.data(), rebuilt.data(),
                           rebuilt.size() * sizeof(double)));
}

/// A container of every special double: signed zeros, a denormal, both
/// infinities and a NaN with a payload, in the matrix and the metadata.
Snapshot SpecialDoublesSnapshot() {
  const double specials[] = {
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::bit_cast<double>(uint64_t{0xFFF800000BADF00D}),  // -NaN, payload
      1.5,
  };
  constexpr size_t kSpecials = std::size(specials);
  Snapshot snap;
  snap.meta.algorithm = "hand-built";
  snap.meta.eps_total = 30.0;
  snap.meta.eps_pattern = -0.0;
  snap.meta.eps_sanitize = std::numeric_limits<double>::denorm_min();
  snap.meta.norm_min = -std::numeric_limits<double>::infinity();
  snap.meta.norm_max = specials[4];
  snap.meta.t_train = -3;
  auto matrix = grid::ConsumptionMatrix::Create({2, 3, 4});
  EXPECT_TRUE(matrix.ok());
  snap.sanitized = std::move(*matrix);
  std::vector<double>& cells = snap.sanitized.mutable_data();
  for (size_t i = 0; i < cells.size(); ++i) cells[i] = specials[i % kSpecials];
  return snap;
}

/// Creates (or truncates) `path` as a sparse regular file of `size` bytes.
bool MakeSparseFile(const std::string& path, uint64_t size) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  if (fd < 0) return false;
  const bool sized = ::ftruncate(fd, static_cast<off_t>(size)) == 0;
  return ::close(fd) == 0 && sized;
}

// --- Snapshot container ----------------------------------------------------

TEST(SnapshotTest, EncodeDecodeBitIdentity) {
  // A small shape and the ingest publish shape (32x32 grid, 168-slice
  // ring, 1.38 MB).
  for (const grid::Dims dims : {grid::Dims{6, 5, 9}, grid::Dims{32, 32, 168}}) {
    const Snapshot snap = MakeTestSnapshot(dims);
    const std::vector<uint8_t> bytes = EncodeSnapshot(snap);
    EXPECT_EQ(bytes, ReferenceEncode(snap));
    auto decoded = DecodeSnapshot(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSnapshotsBitIdentical(*decoded, snap);
  }
}

TEST(SnapshotTest, FileRoundTripBitIdentity) {
  // WriteSnapshot streams the header, the release in place and the CRC
  // trailer without building the container in memory, so the file itself
  // is pinned against the field-by-field reference encoder.
  const std::string path = testing::TempDir() + "/roundtrip.stpt";
  for (const Snapshot& snap : {MakeTestSnapshot({4, 7, 11}, 7),
                               MakeTestSnapshot({32, 32, 168}, 7),
                               SpecialDoublesSnapshot()}) {
    ASSERT_TRUE(WriteSnapshot(snap, path).ok());
    const auto file = fuzz::LoadCorpus(path);
    ASSERT_EQ(file.size(), 1u);
    EXPECT_EQ(file[0].bytes, ReferenceEncode(snap)) << snap.sanitized.size() << " cells";
    auto loaded = ReadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSnapshotsBitIdentical(*loaded, snap);
  }
}

TEST(SnapshotTest, NormalizationExtremaRecorded) {
  const Snapshot snap = MakeTestSnapshot();
  EXPECT_EQ(snap.meta.norm_min, snap.sanitized.MinValue());
  EXPECT_EQ(snap.meta.norm_max, snap.sanitized.MaxValue());
}

TEST(SnapshotTest, TruncationAndBitflipRejectedEverywhere) {
  // Exhaustive: every strict prefix and every single-bit corruption must be
  // rejected with a Status, never a crash. The sweep helper is shared with
  // the fuzz_snapshot_replay harness, so unit tests and corpus replay
  // exercise byte-identical robustness logic.
  const std::vector<uint8_t> bytes = EncodeSnapshot(MakeTestSnapshot({3, 3, 4}));
  const fuzz::SweepStats stats = fuzz::TruncationAndBitflipSweep(
      bytes, [](const uint8_t* data, size_t size) {
        return DecodeSnapshot(data, size).ok();
      });
  EXPECT_EQ(stats.accepted, 0u);
  // All prefixes plus eight flips per byte were actually tried.
  EXPECT_EQ(stats.cases, bytes.size() + 8 * bytes.size());
}

TEST(SnapshotTest, CheckedInCorpusReplaysClean) {
  // The seed corpus must decode without crashing; every committed crash-*
  // regression input must be rejected (each pins a fixed decoder bug).
  const auto corpus =
      fuzz::LoadCorpus(std::string(STPT_SOURCE_DIR) + "/fuzz/corpus/snapshot");
  ASSERT_FALSE(corpus.empty());
  size_t valid = 0;
  for (const auto& entry : corpus) {
    auto decoded = DecodeSnapshot(entry.bytes.data(), entry.bytes.size());
    if (entry.name.rfind("crash-", 0) == 0) {
      EXPECT_FALSE(decoded.ok()) << entry.name << " must stay rejected";
    }
    if (decoded.ok()) ++valid;
  }
  EXPECT_GE(valid, 3u) << "seed-valid-* containers should decode";
}

TEST(SnapshotTest, HugeDimsHeaderWithoutBodyRejected) {
  // Regression for fuzz/corpus/snapshot/crash-huge-dims-no-body.stpt: a
  // CRC-valid 80-byte container declaring 2048^3 cells used to reach the
  // 64 GiB matrix allocation before noticing the body bytes are missing.
  const auto corpus = fuzz::LoadCorpus(
      std::string(STPT_SOURCE_DIR) +
      "/fuzz/corpus/snapshot/crash-huge-dims-no-body.stpt");
  ASSERT_EQ(corpus.size(), 1u);
  auto decoded = DecodeSnapshot(corpus[0].bytes.data(), corpus[0].bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("truncated"), std::string::npos);
}

TEST(SnapshotTest, CorruptedByteFailsChecksum) {
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeTestSnapshot());
  bytes[bytes.size() / 2] ^= 0x10;  // one bit flip in the matrix payload
  auto decoded = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos);
}

TEST(SnapshotTest, TruncatedFileRejected) {
  const std::vector<uint8_t> bytes = EncodeSnapshot(MakeTestSnapshot());
  const std::string path = testing::TempDir() + "/truncated.stpt";
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(bytes.data(), 1, bytes.size() - 17, f);
  fclose(f);
  auto loaded = ReadSnapshot(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(SnapshotTest, BadMagicRejected) {
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeTestSnapshot());
  bytes[0] = 'X';
  Recrc(bytes);
  auto decoded = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
}

TEST(SnapshotTest, UnsupportedVersionRejected) {
  std::vector<uint8_t> bytes = EncodeSnapshot(MakeTestSnapshot());
  bytes[4] = 99;
  Recrc(bytes);
  auto decoded = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(SnapshotTest, V1ContainerRejectedByVersion) {
  // A CRC-valid container of the previous format, which stored the prefix
  // table after the release, built here and checked in as a corpus seed.
  const std::vector<uint8_t> built = ReferenceEncode(MakeTestSnapshot(), 1);
  const auto seed = fuzz::LoadCorpus(
      std::string(STPT_SOURCE_DIR) + "/fuzz/corpus/snapshot/seed-v1-rejected.stpt");
  ASSERT_EQ(seed.size(), 1u);
  for (const std::vector<uint8_t>& bytes : {built, seed[0].bytes}) {
    EXPECT_EQ(SnapshotVersion(bytes.data(), bytes.size()), 1u);
    auto decoded = DecodeSnapshot(bytes.data(), bytes.size());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("format version 1"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  auto loaded = ReadSnapshot(testing::TempDir() + "/does-not-exist.stpt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, FileLargerThanAnyContainerRejectedBeforeAllocating) {
  // Regression: a read buffer sized from a sparse 1 TiB file threw
  // bad_alloc and aborted the server on an admin load.
  const std::string path = testing::TempDir() + "/huge.stpt";
  ASSERT_TRUE(MakeSparseFile(path, internal::kMaxContainerBytes + 1));
  auto loaded = ReadSnapshot(path);
  ::unlink(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("larger than any container"), std::string::npos)
      << loaded.status().ToString();
}

TEST(SnapshotTest, NonRegularFilesRejectedWithoutBlocking) {
  // Regression: ext4 reports a directory's end offset as LONG_MAX, and a
  // read buffer sized from it terminated the server on an admin load.
  auto dir = ReadSnapshot(testing::TempDir());
  ASSERT_FALSE(dir.ok());
  EXPECT_EQ(dir.status().code(), StatusCode::kInvalidArgument);
  // A FIFO without a writer must not block the caller.
  const std::string fifo = testing::TempDir() + "/snapshot.fifo";
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  auto pipe = ReadSnapshot(fifo);
  ::unlink(fifo.c_str());
  ASSERT_FALSE(pipe.ok());
  EXPECT_EQ(pipe.status().code(), StatusCode::kInvalidArgument);
}

TEST(Crc32Test, CheckValueEmptyInputAndEveryTailAndAlignment) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Every path in running form: slice-by-16 always, and the PCLMULQDQ
  // folding path on CPUs that have it (Crc32 then takes it).
  std::vector<std::pair<std::string, internal::Crc32UpdateFn>> paths = {
      {"slice-by-16", &internal::Crc32UpdateSlice16}};
  if (internal::Crc32UpdateClmul() != nullptr) {
    paths.emplace_back("pclmul", internal::Crc32UpdateClmul());
  }
  auto checksum = [](internal::Crc32UpdateFn update, const uint8_t* p, size_t n) {
    return update(internal::kCrc32Init, p, n) ^ internal::kCrc32Init;
  };
  // Lengths 0-320 cover zero to five 64-byte fold steps, every count of
  // 16-byte folds after them and every byte tail; start offsets 0-15 cover
  // every alignment.
  Rng rng(17);
  std::vector<uint8_t> buf(15 + 320);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextUint64());
  for (size_t start = 0; start < 16; ++start) {
    for (size_t len = 0; len <= 320; ++len) {
      const uint32_t ref = ReferenceCrc32(buf.data() + start, len);
      EXPECT_EQ(Crc32(buf.data() + start, len), ref) << "start " << start << " length " << len;
      for (const auto& [name, update] : paths) {
        EXPECT_EQ(checksum(update, buf.data() + start, len), ref)
            << name << " start " << start << " length " << len;
      }
    }
  }
  // A container at the ingest publish shape, 1 376 350 bytes.
  Snapshot snap = MakeTestSnapshot({32, 32, 168});
  snap.meta.algorithm = "stream-w-event";
  const std::vector<uint8_t> container = ReferenceEncode(snap);
  ASSERT_EQ(container.size(), 1376350u);
  const size_t body = container.size() - 4;
  const uint32_t want = ReferenceCrc32(container.data(), body);
  EXPECT_EQ(Crc32(container.data(), body), want);
  for (const auto& [name, update] : paths) {
    EXPECT_EQ(checksum(update, container.data(), body), want) << name;
    // The running form over three pieces split at random points.
    for (int trial = 0; trial < 32; ++trial) {
      size_t a = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(body)));
      size_t b = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(body)));
      if (a > b) std::swap(a, b);
      uint32_t crc = update(internal::kCrc32Init, container.data(), a);
      crc = update(crc, container.data() + a, b - a);
      crc = update(crc, container.data() + b, body - b);
      EXPECT_EQ(crc ^ internal::kCrc32Init, want) << name << " split " << a << ", " << b;
    }
  }
}

TEST(SnapshotTest, SpecialDoublesEncodeLikeFieldByFieldReference) {
  const Snapshot snap = SpecialDoublesSnapshot();
  const std::vector<uint8_t> bytes = EncodeSnapshot(snap);
  EXPECT_EQ(bytes, ReferenceEncode(snap));
  auto decoded = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSnapshotsBitIdentical(*decoded, snap);
}

// --- QueryServer -----------------------------------------------------------

TEST(QueryServerTest, AnswersBitIdenticalToDirectEvaluation) {
  const grid::Dims dims{12, 10, 30};
  const Snapshot snap = MakeTestSnapshot(dims, 3);
  const grid::PrefixSum3D direct(snap.sanitized);
  auto server = QueryServer::Create(snap);
  ASSERT_TRUE(server.ok());
  const query::Workload wl = MakeQueries(dims, 500, 11);
  auto got = server->AnswerBatch(wl);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), wl.size());
  for (size_t i = 0; i < wl.size(); ++i) {
    const query::RangeQuery& q = wl[i];
    EXPECT_TRUE(BitIdentical((*got)[i],
                             direct.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1)));
  }
}

TEST(QueryServerTest, BatchIsBitIdenticalAtOneAndEightThreads) {
  const grid::Dims dims{9, 9, 25};
  const Snapshot snap = MakeTestSnapshot(dims, 21);
  const grid::PrefixSum3D direct(snap.sanitized);
  const query::Workload wl = MakeQueries(dims, 257, 23);
  const int prev_threads = exec::Threads();
  for (const int threads : {1, 8}) {
    // A fresh engine per thread count, so every answer is computed under
    // the thread count being checked.
    exec::SetThreads(threads);
    auto server = QueryServer::Create(snap);
    ASSERT_TRUE(server.ok());
    auto batched = server->AnswerBatch(wl);
    exec::SetThreads(prev_threads);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ASSERT_EQ(batched->size(), wl.size());
    for (size_t i = 0; i < wl.size(); ++i) {
      const query::RangeQuery& q = wl[i];
      EXPECT_TRUE(BitIdentical((*batched)[i],
                               direct.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1)))
          << "query " << i << " at " << threads << " threads";
    }
  }
}

TEST(QueryServerTest, InvalidQueriesRejected) {
  auto server = QueryServer::Create(MakeTestSnapshot({5, 5, 5}));
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server->AnswerBatch({{0, 5, 0, 0, 0, 0}}).ok());  // x1 == cx
  EXPECT_FALSE(server->AnswerBatch({{2, 1, 0, 0, 0, 0}}).ok());  // unordered
  EXPECT_FALSE(server->AnswerBatch({{0, 0, -1, 0, 0, 0}}).ok());

  auto batched = server->AnswerBatch({{0, 0, 0, 0, 0, 0}, {0, 9, 0, 0, 0, 0}});
  ASSERT_FALSE(batched.ok());
  EXPECT_NE(batched.status().message().find("query 1"), std::string::npos);
  EXPECT_EQ(server->stats().invalid, 4u);
}

TEST(QueryServerTest, StatsTrackLatencyAndResetClears) {
  auto server = QueryServer::Create(MakeTestSnapshot({6, 6, 12}));
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->AnswerBatch(MakeQueries({6, 6, 12}, 100, 31)).ok());
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.queries, 100u);
  EXPECT_GT(stats.p50_ns, 0u);
  EXPECT_GE(stats.p99_ns, stats.p50_ns);
  EXPECT_NE(stats.ToJson().find("\"queries\": 100"), std::string::npos);
}

TEST(QueryServerTest, OpenFromDiskServesLoadedPrefixSums) {
  const grid::Dims dims{7, 9, 14};
  const Snapshot snap = MakeTestSnapshot(dims, 37);
  const std::string path = testing::TempDir() + "/served.stpt";
  ASSERT_TRUE(WriteSnapshot(snap, path).ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto server = QueryServer::Create(std::move(*loaded));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(server->dims(), dims);
  EXPECT_EQ(server->meta().algorithm, "stpt");
  const grid::PrefixSum3D direct(snap.sanitized);
  const query::Workload wl = MakeQueries(dims, 200, 41);
  auto got = server->AnswerBatch(wl);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), wl.size());
  for (size_t i = 0; i < wl.size(); ++i) {
    const query::RangeQuery& q = wl[i];
    EXPECT_TRUE(BitIdentical((*got)[i],
                             direct.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1)));
  }
}

// --- Wire codecs -----------------------------------------------------------

TEST(WireTest, StringAndMetaRoundTrip) {
  auto text = DecodeString(EncodeString("hello stats"));
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "hello stats");

  WireMeta meta;
  meta.dims = {32, 32, 120};
  meta.meta.algorithm = "fourier10";
  meta.meta.eps_total = 12.5;
  meta.meta.eps_sanitize = 12.5;
  meta.meta.norm_min = -3.0;
  meta.meta.norm_max = 9.75;
  meta.meta.t_train = 100;
  auto decoded = DecodeMetaResponse(EncodeMetaResponse(meta));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->dims, meta.dims);
  EXPECT_EQ(decoded->meta, meta.meta);
}

TEST(WireTest, MalformedPayloadsRejected) {
  EXPECT_FALSE(DecodeTenantQueryRequest({0x01}).ok());  // short header
  TenantQueryRequest request;
  request.batch = MakeQueries({4, 4, 4}, 3, 1);
  std::vector<uint8_t> wrong_len = EncodeTenantQueryRequest(request);
  wrong_len.pop_back();
  EXPECT_FALSE(DecodeTenantQueryRequest(wrong_len).ok());
  // Epoch 0, then a count of 2^32 - 1 answers with no body.
  EXPECT_FALSE(
      DecodeTenantQueryResponse({0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
          .ok());
  EXPECT_FALSE(DecodeString({0x05, 0x00, 0x00, 0x00, 'a'}).ok());
  EXPECT_FALSE(DecodeMetaResponse({0x01, 0x02}).ok());
}

TEST(WireTest, CheckedInCorpusReplaysClean) {
  // Every committed wire corpus entry must run through the full harness
  // (codec selector + frame-stream path) without crashing.
  const auto corpus =
      fuzz::LoadCorpus(std::string(STPT_SOURCE_DIR) + "/fuzz/corpus/wire");
  ASSERT_FALSE(corpus.empty());
  for (const auto& entry : corpus) {
    fuzz::FuzzWire(entry.bytes.data(), entry.bytes.size());
  }
}

TEST(WireTest, FrameRoundTripOverSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<uint8_t> payload = EncodeString("ping");
  ASSERT_TRUE(WriteFrame(fds[0], MsgType::kStatsResponse, payload).ok());
  auto frame = ReadFrame(fds[1]);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, MsgType::kStatsResponse);
  EXPECT_EQ(frame->payload, payload);

  // Clean close reads as the dedicated "connection closed" status.
  ::close(fds[0]);
  auto closed = ReadFrame(fds[1]);
  ASSERT_FALSE(closed.ok());
  EXPECT_TRUE(IsConnectionClosed(closed.status()));
  ::close(fds[1]);
}

TEST(WireTest, MalformedFramesRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Zero-length frame.
  const uint8_t zero[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(fds[0], zero, 4, 0), 4);
  EXPECT_FALSE(ReadFrame(fds[1]).ok());
  // Oversized frame length.
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_EQ(::send(fds[0], huge, 4, 0), 4);
  EXPECT_FALSE(ReadFrame(fds[1]).ok());
  // Unknown message type, and the reserved types of the retired
  // unaddressed query frame.
  for (const uint8_t type : {uint8_t{0xEE}, uint8_t{1}, uint8_t{2}}) {
    const uint8_t unknown[5] = {1, 0, 0, 0, type};
    ASSERT_EQ(::send(fds[0], unknown, 5, 0), 5);
    EXPECT_FALSE(ReadFrame(fds[1]).ok()) << int{type};
  }
  // Truncated payload then close.
  const uint8_t partial[6] = {
      10, 0, 0, 0, static_cast<uint8_t>(MsgType::kQueryRequestV2), 0x42};
  ASSERT_EQ(::send(fds[0], partial, 6, 0), 6);
  ::close(fds[0]);
  auto truncated = ReadFrame(fds[1]);
  ASSERT_FALSE(truncated.ok());
  EXPECT_FALSE(IsConnectionClosed(truncated.status()));
  ::close(fds[1]);
}

/// Extracts the value of a Prometheus sample line `name value` from `text`.
/// Returns -1 when the metric is absent.
double PrometheusValue(const std::string& text, const std::string& name) {
  size_t pos = 0;
  const std::string needle = name + " ";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    // Must be at the start of a line (exposition samples, not HELP text).
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtod(text.c_str() + pos + needle.size(), nullptr);
    }
    pos += needle.size();
  }
  return -1.0;
}

// --- Wire v2 codecs --------------------------------------------------------

TEST(WireV2Test, TenantQueryRequestRoundTrip) {
  TenantQueryRequest request;
  request.tenant = "acme";
  request.tile = "tile-7";
  request.epoch = 42;
  request.batch = MakeQueries({16, 16, 32}, 20, 71);
  auto decoded = DecodeTenantQueryRequest(EncodeTenantQueryRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, request);

  // Empty names (default shard) and epoch 0 (current generation) are valid.
  TenantQueryRequest defaults;
  defaults.batch = MakeQueries({4, 4, 4}, 3, 73);
  auto decoded_defaults =
      DecodeTenantQueryRequest(EncodeTenantQueryRequest(defaults));
  ASSERT_TRUE(decoded_defaults.ok());
  EXPECT_EQ(*decoded_defaults, defaults);
}

TEST(WireV2Test, TenantQueryResponseRoundTripBitIdentical) {
  TenantQueryResponse response;
  response.epoch = 9;
  response.answers = {0.0, -1.5, 3.25e300, 5e-324, 42.0};
  auto decoded = DecodeTenantQueryResponse(EncodeTenantQueryResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->epoch, 9u);
  ASSERT_EQ(decoded->answers.size(), response.answers.size());
  for (size_t i = 0; i < response.answers.size(); ++i) {
    EXPECT_TRUE(BitIdentical(decoded->answers[i], response.answers[i]));
  }
}

TEST(WireV2Test, AdminRequestRoundTripAndValidation) {
  for (const AdminVerb verb : {AdminVerb::kLoad, AdminVerb::kSwap}) {
    AdminRequest request;
    request.verb = verb;
    request.tenant = "acme";
    request.tile = "0";
    request.path = "/var/lib/stpt/release.stpt";
    auto decoded = DecodeAdminRequest(EncodeAdminRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, request);
  }
  AdminRequest unload;
  unload.verb = AdminVerb::kUnload;
  unload.tenant = "acme";
  unload.tile = "0";
  auto decoded = DecodeAdminRequest(EncodeAdminRequest(unload));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, unload);

  // Semantic validation: unload must not carry a path, load/swap must.
  AdminRequest bad_unload = unload;
  bad_unload.path = "/some/path";
  EXPECT_FALSE(DecodeAdminRequest(EncodeAdminRequest(bad_unload)).ok());
  AdminRequest bad_load;
  bad_load.verb = AdminVerb::kLoad;
  EXPECT_FALSE(DecodeAdminRequest(EncodeAdminRequest(bad_load)).ok());

  // Out-of-range verb byte.
  std::vector<uint8_t> bytes = EncodeAdminRequest(unload);
  bytes[0] = 0;
  EXPECT_FALSE(DecodeAdminRequest(bytes).ok());
  bytes[0] = 4;
  EXPECT_FALSE(DecodeAdminRequest(bytes).ok());
}

TEST(WireV2Test, AdminResponseAndShardStatsRoundTrip) {
  AdminResponse response;
  response.verb = AdminVerb::kSwap;
  response.epoch = 17;
  response.message = "ok";
  auto decoded = DecodeAdminResponse(EncodeAdminResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, response);

  ShardStatsRequest stats;
  stats.tenant = "acme";
  stats.tile = "";
  auto decoded_stats = DecodeShardStatsRequest(EncodeShardStatsRequest(stats));
  ASSERT_TRUE(decoded_stats.ok());
  EXPECT_EQ(*decoded_stats, stats);
}

TEST(WireV2Test, OversizedNamesRejected) {
  TenantQueryRequest request;
  request.tenant = std::string(kMaxWireNameBytes + 1, 'x');
  request.batch = MakeQueries({4, 4, 4}, 1, 79);
  EXPECT_FALSE(
      DecodeTenantQueryRequest(EncodeTenantQueryRequest(request)).ok());

  AdminRequest admin;
  admin.verb = AdminVerb::kLoad;
  admin.path = std::string(kMaxWirePathBytes + 1, 'p');
  EXPECT_FALSE(DecodeAdminRequest(EncodeAdminRequest(admin)).ok());
}

TEST(WireV2Test, TruncationSweepRejectsEveryPrefix) {
  // Strict codecs: every strict prefix must fail, and no case may crash.
  TenantQueryRequest request;
  request.tenant = "acme";
  request.tile = "0";
  request.epoch = 3;
  request.batch = MakeQueries({6, 6, 8}, 4, 83);
  const std::vector<std::vector<uint8_t>> payloads = {
      EncodeTenantQueryRequest(request),
      EncodeTenantQueryResponse({5, {1.0, -2.0, 0.5}, {}}),
      EncodeAdminRequest({AdminVerb::kSwap, "acme", "0", "/tmp/a.stpt", {}}),
      EncodeAdminResponse({AdminVerb::kLoad, 1, "ok", {}}),
      EncodeShardStatsRequest({"acme", "0"}),
  };
  const std::vector<std::function<bool(const uint8_t*, size_t)>> decoders = {
      [](const uint8_t* d, size_t n) {
        return DecodeTenantQueryRequest({d, d + n}).ok();
      },
      [](const uint8_t* d, size_t n) {
        return DecodeTenantQueryResponse({d, d + n}).ok();
      },
      [](const uint8_t* d, size_t n) { return DecodeAdminRequest({d, d + n}).ok(); },
      [](const uint8_t* d, size_t n) { return DecodeAdminResponse({d, d + n}).ok(); },
      [](const uint8_t* d, size_t n) {
        return DecodeShardStatsRequest({d, d + n}).ok();
      },
  };
  for (size_t k = 0; k < payloads.size(); ++k) {
    size_t prefix_accepted = 0;
    const fuzz::SweepStats stats = fuzz::TruncationAndBitflipSweep(
        payloads[k], [&](const uint8_t* data, size_t size) {
          const bool ok = decoders[k](data, size);
          if (ok && size < payloads[k].size()) ++prefix_accepted;
          return ok;
        });
    EXPECT_GT(stats.cases, payloads[k].size()) << "payload " << k;
    EXPECT_EQ(prefix_accepted, 0u) << "payload " << k;
  }
}

TEST(FrameDecoderTest, ReassemblesFramesFromSingleByteChunks) {
  std::vector<uint8_t> stream;
  auto append_frame = [&stream](MsgType type, const std::vector<uint8_t>& payload) {
    const uint32_t length = static_cast<uint32_t>(1 + payload.size());
    stream.push_back(static_cast<uint8_t>(length));
    stream.push_back(static_cast<uint8_t>(length >> 8));
    stream.push_back(static_cast<uint8_t>(length >> 16));
    stream.push_back(static_cast<uint8_t>(length >> 24));
    stream.push_back(static_cast<uint8_t>(type));
    stream.insert(stream.end(), payload.begin(), payload.end());
  };
  TenantQueryRequest request;
  request.batch = MakeQueries({4, 4, 4}, 2, 89);
  const std::vector<uint8_t> query = EncodeTenantQueryRequest(request);
  append_frame(MsgType::kStatsRequest, {});
  append_frame(MsgType::kQueryRequestV2, query);
  append_frame(MsgType::kShardStatsRequest,
               EncodeShardStatsRequest({"a", "b"}));

  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const uint8_t byte : stream) {
    decoder.Append(&byte, 1);
    Frame frame;
    auto ready = decoder.Next(&frame);
    ASSERT_TRUE(ready.ok());
    if (*ready) frames.push_back(std::move(frame));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, MsgType::kStatsRequest);
  EXPECT_TRUE(frames[0].payload.empty());
  EXPECT_EQ(frames[1].type, MsgType::kQueryRequestV2);
  EXPECT_EQ(frames[1].payload, query);
  EXPECT_EQ(frames[2].type, MsgType::kShardStatsRequest);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, MalformedStreamPoisonsDecoder) {
  {  // zero frame length
    FrameDecoder decoder;
    const uint8_t zero[5] = {0, 0, 0, 0, 1};
    decoder.Append(zero, sizeof(zero));
    Frame frame;
    EXPECT_FALSE(decoder.Next(&frame).ok());
    EXPECT_FALSE(decoder.Next(&frame).ok());  // stays poisoned
  }
  {  // oversized frame length
    FrameDecoder decoder;
    const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};
    decoder.Append(huge, sizeof(huge));
    Frame frame;
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
  // Unknown message types, the reserved 1 and 2 included.
  for (const uint8_t type :
       {uint8_t{0xEE}, uint8_t{0}, uint8_t{1}, uint8_t{2}, uint8_t{21}}) {
    FrameDecoder decoder;
    const uint8_t unknown[5] = {1, 0, 0, 0, type};
    decoder.Append(unknown, sizeof(unknown));
    Frame frame;
    EXPECT_FALSE(decoder.Next(&frame).ok()) << int{type};
  }
}

// --- SnapshotRegistry ------------------------------------------------------

TEST(RegistryTest, LoadRouteSwapUnloadLifecycle) {
  const grid::Dims dims{8, 8, 10};
  const Snapshot snap_a = MakeTestSnapshot(dims, 11);
  const Snapshot snap_b = MakeTestSnapshot(dims, 22);
  const grid::PrefixSum3D direct_a(snap_a.sanitized);
  const grid::PrefixSum3D direct_b(snap_b.sanitized);

  auto registry = SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  const ShardKey key{"acme", "0"};
  auto epoch = (*registry)->Load(key, snap_a);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);
  EXPECT_EQ((*registry)->shard_count(), 1u);

  auto gen = (*registry)->Route("acme", "0");
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ((*gen)->epoch, 1u);
  const query::RangeQuery q{0, 3, 1, 4, 2, 7};
  auto a = (*gen)->engine->AnswerBatch({q});
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(BitIdentical((*a)[0], direct_a.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1)));

  auto swapped = (*registry)->Swap(key, snap_b);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(*swapped, 2u);
  auto gen2 = (*registry)->Route("acme", "0");
  ASSERT_TRUE(gen2.ok());
  EXPECT_EQ((*gen2)->epoch, 2u);
  auto b = (*gen2)->engine->AnswerBatch({q});
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(BitIdentical((*b)[0], direct_b.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1)));

  // Explicit-epoch routing: current matches, swapped-out epochs are gone.
  EXPECT_TRUE((*registry)->Route("acme", "0", 2).ok());
  auto stale = (*registry)->Route("acme", "0", 1);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);

  ASSERT_TRUE((*registry)->Unload(key).ok());
  EXPECT_EQ((*registry)->shard_count(), 0u);
  EXPECT_FALSE((*registry)->Route("acme", "0").ok());
  EXPECT_FALSE((*registry)->Unload(key).ok());  // already gone
}

TEST(RegistryTest, InFlightGenerationSurvivesSwapAndUnload) {
  const grid::Dims dims{6, 6, 8};
  const Snapshot snap_a = MakeTestSnapshot(dims, 31);
  const grid::PrefixSum3D direct_a(snap_a.sanitized);
  auto registry = SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  const ShardKey key{"t", "0"};
  ASSERT_TRUE((*registry)->Load(key, snap_a).ok());

  // A batch in flight captures the generation once; the swap and even the
  // unload must not pull the engine out from under it.
  auto held = (*registry)->Route("t", "0");
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE((*registry)->Swap(key, MakeTestSnapshot(dims, 32)).ok());
  ASSERT_TRUE((*registry)->Unload(key).ok());
  const query::RangeQuery q{1, 4, 0, 5, 2, 6};
  auto answer = (*held)->engine->AnswerBatch({q});
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(BitIdentical(
      (*answer)[0], direct_a.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1)));
  EXPECT_EQ((*held)->epoch, 1u);
}

TEST(RegistryTest, DuplicateLoadAndMissingSwapRejected) {
  auto registry = SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  const ShardKey key{"acme", "0"};
  ASSERT_TRUE((*registry)->Load(key, MakeTestSnapshot()).ok());

  auto dup = (*registry)->Load(key, MakeTestSnapshot());
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kFailedPrecondition);

  auto missing = (*registry)->Swap(ShardKey{"ghost", "0"}, MakeTestSnapshot());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, NamesAndOptionsValidated) {
  SnapshotRegistryOptions no_capacity;
  no_capacity.max_shards = 0;
  EXPECT_FALSE(SnapshotRegistry::Create(no_capacity).ok());

  auto registry = SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  EXPECT_FALSE((*registry)->Load(ShardKey{"", "0"}, MakeTestSnapshot()).ok());
  EXPECT_FALSE((*registry)->Load(ShardKey{"t", ""}, MakeTestSnapshot()).ok());
  const std::string oversized(kMaxShardNameBytes + 1, 'x');
  auto too_long = (*registry)->Load(ShardKey{oversized, "0"}, MakeTestSnapshot());
  ASSERT_FALSE(too_long.ok());
  EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, MaxShardsEnforced) {
  SnapshotRegistryOptions two_slots;
  two_slots.max_shards = 2;
  auto registry = SnapshotRegistry::Create(two_slots);
  ASSERT_TRUE(registry.ok());
  ASSERT_TRUE((*registry)->Load(ShardKey{"a", "0"}, MakeTestSnapshot()).ok());
  ASSERT_TRUE((*registry)->Load(ShardKey{"b", "0"}, MakeTestSnapshot()).ok());
  auto third = (*registry)->Load(ShardKey{"c", "0"}, MakeTestSnapshot());
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  // Unload frees a slot.
  ASSERT_TRUE((*registry)->Unload(ShardKey{"a", "0"}).ok());
  EXPECT_TRUE((*registry)->Load(ShardKey{"c", "0"}, MakeTestSnapshot()).ok());
}

TEST(RegistryTest, StatsJsonAndLabeledPrometheusFamilies) {
  auto registry = SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ASSERT_TRUE((*registry)->Load(ShardKey{"acme", "7"}, MakeTestSnapshot()).ok());
  ASSERT_TRUE((*registry)->Load(ShardKey{"beta", "0"}, MakeTestSnapshot()).ok());
  ASSERT_TRUE((*registry)->Swap(ShardKey{"beta", "0"}, MakeTestSnapshot()).ok());

  const std::string all = (*registry)->StatsJson();
  EXPECT_NE(all.find("\"tenant\": \"acme\""), std::string::npos);
  EXPECT_NE(all.find("\"tenant\": \"beta\""), std::string::npos);
  EXPECT_NE(all.find("\"loads_total\": 2"), std::string::npos);
  EXPECT_NE(all.find("\"swaps_total\": 1"), std::string::npos);

  const std::string filtered = (*registry)->StatsJson("acme");
  EXPECT_NE(filtered.find("\"tenant\": \"acme\""), std::string::npos);
  EXPECT_EQ(filtered.find("\"tenant\": \"beta\""), std::string::npos);

  const std::string text = (*registry)->ToPrometheusText();
  EXPECT_NE(text.find("stpt_shard_epoch{tenant=\"acme\",tile=\"7\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("stpt_shard_epoch{tenant=\"beta\",tile=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("stpt_registry_swap_latency_ns"), std::string::npos);
}

TEST(RegistryTest, ResolveShardKeyDefaultsEachEmptyName) {
  EXPECT_EQ(ResolveShardKey("", ""), (ShardKey{kDefaultTenant, kDefaultTile}));
  EXPECT_EQ(ResolveShardKey("acme", ""), (ShardKey{"acme", kDefaultTile}));
  EXPECT_EQ(ResolveShardKey("", "7"), (ShardKey{kDefaultTenant, "7"}));
  EXPECT_EQ(ResolveShardKey("acme", "7"), (ShardKey{"acme", "7"}));
}

// --- Event-loop loopback ---------------------------------------------------

/// An ingest sink that admits every reading and reports a fixed stats JSON.
class FakeIngestSink : public IngestSink {
 public:
  ReadingAck Apply(const ReadingBatch& batch) override {
    ReadingAck ack;
    ack.accepted = batch.readings.size();
    return ack;
  }
  std::string StatsJson() const override {
    return "{\"shards\": [{\"tenant\": \"acme\", \"consumed_epsilon\": 0}]}";
  }
  std::string MetricsText() const override { return ""; }
};

/// Holds its Apply open until the test counts `release` down.
class BlockingIngestSink : public FakeIngestSink {
 public:
  ReadingAck Apply(const ReadingBatch& batch) override {
    entered.count_down();
    release.wait();
    returned.store(true);
    return FakeIngestSink::Apply(batch);
  }

  std::latch entered{1};
  std::latch release{1};
  std::atomic<bool> returned{false};
};

/// A raw TCP connection to the loopback server, for frames Client cannot send.
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

class LoopbackTest : public testing::Test {
 protected:
  /// A server over an empty registry; the test loads the shards it needs.
  void StartEmptyServer(IngestSink* sink = nullptr) {
    auto registry = SnapshotRegistry::Create();
    ASSERT_TRUE(registry.ok());
    registry_ = std::move(*registry);
    auto server = EventLoopServer::Create(registry_.get(), EventLoopOptions{});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    server_->set_ingest_sink(sink);
    ASSERT_TRUE(server_->Start().ok());
  }

  void StartServer(grid::Dims dims, uint64_t seed) {
    snapshot_ = MakeTestSnapshot(dims, seed);
    StartEmptyServer();
    ASSERT_TRUE(registry_
                    ->Load(ShardKey{kDefaultTenant, kDefaultTile},
                           snapshot_)
                    .ok());
  }

  ServerStats DefaultShardStats() {
    auto gen = registry_->Route(kDefaultTenant, kDefaultTile);
    EXPECT_TRUE(gen.ok());
    return (*gen)->engine->stats();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  Snapshot snapshot_;
  std::unique_ptr<SnapshotRegistry> registry_;
  std::unique_ptr<EventLoopServer> server_;
};

TEST_F(LoopbackTest, FourConcurrentClientsBitIdenticalToDirectEvaluation) {
  const grid::Dims dims{16, 16, 40};
  StartServer(dims, 51);
  const grid::PrefixSum3D direct(snapshot_.sanitized);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 600;
  constexpr int kBatch = 64;
  std::vector<int64_t> mismatches(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      ASSERT_TRUE(client.ok());
      const query::Workload wl =
          MakeQueries(dims, kQueriesPerClient, 1000 + static_cast<uint64_t>(c));
      for (size_t base = 0; base < wl.size(); base += kBatch) {
        const size_t n = std::min<size_t>(kBatch, wl.size() - base);
        const query::Workload batch(wl.begin() + base, wl.begin() + base + n);
        auto answers = client->QueryTenant("", "", batch);
        ASSERT_TRUE(answers.ok()) << answers.status().ToString();
        for (size_t i = 0; i < n; ++i) {
          const query::RangeQuery& q = batch[i];
          if (!BitIdentical(answers->answers[i],
                            direct.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1))) {
            ++mismatches[c];
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(mismatches[c], 0) << "client " << c;
  EXPECT_EQ(server_->connections_accepted(), static_cast<uint64_t>(kClients));
  EXPECT_EQ(DefaultShardStats().queries,
            static_cast<uint64_t>(kClients) * kQueriesPerClient);
}

TEST_F(LoopbackTest, MetaStatsAndServerSideValidation) {
  StartServer({8, 8, 12}, 53);
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());

  auto meta = client->Meta();
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->dims, (grid::Dims{8, 8, 12}));
  EXPECT_EQ(meta->meta, snapshot_.meta);

  // An invalid batch is answered with an error frame, and the connection
  // stays usable for the next (valid) request.
  auto bad = client->QueryTenant("", "", {{0, 99, 0, 0, 0, 0}});
  EXPECT_FALSE(bad.ok());
  auto good = client->QueryTenant("", "", {{0, 1, 0, 1, 0, 1}});
  ASSERT_TRUE(good.ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"queries\""), std::string::npos);
  EXPECT_NE(stats->find("\"p50_ns\""), std::string::npos);
  EXPECT_NE(stats->find("\"registry\""), std::string::npos);
}

TEST_F(LoopbackTest, EmptyAndNamedAddressesReachTheSameDefaultShard) {
  // An empty tenant or tile means the default shard's name, field by
  // field: every spelling of its address reaches one engine and gets
  // bit-identical answers.
  const grid::Dims dims{10, 10, 16};
  StartServer(dims, 55);
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  const query::Workload wl = MakeQueries(dims, 128, 59);

  auto unnamed = client->QueryTenant("", "", wl);
  ASSERT_TRUE(unnamed.ok()) << unnamed.status().ToString();
  EXPECT_EQ(unnamed->epoch, 1u);
  const std::pair<std::string, std::string> spellings[] = {
      {kDefaultTenant, kDefaultTile}, {"", kDefaultTile}, {kDefaultTenant, ""}};
  for (const auto& [tenant, tile] : spellings) {
    auto named = client->QueryTenant(tenant, tile, wl);
    ASSERT_TRUE(named.ok()) << "'" << tenant << "/" << tile << "'";
    EXPECT_EQ(named->epoch, 1u);
    for (size_t i = 0; i < wl.size(); ++i) {
      EXPECT_TRUE(BitIdentical(unnamed->answers[i], named->answers[i]));
    }
  }
  EXPECT_EQ(DefaultShardStats().queries, 4u * wl.size());
}

TEST_F(LoopbackTest, ReservedTypeAndUnaddressedMetaAreProtocolErrors) {
  StartServer({6, 6, 6}, 56);
  // A type-1 frame (the retired unaddressed query, count 0) and a
  // kMetaRequest without its address payload: each gets one kError frame,
  // then the server closes the connection.
  const std::vector<std::vector<uint8_t>> frames = {
      {5, 0, 0, 0, 1, 0, 0, 0, 0},
      {1, 0, 0, 0, static_cast<uint8_t>(MsgType::kMetaRequest)},
  };
  for (const std::vector<uint8_t>& bytes : frames) {
    const int fd = ConnectRaw(server_->port());
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    auto error = ReadFrame(fd);
    ASSERT_TRUE(error.ok()) << error.status().ToString();
    EXPECT_EQ(error->type, MsgType::kError);
    auto closed = ReadFrame(fd);
    ASSERT_FALSE(closed.ok());
    EXPECT_TRUE(IsConnectionClosed(closed.status())) << closed.status().ToString();
    ::close(fd);
  }
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  auto answers = client->QueryTenant("", "", {{0, 2, 0, 2, 0, 2}});
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->answers.size(), 1u);
}

TEST_F(LoopbackTest, MetaAnswersForTheShardItAddresses) {
  StartEmptyServer();
  const Snapshot acme = MakeTestSnapshot({7, 5, 11}, 81);
  ASSERT_TRUE(registry_->Load(ShardKey{"acme", "7"}, acme).ok());
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());

  auto acme_meta = client->Meta("acme", "7");
  ASSERT_TRUE(acme_meta.ok()) << acme_meta.status().ToString();
  EXPECT_EQ(acme_meta->dims, (grid::Dims{7, 5, 11}));
  EXPECT_EQ(acme_meta->meta, acme.meta);
  // No default shard yet: the unaddressed meta is the server's NotFound,
  // and the connection stays usable.
  auto missing = client->Meta();
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("NOT_FOUND: registry: no shard"),
            std::string::npos)
      << missing.status().ToString();

  Snapshot fallback = MakeTestSnapshot({4, 6, 8}, 82);
  fallback.meta.algorithm = "identity";
  ASSERT_TRUE(
      registry_->Load(ShardKey{kDefaultTenant, kDefaultTile}, fallback).ok());
  auto default_meta = client->Meta();
  ASSERT_TRUE(default_meta.ok()) << default_meta.status().ToString();
  EXPECT_EQ(default_meta->dims, (grid::Dims{4, 6, 8}));
  EXPECT_EQ(default_meta->meta, fallback.meta);
  acme_meta = client->Meta("acme", "7");
  ASSERT_TRUE(acme_meta.ok());
  EXPECT_EQ(acme_meta->dims, (grid::Dims{7, 5, 11}));
  EXPECT_EQ(acme_meta->meta, acme.meta);
}

TEST_F(LoopbackTest, StatsKeepsItsShapeWithoutADefaultShard) {
  FakeIngestSink sink;
  StartEmptyServer(&sink);
  ASSERT_TRUE(registry_->Load(ShardKey{"acme", "7"}, MakeTestSnapshot()).ok());
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rfind("{\"top_regions\": ", 0), 0u) << *stats;
  EXPECT_NE(stats->find(", \"registry\": {\"shards\": [{\"tenant\": \"acme\""),
            std::string::npos)
      << *stats;
  EXPECT_NE(stats->find(", \"ingest\": " + sink.StatsJson() + "}"),
            std::string::npos)
      << *stats;

  // The default shard's engine counters lead once that shard is loaded.
  ASSERT_TRUE(registry_->Load(ShardKey{kDefaultTenant, kDefaultTile},
                              MakeTestSnapshot())
                  .ok());
  stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rfind("{\"queries\": 0, ", 0), 0u) << *stats;
  for (const char* key :
       {"\"top_regions\": ", "\"registry\": ", "\"ingest\": "}) {
    EXPECT_NE(stats->find(key), std::string::npos) << key;
  }
}

TEST_F(LoopbackTest, MalformedFrameAndDisconnectsDoNotKillServer) {
  StartServer({6, 6, 6}, 57);

  // Client 1: connects and vanishes without a word.
  {
    auto ghost = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(ghost.ok());
  }

  // Client 2: raw socket spewing garbage (a huge frame length).
  {
    const int fd = ConnectRaw(server_->port());
    const uint8_t garbage[8] = {0xFF, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD, 0xBE, 0xEF};
    ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 8);
    // The server answers with an error frame (or just closes); either way
    // the connection winds down without taking the server with it.
    uint8_t buf[256];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
    ::close(fd);
  }

  // Client 3: normal service still works.
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  auto answers = client->QueryTenant("", "", {{0, 2, 0, 2, 0, 2}});
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->answers.size(), 1u);
}

TEST_F(LoopbackTest, ShutdownFrameUnblocksWait) {
  StartServer({5, 5, 5}, 59);
  std::thread waiter([&] { server_->Wait(); });
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Shutdown().ok());
  waiter.join();  // Wait() returned, so the shutdown request took effect
  server_->Stop();
  EXPECT_EQ(server_->open_connections(), 0);
}

TEST_F(LoopbackTest, AdminLifecycleOverTheWire) {
  const grid::Dims dims{9, 9, 14};
  StartServer(dims, 61);

  const Snapshot snap_a = MakeTestSnapshot(dims, 71);
  const Snapshot snap_b = MakeTestSnapshot(dims, 72);
  const std::string path_a = testing::TempDir() + "/admin_a.stpt";
  const std::string path_b = testing::TempDir() + "/admin_b.stpt";
  ASSERT_TRUE(WriteSnapshot(snap_a, path_a).ok());
  ASSERT_TRUE(WriteSnapshot(snap_b, path_b).ok());
  const grid::PrefixSum3D direct_a(snap_a.sanitized);
  const grid::PrefixSum3D direct_b(snap_b.sanitized);

  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());

  // Load a second tenant next to the default shard.
  auto epoch = client->Load("acme", "7", path_a);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 1u);
  auto dup = client->Load("acme", "7", path_a);
  ASSERT_FALSE(dup.ok());  // already loaded -> use swap
  auto missing = client->Swap("ghost", "0", path_a);
  ASSERT_FALSE(missing.ok());

  const query::Workload wl = MakeQueries(dims, 64, 73);
  auto before = client->QueryTenant("acme", "7", wl);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->epoch, 1u);
  for (size_t i = 0; i < wl.size(); ++i) {
    const query::RangeQuery& q = wl[i];
    EXPECT_TRUE(BitIdentical(before->answers[i],
                             direct_a.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1)));
  }

  auto swapped = client->Swap("acme", "7", path_b);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(*swapped, 2u);
  auto after = client->QueryTenant("acme", "7", wl);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->epoch, 2u);
  for (size_t i = 0; i < wl.size(); ++i) {
    const query::RangeQuery& q = wl[i];
    EXPECT_TRUE(BitIdentical(after->answers[i],
                             direct_b.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1)));
  }

  // Pinning the swapped-out epoch fails; the connection stays usable.
  auto stale = client->QueryTenant("acme", "7", wl, /*epoch=*/1);
  ASSERT_FALSE(stale.ok());
  auto pinned = client->QueryTenant("acme", "7", wl, /*epoch=*/2);
  ASSERT_TRUE(pinned.ok());

  // Per-shard stats and labeled metrics see both tenants.
  auto stats = client->ShardStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"tenant\": \"acme\""), std::string::npos);
  EXPECT_NE(stats->find("\"tenant\": \"default\""), std::string::npos);
  auto filtered = client->ShardStats("acme", "7");
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->find("\"tenant\": \"default\""), std::string::npos);
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("stpt_shard_epoch{tenant=\"acme\",tile=\"7\"} 2"),
            std::string::npos);

  // Unload, then the tenant is gone while the default shard still serves.
  ASSERT_TRUE(client->Unload("acme", "7").ok());
  EXPECT_FALSE(client->QueryTenant("acme", "7", wl).ok());
  EXPECT_TRUE(client->QueryTenant("", "", {{0, 1, 0, 1, 0, 1}}).ok());
}

TEST_F(LoopbackTest, AdminLoadOfDirectoryIsAnErrorAndServerKeepsServing) {
  StartServer({6, 6, 6}, 65);
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  // A directory, and a sparse regular file one byte larger than any
  // container: each load is refused with a Status instead of sizing a read
  // buffer from the file.
  const std::string huge = testing::TempDir() + "/admin-huge.stpt";
  ASSERT_TRUE(MakeSparseFile(huge, internal::kMaxContainerBytes + 1));
  const std::pair<std::string, std::string> cases[] = {
      {testing::TempDir(), "not a regular file"}, {huge, "larger than any container"}};
  for (const auto& [path, why] : cases) {
    auto loaded = client->Load("acme", "7", path);
    ASSERT_FALSE(loaded.ok()) << path;
    EXPECT_NE(loaded.status().message().find(why), std::string::npos)
        << loaded.status().ToString();
  }
  ::unlink(huge.c_str());
  auto answers = client->QueryTenant(kDefaultTenant, kDefaultTile, {{0, 2, 0, 2, 0, 2}});
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->answers.size(), 1u);
}

TEST_F(LoopbackTest, HammerWhileSwappingZeroErrorsBitIdentical) {
  const grid::Dims dims{12, 12, 24};
  StartServer(dims, 63);
  const Snapshot snap_a = MakeTestSnapshot(dims, 101);
  const Snapshot snap_b = MakeTestSnapshot(dims, 202);
  const grid::PrefixSum3D direct_a(snap_a.sanitized);
  const grid::PrefixSum3D direct_b(snap_b.sanitized);
  const ShardKey key{"acme", "0"};
  ASSERT_TRUE(registry_->Load(key, snap_a).ok());  // epoch 1 = A

  constexpr int kThreads = 4;
  constexpr int kBatch = 32;
  constexpr int kMinBatches = 40;
  constexpr int kMaxBatches = 4000;
  std::atomic<bool> swapping{true};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> batches_done{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        errors.fetch_add(1);
        return;
      }
      const query::Workload wl =
          MakeQueries(dims, kMinBatches * kBatch, 5000 + static_cast<uint64_t>(t));
      for (int b = 0; b < kMaxBatches && (b < kMinBatches || swapping.load());
           ++b) {
        const int slot = b % kMinBatches;
        const query::Workload batch(wl.begin() + slot * kBatch,
                                    wl.begin() + (slot + 1) * kBatch);
        auto response = client->QueryTenant("acme", "0", batch);
        if (!response.ok()) {
          errors.fetch_add(1);
          continue;
        }
        // Load published epoch 1 (= A); each swap alternates to B, A, ...
        // so odd epochs answer from A and even epochs from B.
        const grid::PrefixSum3D& direct =
            (response->epoch % 2 == 1) ? direct_a : direct_b;
        for (size_t i = 0; i < batch.size(); ++i) {
          const query::RangeQuery& q = batch[i];
          if (!BitIdentical(response->answers[i],
                            direct.BoxSum(q.x0, q.x1, q.y0, q.y1, q.t0, q.t1))) {
            mismatches.fetch_add(1);
          }
        }
        batches_done.fetch_add(1);
      }
    });
  }

  constexpr int kSwaps = 30;
  for (int s = 0; s < kSwaps; ++s) {
    auto epoch = registry_->Swap(key, (s % 2 == 0) ? snap_b : snap_a);
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    EXPECT_EQ(*epoch, static_cast<uint64_t>(s + 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  swapping.store(false);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(batches_done.load(), kThreads * kMinBatches);
  EXPECT_NE(registry_->metrics().ToPrometheusText().find(
                "stpt_registry_swaps_total 30"),
            std::string::npos);
}

// --- Shutdown drain and fd hygiene -----------------------------------------

int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  EXPECT_NE(dir, nullptr);
  int count = 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count - 1;  // exclude the directory iteration fd itself
}

TEST(ShutdownDrainTest, InFlightResponsesFlushBeforeCloseAndNoFdLeaks) {
  const int fds_before = CountOpenFds();
  {
    const grid::Dims dims{16, 16, 32};
    const Snapshot snap = MakeTestSnapshot(dims, 67);
    auto registry = SnapshotRegistry::Create();
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE(
        (*registry)->Load(ShardKey{kDefaultTenant, kDefaultTile}, snap).ok());
    auto server = EventLoopServer::Create(registry->get(), {});
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE((*server)->Start().ok());

    std::promise<void> first_response;
    auto first_done = first_response.get_future();
    std::atomic<int64_t> ok_batches{0};
    std::atomic<bool> close_was_clean{false};
    std::thread client_thread([&] {
      auto client = Client::Connect("127.0.0.1", (*server)->port());
      ASSERT_TRUE(client.ok());
      const query::Workload wl = MakeQueries(dims, 128, 69);
      bool signaled = false;
      for (int i = 0; i < 1000000; ++i) {
        auto answers = client->QueryTenant("", "", wl);
        if (answers.ok()) {
          ok_batches.fetch_add(1);
          if (!signaled) {
            first_response.set_value();
            signaled = true;
          }
          continue;
        }
        // Drain guarantees responses are flushed whole: the failure must be
        // a connection-level close on a frame boundary, never a truncated
        // or corrupted frame.
        close_was_clean.store(
            answers.status().message().find("connection") != std::string::npos);
        break;
      }
    });
    first_done.wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    (*server)->Stop();
    client_thread.join();
    EXPECT_GE(ok_batches.load(), 1);
    EXPECT_TRUE(close_was_clean.load());
    EXPECT_EQ((*server)->open_connections(), 0);
  }
  // Listener, epoll, eventfd, and every connection fd are gone.
  EXPECT_EQ(CountOpenFds(), fds_before);
}

TEST(ShutdownDrainTest, ConnectionMidRequestAtShutdownClosedCleanly) {
  const int fds_before = CountOpenFds();
  {
    auto registry = SnapshotRegistry::Create();
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE((*registry)
                    ->Load(ShardKey{kDefaultTenant, kDefaultTile},
                           MakeTestSnapshot())
                    .ok());
    auto server = EventLoopServer::Create(registry->get(), {});
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE((*server)->Start().ok());

    // A connection parked mid-frame: 6 bytes of a frame that declares 10.
    const int fd = ConnectRaw((*server)->port());
    const uint8_t partial[6] = {10, 0, 0, 0,
                                static_cast<uint8_t>(MsgType::kQueryRequestV2), 1};
    ASSERT_EQ(::send(fd, partial, sizeof(partial), MSG_NOSIGNAL), 6);
    // Let the loop accept and read the half frame before stopping.
    for (int i = 0; i < 200 && (*server)->connections_accepted() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ((*server)->connections_accepted(), 1u);

    (*server)->Stop();
    EXPECT_EQ((*server)->open_connections(), 0);
    // The peer observes the close promptly rather than hanging.
    uint8_t buf[64];
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_LE(r, 0);
    ::close(fd);
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
}

TEST(ShutdownDrainTest, StopWaitsForADispatchedTaskPastTheDrainTimeout) {
  // drain_timeout_ms bounds how long clients get to read responses, not how
  // long a running batch may take: with a zero drain, Stop() closes the
  // connection at once but must still wait for the batch inside Apply.
  const int prev_threads = exec::Threads();
  exec::SetThreads(2);
  {
    BlockingIngestSink sink;
    auto registry = SnapshotRegistry::Create();
    ASSERT_TRUE(registry.ok());
    EventLoopOptions options;
    options.drain_timeout_ms = 0;
    auto server = EventLoopServer::Create(registry->get(), options);
    ASSERT_TRUE(server.ok());
    (*server)->set_ingest_sink(&sink);
    ASSERT_TRUE((*server)->Start().ok());

    std::thread feeder([&] {
      auto client = Client::Connect("127.0.0.1", (*server)->port());
      ASSERT_TRUE(client.ok());
      // The drain gives up on this batch's ack and closes the connection.
      EXPECT_FALSE(client->Ingest("acme", "7", {{1, 0, 0, 0, 1.0}}).ok());
    });
    sink.entered.wait();
    std::atomic<bool> stop_returned{false};
    std::atomic<bool> applied_before_stop_returned{false};
    std::thread stopper([&] {
      (*server)->Stop();
      applied_before_stop_returned.store(sink.returned.load());
      stop_returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(stop_returned.load());
    sink.release.count_down();
    stopper.join();
    feeder.join();
    EXPECT_TRUE(applied_before_stop_returned.load());
    EXPECT_EQ((*server)->open_connections(), 0);
  }
  exec::SetThreads(prev_threads);
}

// --- Backpressure ----------------------------------------------------------

TEST(BackpressureTest, SlowReaderIsPausedAndEveryResponseStillArrives) {
  auto registry = SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ASSERT_TRUE((*registry)
                  ->Load(ShardKey{kDefaultTenant, kDefaultTile},
                         MakeTestSnapshot({8, 8, 12}, 77))
                  .ok());
  EventLoopOptions options;
  options.write_budget_bytes = 4096;  // minimum: trip the budget quickly
  options.so_sndbuf = 16384;  // keep the kernel from absorbing the backlog
  auto server = EventLoopServer::Create(registry->get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A deliberately tiny receive window so the server's responses back up.
  const int rcvbuf = 8192;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>((*server)->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Pipeline thousands of metrics requests without reading a byte. Each
  // response is a multi-KiB exposition payload, so the pending bytes blow
  // through the 4 KiB budget and the loop must pause reading this
  // connection instead of buffering responses without bound.
  constexpr int kRequests = 1000;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(WriteFrame(fd, MsgType::kMetricsRequest, {}).ok()) << i;
  }
  // Stay a slow reader until the loop has paused the connection. Draining
  // straight away let a client that kept pace with response generation
  // finish without the budget ever being exceeded.
  const auto metric = [&](const char* name) {
    return PrometheusValue((*server)->metrics().ToPrometheusText(), name);
  };
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (metric("stpt_serve_backpressure_pauses_total") < 1.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Now drain: every single response must arrive, in order, well-formed.
  int got = 0;
  for (; got < kRequests; ++got) {
    auto frame = ReadFrame(fd);
    ASSERT_TRUE(frame.ok()) << "response " << got << ": "
                            << frame.status().ToString();
    ASSERT_EQ(frame->type, MsgType::kMetricsResponse);
  }
  EXPECT_EQ(got, kRequests);

  EXPECT_GE(metric("stpt_serve_backpressure_pauses_total"), 1.0);
  // The last response can reach the client just before the loop thread
  // updates the gauge after its final send.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (metric("stpt_serve_backpressure_paused") != 0.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // fully drained -> nothing paused anymore
  EXPECT_EQ(metric("stpt_serve_backpressure_paused"), 0.0);

  ::close(fd);
  (*server)->Stop();
}

// --- Options validation and metrics export ---------------------------------

TEST(EventLoopServerTest, CreateRejectsInvalidOptions) {
  auto registry = SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());

  EXPECT_FALSE(EventLoopServer::Create(nullptr, EventLoopOptions{}).ok());

  EventLoopOptions bad_port;
  bad_port.port = 70000;
  EXPECT_FALSE(EventLoopServer::Create(registry->get(), bad_port).ok());
  bad_port.port = -1;
  EXPECT_FALSE(EventLoopServer::Create(registry->get(), bad_port).ok());

  EventLoopOptions bad_backlog;
  bad_backlog.listen_backlog = 0;
  EXPECT_FALSE(EventLoopServer::Create(registry->get(), bad_backlog).ok());

  EventLoopOptions bad_budget;
  bad_budget.write_budget_bytes = 1;
  EXPECT_FALSE(EventLoopServer::Create(registry->get(), bad_budget).ok());

  EventLoopOptions bad_inflight;
  bad_inflight.max_inflight_batches = 0;
  EXPECT_FALSE(EventLoopServer::Create(registry->get(), bad_inflight).ok());

  EventLoopOptions bad_bind;
  bad_bind.bind_address = "not-an-address";
  auto created = EventLoopServer::Create(registry->get(), bad_bind);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

/// Runs the same batched workload through a loopback server at `threads`
/// exec threads and requires the counters reported by the `metrics` wire
/// command to exactly match the default shard's `stats` counters.
void RunMetricsMatchesStats(int threads) {
  const int prev_threads = exec::Threads();
  exec::SetThreads(threads);
  const grid::Dims dims{10, 10, 18};
  const Snapshot snap = MakeTestSnapshot(dims, 61);
  auto registry = SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ASSERT_TRUE(
      (*registry)->Load(ShardKey{kDefaultTenant, kDefaultTile}, snap).ok());
  auto server = EventLoopServer::Create(registry->get(), {});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  const query::Workload wl = MakeQueries(dims, 256, 67);
  // Two identical passes, so the counters cover more than one batch.
  for (int pass = 0; pass < 2; ++pass) {
    auto answers = client->QueryTenant("", "", wl);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    ASSERT_EQ(answers->answers.size(), wl.size());
  }

  auto text = client->Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto gen = (*registry)->Route(kDefaultTenant, kDefaultTile);
  ASSERT_TRUE(gen.ok());
  const ServerStats stats = (*gen)->engine->stats();
  EXPECT_EQ(stats.queries, 512u);
  EXPECT_EQ(PrometheusValue(*text, "stpt_serve_queries_total"),
            static_cast<double>(stats.queries));
  EXPECT_EQ(PrometheusValue(*text, "stpt_serve_batches_total"), 2.0);
  // The payload also carries the event-loop, registry, and process-global
  // registries.
  EXPECT_NE(text->find("# TYPE stpt_serve_batch_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text->find("stpt_serve_dispatches_total"), std::string::npos);
  EXPECT_NE(text->find("stpt_registry_shards 1"), std::string::npos);
  EXPECT_NE(text->find("stpt_shard_epoch{tenant=\"default\",tile=\"0\"} 1"),
            std::string::npos);

  (*server)->Stop();
  exec::SetThreads(prev_threads);
}

TEST(MetricsExportTest, WireMetricsMatchStatsSingleThread) {
  RunMetricsMatchesStats(1);
}

TEST(MetricsExportTest, WireMetricsMatchStatsEightThreads) {
  RunMetricsMatchesStats(8);
}

TEST(MetricsExportTest, RegistriesArePerEngineInstance) {
  const Snapshot snap = MakeTestSnapshot({6, 6, 6});
  auto a = QueryServer::Create(snap);
  auto b = QueryServer::Create(snap);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->AnswerBatch({{0, 1, 0, 1, 0, 1}}).ok());
  EXPECT_EQ(a->stats().queries, 1u);
  EXPECT_EQ(b->stats().queries, 0u);
  EXPECT_NE(a->metrics().ToPrometheusText().find("stpt_serve_queries_total 1"),
            std::string::npos);
}

}  // namespace
}  // namespace stpt::serve
