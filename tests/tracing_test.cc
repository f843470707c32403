// Request-scoped distributed tracing: deterministic context generation and
// the pure sampling rule, the optional trailing wire field (round trips,
// strict-decode negatives, pre-trace byte compatibility, truncation/bitflip
// sweeps shared with the fuzz harnesses), Prometheus label escaping, the
// per-tenant RED families with histogram exemplars, and end-to-end loopback
// lineage: a sampled query's full span chain, a sampled ingest batch chaining
// accept -> republish -> registry swap, and bit-identity of answers and
// published releases with tracing on vs off at 1 and 8 exec threads.

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "fuzz/fuzz_util.h"
#include "grid/consumption_matrix.h"
#include "gtest/gtest.h"
#include "ingest/clock.h"
#include "ingest/pipeline.h"
#include "obs/metrics.h"
#include "obs/red.h"
#include "obs/trace_context.h"
#include "query/range_query.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "serve/wire.h"

namespace stpt::serve {
namespace {

grid::ConsumptionMatrix MakeMatrix(grid::Dims dims, uint64_t seed) {
  auto matrix = grid::ConsumptionMatrix::Create(dims);
  EXPECT_TRUE(matrix.ok());
  Rng rng(seed);
  for (double& v : matrix->mutable_data()) {
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

obs::TraceContext SampledContext(uint64_t stream = 0) {
  // Period 1 keeps every trace, so tests never depend on which ids hash in.
  obs::TraceContext ctx = obs::MakeTraceContext(Rng(0xace), stream, 1);
  EXPECT_TRUE(ctx.valid());
  EXPECT_TRUE(ctx.sampled);
  return ctx;
}

// --- Context generation and sampling rule ----------------------------------

TEST(TraceContextTest, MakeTraceContextIsDeterministicAndLeavesBaseUntouched) {
  const Rng base(77);
  const obs::TraceContext a = obs::MakeTraceContext(base, 3, 4);
  const obs::TraceContext b = obs::MakeTraceContext(base, 3, 4);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.start_ns, 0u);  // stamped at send, not at creation

  // Different streams get different ids; the same stream from an equal
  // fresh base replays identically (fork discipline, base not advanced).
  const obs::TraceContext c = obs::MakeTraceContext(base, 4, 4);
  EXPECT_NE(a.trace_lo ^ a.trace_hi, c.trace_lo ^ c.trace_hi);
  Rng workload(77);
  const double before = Rng(77).Uniform(0.0, 1.0);
  (void)obs::MakeTraceContext(workload, 9, 2);
  EXPECT_TRUE(BitIdentical(before, workload.Uniform(0.0, 1.0)));
}

TEST(TraceContextTest, SamplingIsAPureFunctionOfTheTraceId) {
  const Rng base(5);
  int sampled = 0;
  for (uint64_t stream = 0; stream < 256; ++stream) {
    const obs::TraceContext ctx = obs::MakeTraceContext(base, stream, 8);
    // The carried flag must agree with an independent evaluation of the
    // rule — every hop can recompute the decision from the id alone.
    EXPECT_EQ(ctx.sampled,
              obs::TraceSampled(ctx.trace_hi, ctx.trace_lo, 8));
    sampled += ctx.sampled ? 1 : 0;
  }
  // 1/8 head sampling over 256 ids: loose bounds, deterministic stream.
  EXPECT_GT(sampled, 8);
  EXPECT_LT(sampled, 96);

  const obs::TraceContext ctx = obs::MakeTraceContext(base, 0, 1);
  EXPECT_TRUE(ctx.sampled);  // period 1 = always
  EXPECT_FALSE(obs::TraceSampled(ctx.trace_hi, ctx.trace_lo, 0));  // 0 = never
  EXPECT_FALSE(obs::MakeTraceContext(base, 0, 0).sampled);
}

TEST(TraceContextTest, ChildSpanIdsAreDeterministicDistinctAndNonzero) {
  const uint64_t parent = 0x1234abcdu;
  EXPECT_EQ(obs::ChildSpanId(parent, 1), obs::ChildSpanId(parent, 1));
  EXPECT_NE(obs::ChildSpanId(parent, 1), obs::ChildSpanId(parent, 2));
  EXPECT_NE(obs::ChildSpanId(parent, 1), parent);
  for (uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_NE(obs::ChildSpanId(0, seq), 0u);
    EXPECT_NE(obs::ChildSpanId(parent, seq), 0u);
  }
}

TEST(TraceContextTest, HexRenderingIsFixedWidthLowercase) {
  obs::TraceContext ctx;
  ctx.trace_hi = 0xABCu;
  ctx.trace_lo = 1;
  const std::string hex = obs::TraceIdHex(ctx);
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "0000000000000abc0000000000000001");
  EXPECT_EQ(obs::SpanIdHex(0xFFu), "00000000000000ff");
}

// --- Wire field codec -------------------------------------------------------

TEST(TraceWireTest, FieldRoundTripAndStrictDecode) {
  obs::TraceContext ctx = SampledContext();
  ctx.start_ns = 123456789;
  std::vector<uint8_t> bytes;
  obs::AppendTraceField(bytes, ctx);
  ASSERT_EQ(bytes.size(), obs::kTraceFieldBytes);
  EXPECT_EQ(bytes[0], 33u);  // length byte: bytes that follow

  obs::TraceContext decoded;
  ASSERT_TRUE(obs::DecodeTraceField(bytes.data(), bytes.size(), &decoded));
  EXPECT_EQ(decoded, ctx);

  // An invalid (zero-id) context encodes nothing.
  std::vector<uint8_t> none;
  obs::AppendTraceField(none, obs::TraceContext{});
  EXPECT_TRUE(none.empty());

  // Strict decode: wrong size, wrong length byte, unknown flag bits and a
  // zero trace id are all malformed.
  obs::TraceContext out;
  EXPECT_FALSE(obs::DecodeTraceField(bytes.data(), bytes.size() - 1, &out));
  std::vector<uint8_t> bad = bytes;
  bad[0] = 32;
  EXPECT_FALSE(obs::DecodeTraceField(bad.data(), bad.size(), &out));
  bad = bytes;
  bad[1] |= 0x80;
  EXPECT_FALSE(obs::DecodeTraceField(bad.data(), bad.size(), &out));
  std::vector<uint8_t> zero_id;
  obs::TraceContext zero = ctx;
  zero.trace_hi = zero.trace_lo = 0;
  zero.span_id = 7;  // still encodes nothing: the id is the on/off switch
  obs::AppendTraceField(zero_id, zero);
  EXPECT_TRUE(zero_id.empty());
}

TEST(TraceWireTest, AllSixV2CodecsCarryTheContext) {
  obs::TraceContext ctx = SampledContext(1);
  ctx.start_ns = 42;

  TenantQueryRequest request{"acme", "7", 3, {{0, 1, 0, 1, 0, 1}}, ctx};
  auto request2 = DecodeTenantQueryRequest(EncodeTenantQueryRequest(request));
  ASSERT_TRUE(request2.ok());
  EXPECT_EQ(*request2, request);

  TenantQueryResponse response{9, {1.5, -2.25}, ctx};
  auto response2 =
      DecodeTenantQueryResponse(EncodeTenantQueryResponse(response));
  ASSERT_TRUE(response2.ok());
  EXPECT_EQ(*response2, response);

  AdminRequest admin{AdminVerb::kSwap, "acme", "7", "/tmp/a.stpt", ctx};
  auto admin2 = DecodeAdminRequest(EncodeAdminRequest(admin));
  ASSERT_TRUE(admin2.ok());
  EXPECT_EQ(*admin2, admin);

  AdminResponse ack{AdminVerb::kSwap, 4, "ok", ctx};
  auto ack2 = DecodeAdminResponse(EncodeAdminResponse(ack));
  ASSERT_TRUE(ack2.ok());
  EXPECT_EQ(*ack2, ack);

  ReadingBatch batch{"acme", "7", {{11, 1, 2, 3, 0.5}}, ctx};
  auto batch2 = DecodeReadingBatch(EncodeReadingBatch(batch));
  ASSERT_TRUE(batch2.ok());
  EXPECT_EQ(*batch2, batch);

  ReadingAck racked{5, 0, 2, 3, ctx};
  auto racked2 = DecodeReadingAck(EncodeReadingAck(racked));
  ASSERT_TRUE(racked2.ok());
  EXPECT_EQ(*racked2, racked);
}

TEST(TraceWireTest, UntracedFramesKeepThePreTraceByteLayout) {
  // The pre-trace kQueryRequestV2 payload, built by hand: str tenant,
  // str tile, u64 epoch, u32 count, count x 6 i32. An untraced encode must
  // reproduce it byte for byte — that is the old-peer interop guarantee.
  TenantQueryRequest request{"ab", "", 2, {{0, 1, 0, 1, 0, 1}}, {}};
  std::vector<uint8_t> expected = {
      2, 0, 0, 0, 'a', 'b',        // tenant
      0, 0, 0, 0,                  // tile (empty)
      2, 0, 0, 0, 0, 0, 0, 0,      // epoch
      1, 0, 0, 0,                  // count
      0, 0, 0, 0, 1, 0, 0, 0,      // x0 x1
      0, 0, 0, 0, 1, 0, 0, 0,      // y0 y1
      0, 0, 0, 0, 1, 0, 0, 0,      // t0 t1
  };
  EXPECT_EQ(EncodeTenantQueryRequest(request), expected);
  auto decoded = DecodeTenantQueryRequest(expected);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, request);
  EXPECT_FALSE(decoded->trace.valid());

  // Same for the fixed-width kReadingAck: exactly three little-endian u64s.
  ReadingAck ack{1, 0, 7, 0, {}};
  std::vector<uint8_t> ack_bytes = {1, 0, 0, 0, 0, 0, 0, 0,
                                    0, 0, 0, 0, 0, 0, 0, 0,
                                    7, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(EncodeReadingAck(ack), ack_bytes);
  auto ack2 = DecodeReadingAck(ack_bytes);
  ASSERT_TRUE(ack2.ok());
  EXPECT_EQ(*ack2, ack);

  // A traced frame is exactly the untraced bytes plus one trailing field,
  // so stripping the field yields a payload an old peer decodes unchanged.
  TenantQueryRequest traced = request;
  traced.trace = SampledContext(2);
  const std::vector<uint8_t> traced_bytes = EncodeTenantQueryRequest(traced);
  ASSERT_EQ(traced_bytes.size(), expected.size() + obs::kTraceFieldBytes);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         traced_bytes.begin()));
}

TEST(TraceWireTest, TruncationAndBitflipSweepOverTracedPayloads) {
  obs::TraceContext ctx = SampledContext(3);
  ctx.start_ns = 99;
  const TenantQueryRequest request{"t", "0", 1, {{0, 1, 0, 1, 0, 1}}, ctx};
  const ReadingBatch batch{"t", "0", {{1, 0, 0, 0, 1.0}, {2, 1, 1, 1, 2.0}},
                           ctx};
  const ReadingAck ack{2, 1, 3, 4, ctx};
  const AdminResponse admin{AdminVerb::kLoad, 1, "ok", ctx};

  // Every prefix and single-bit corruption must yield a clean accept/reject
  // — never a crash — and anything accepted must re-encode canonically
  // (otherwise the fuzz replay oracle would differ from production).
  size_t non_canonical = 0;
  const auto sweep = [&](const std::vector<uint8_t>& bytes, auto decode,
                         auto encode) {
    const fuzz::SweepStats stats = fuzz::TruncationAndBitflipSweep(
        bytes, [&](const uint8_t* data, size_t size) {
          auto value = decode(std::vector<uint8_t>(data, data + size));
          if (!value.ok()) return false;
          if (encode(*value) != std::vector<uint8_t>(data, data + size)) {
            ++non_canonical;
          }
          return true;
        });
    EXPECT_GT(stats.cases, bytes.size());  // prefixes + per-bit flips
    EXPECT_GT(stats.accepted, 0u);         // the untruncated payload itself
  };
  sweep(EncodeTenantQueryRequest(request),
        [](const std::vector<uint8_t>& p) { return DecodeTenantQueryRequest(p); },
        [](const TenantQueryRequest& v) { return EncodeTenantQueryRequest(v); });
  sweep(EncodeReadingBatch(batch),
        [](const std::vector<uint8_t>& p) { return DecodeReadingBatch(p); },
        [](const ReadingBatch& v) { return EncodeReadingBatch(v); });
  sweep(EncodeReadingAck(ack),
        [](const std::vector<uint8_t>& p) { return DecodeReadingAck(p); },
        [](const ReadingAck& v) { return EncodeReadingAck(v); });
  sweep(EncodeAdminResponse(admin),
        [](const std::vector<uint8_t>& p) { return DecodeAdminResponse(p); },
        [](const AdminResponse& v) { return EncodeAdminResponse(v); });
  EXPECT_EQ(non_canonical, 0u);

  // Dropping exactly the trailing field leaves the valid untraced payload —
  // the compatibility path a pre-trace peer exercises.
  std::vector<uint8_t> bytes = EncodeTenantQueryRequest(request);
  bytes.resize(bytes.size() - obs::kTraceFieldBytes);
  auto untraced = DecodeTenantQueryRequest(bytes);
  ASSERT_TRUE(untraced.ok());
  EXPECT_FALSE(untraced->trace.valid());
  EXPECT_EQ(untraced->batch, request.batch);
}

TEST(TraceWireTest, TraceFetchRequestRoundTripAndLimits) {
  TraceFetchRequest fetch{7, "00000000000000ff0000000000000001"};
  auto fetch2 = DecodeTraceFetchRequest(EncodeTraceFetchRequest(fetch));
  ASSERT_TRUE(fetch2.ok());
  EXPECT_EQ(*fetch2, fetch);

  // The filter is capped: an oversized id is rejected, not truncated.
  TraceFetchRequest huge{0, std::string(kMaxWireTraceIdBytes + 1, 'a')};
  EXPECT_FALSE(DecodeTraceFetchRequest(EncodeTraceFetchRequest(huge)).ok());
}

// --- Label escaping ---------------------------------------------------------

TEST(PromEscapeTest, EscapesBackslashQuoteAndNewline) {
  EXPECT_EQ(obs::PromEscapeLabel("plain"), "plain");
  EXPECT_EQ(obs::PromEscapeLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::PromEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PromEscapeLabel("a\nb"), "a\\nb");
  EXPECT_EQ(obs::PromEscapeLabel("\\\"\n"), "\\\\\\\"\\n");
}

TEST(JsonEscapeTest, EscapesQuoteBackslashAndControlBytesOnly) {
  const std::pair<std::string, std::string> table[] = {
      {"plain", "plain"},
      {"a\"b", "a\\\"b"},
      {"a\\b", "a\\\\b"},
      {"a\x01" "b", "a\\u0001b"},
      {"\x1f", "\\u001f"},
      {"a\nb", "a\\u000ab"},
      {"\r\t", "\\u000d\\u0009"},
      {std::string(1, '\0'), "\\u0000"},
      // DEL and UTF-8 bytes pass through unchanged.
      {"\x7f", "\x7f"},
      {"caf\xc3\xa9 \xe2\x82\xac", "caf\xc3\xa9 \xe2\x82\xac"},
  };
  for (const auto& [in, want] : table) {
    EXPECT_EQ(obs::JsonEscape(in), want) << "input of " << in.size() << " bytes";
  }
}

TEST(JsonEscapeTest, TraceStoreJsonEscapesControlBytesInClientNames) {
  // Tenant names are client-controlled and reach the trace store verbatim.
  obs::TraceStore store;
  obs::TraceSpan span;
  span.trace_hi = 1;
  span.trace_lo = 2;
  span.span_id = 3;
  span.name = "serve/exec";
  span.lane = "worker";
  span.attrs = {{"tenant", "evil\"\n\r\tname"}};
  store.Add(span);
  const std::string json = store.ToJson();
  EXPECT_NE(json.find("\"tenant\":\"evil\\\"\\u000a\\u000d\\u0009name\""),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(PromEscapeTest, RegistryEscapesHostileTenantNames) {
  // A tenant name chosen to break the exposition format: an embedded quote
  // would close the label early and an embedded newline would inject a
  // whole fake sample line into the scrape.
  const std::string tenant = "evil\"tenant\ninjected_metric 1";
  auto registry = SnapshotRegistry::Create();
  ASSERT_TRUE(registry.ok());
  ASSERT_TRUE(
      (*registry)->Load(ShardKey{tenant, "t\\0"}, MakeTestSnapshot()).ok());

  const std::string text = (*registry)->ToPrometheusText();
  EXPECT_NE(text.find("tenant=\"evil\\\"tenant\\ninjected_metric 1\""),
            std::string::npos);
  EXPECT_NE(text.find("tile=\"t\\\\0\""), std::string::npos);
  // No label value may leak a raw newline or unescaped interior quote.
  EXPECT_EQ(text.find("evil\"tenant"), std::string::npos);
  EXPECT_EQ(text.find("tenant\ninjected"), std::string::npos);
}

// --- Per-tenant RED families ------------------------------------------------

TEST(RedFamilyTest, LabeledFamiliesAndOverflowCap) {
  obs::RedFamily red("stpt_tenant", 2);
  obs::RedFamily::Cell a = red.Get("acme", "0");
  ASSERT_NE(a.requests, nullptr);
  ASSERT_NE(a.errors, nullptr);
  ASSERT_NE(a.latency_ns, nullptr);
  a.requests->Increment(3);
  a.errors->Increment();
  a.latency_ns->Observe(1000.0);

  // Handles are stable: a second lookup hits the same cells.
  obs::RedFamily::Cell a2 = red.Get("acme", "0");
  EXPECT_EQ(a2.requests, a.requests);

  red.Get("beta", "1").requests->Increment();
  EXPECT_EQ(red.cell_count(), 2u);

  // Past the cap, hostile names collapse into one shared overflow cell.
  obs::RedFamily::Cell ov1 = red.Get("mallory-1", "9");
  obs::RedFamily::Cell ov2 = red.Get("mallory-2", "9");
  EXPECT_EQ(ov1.requests, ov2.requests);
  EXPECT_EQ(red.cell_count(), 3u);
  ov1.requests->Increment(5);

  const std::string text = red.ToPrometheusText();
  EXPECT_NE(text.find("stpt_tenant_requests_total{tenant=\"acme\",tile=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("stpt_tenant_errors_total{tenant=\"acme\",tile=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("stpt_tenant_latency_ns_count{tenant=\"acme\",tile=\"0\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("stpt_tenant_requests_total{tenant=\"_overflow\",tile=\"\"} 5"),
      std::string::npos);
  EXPECT_EQ(text.find("mallory"), std::string::npos);
}

TEST(RedFamilyTest, LatencyBucketsCarryExemplarsOnlyWhenObservedWithTrace) {
  obs::RedFamily red("stpt_tenant");
  obs::RedFamily::Cell cell = red.Get("acme", "0");
  cell.latency_ns->Observe(500.0);
  EXPECT_EQ(red.ToPrometheusText().find("# {trace_id="), std::string::npos);

  const obs::TraceContext ctx = SampledContext(4);
  cell.latency_ns->ObserveWithExemplar(500.0, ctx.trace_hi, ctx.trace_lo,
                                       12345);
  const std::string text = red.ToPrometheusText();
  const std::string marker = "# {trace_id=\"" + obs::TraceIdHex(ctx) + "\"}";
  EXPECT_NE(text.find(marker), std::string::npos);
}

TEST(RedFamilyTest, RegistryJsonGainsExemplarsOnlyAfterSampledObservation) {
  obs::Registry registry;
  obs::Histogram* h = registry.GetHistogram(
      "stpt_test_latency_ns", "test", obs::ExponentialBuckets(1.0, 2.0, 8));
  ASSERT_NE(h, nullptr);
  h->Observe(3.0);
  // Byte-identical JSON with tracing off: no "exemplars" key at all.
  EXPECT_EQ(registry.ToJson().find("exemplars"), std::string::npos);

  h->ObserveWithExemplar(3.0, 0xAB, 0xCD, 777);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"exemplars\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ts_ns\": 777"), std::string::npos);
}

// --- End-to-end loopback lineage --------------------------------------------

class TraceLoopbackTest : public testing::Test {
 protected:
  void SetUp() override { obs::TraceStore::Global().Clear(); }

  void StartServer(grid::Dims dims, uint64_t seed) {
    snapshot_ = MakeTestSnapshot(dims, seed);
    auto registry = SnapshotRegistry::Create();
    ASSERT_TRUE(registry.ok());
    registry_ = std::move(*registry);
    ASSERT_TRUE(
        registry_->Load(ShardKey{kDefaultTenant, kDefaultTile}, snapshot_)
            .ok());
    auto server = EventLoopServer::Create(registry_.get(), {});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  void AttachIngest(ingest::IngestOptions options) {
    auto pipeline =
        ingest::IngestPipeline::Create(registry_.get(), &clock_, options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    pipeline_ = std::move(*pipeline);
    server_->set_ingest_sink(pipeline_.get());
  }

  void Start() { ASSERT_TRUE(server_->Start().ok()); }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    obs::TraceStore::Global().Clear();
  }

  Snapshot snapshot_;
  ingest::ManualClock clock_;
  std::unique_ptr<SnapshotRegistry> registry_;
  std::unique_ptr<ingest::IngestPipeline> pipeline_;
  std::unique_ptr<EventLoopServer> server_;
};

TEST_F(TraceLoopbackTest, SampledQueryRecordsTheFullSpanChain) {
  const grid::Dims dims{8, 8, 12};
  StartServer(dims, 71);
  Start();
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());

  const obs::TraceContext ctx = SampledContext(5);
  auto response = client->QueryTenant("", "", MakeQueries(dims, 16, 901), 0, ctx);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->epoch, 1u);

  // The server echoes the request's context in the response.
  EXPECT_EQ(response->trace.trace_hi, ctx.trace_hi);
  EXPECT_EQ(response->trace.trace_lo, ctx.trace_lo);
  EXPECT_EQ(response->trace.span_id, ctx.span_id);
  EXPECT_TRUE(response->trace.sampled);
  EXPECT_NE(response->trace.start_ns, 0u);  // stamped by the client at send

  auto json = client->FetchTraces(0, obs::TraceIdHex(ctx));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("\"trace_id\":\"" + obs::TraceIdHex(ctx) + "\""),
            std::string::npos);
  for (const char* span : {"client/send", "serve/queue", "serve/parse",
                           "serve/dispatch_wait", "serve/exec", "serve/write"}) {
    EXPECT_NE(json->find(std::string("\"name\":\"") + span + "\""),
              std::string::npos)
        << "missing span " << span << " in " << *json;
  }
  // The exec span names the generation that answered.
  EXPECT_NE(json->find("\"epoch\":\"1\""), std::string::npos);
  // The client span is the root; loop spans are its direct children.
  EXPECT_NE(json->find("\"span_id\":\"" + obs::SpanIdHex(ctx.span_id) + "\""),
            std::string::npos);
  EXPECT_NE(
      json->find("\"parent_span_id\":\"" + obs::SpanIdHex(ctx.span_id) + "\""),
      std::string::npos);

  // The engine's batch-latency histogram picked up an exemplar for this
  // trace. The RED latency family carries the same id, so only the engine's
  // own bucket lines count.
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok());
  const std::string exemplar = "# {trace_id=\"" + obs::TraceIdHex(ctx) + "\"}";
  bool engine_exemplar = false;
  std::istringstream lines(*metrics);
  for (std::string line; std::getline(lines, line);) {
    engine_exemplar |= line.starts_with("stpt_serve_batch_latency_ns_bucket") &&
                       line.find(exemplar) != std::string::npos;
  }
  EXPECT_TRUE(engine_exemplar) << *metrics;
  // The RED families saw the request, labeled by the default shard.
  EXPECT_NE(metrics->find("stpt_tenant_requests_total{tenant=\"default\","
                          "tile=\"0\"} 1"),
            std::string::npos);

  // An untraced query on the same connection leaves no new trace.
  auto plain = client->QueryTenant("", "", MakeQueries(dims, 4, 902));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->trace.valid());
  auto all = client->FetchTraces();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->find("\"trace_id\""), all->rfind("\"trace_id\""));
}

TEST_F(TraceLoopbackTest, SampledIngestChainsAcceptRepublishAndSwap) {
  StartServer({4, 4, 8}, 73);
  ingest::IngestOptions options;
  options.dims = {4, 4, 8};
  options.epoch_readings = 0;  // publish only on flush, keeping the chain
  options.window = 4;          // attributable to one sampled batch
  AttachIngest(options);
  Start();
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());

  std::vector<MeterReading> readings;
  for (uint64_t i = 0; i < 32; ++i) {
    readings.push_back({i, static_cast<int32_t>(i % 4),
                        static_cast<int32_t>(i / 4 % 4),
                        static_cast<int32_t>(i / 16), 1.0});
  }
  const obs::TraceContext accept_ctx = SampledContext(6);
  auto ack = client->Ingest("grid", "7", readings, accept_ctx);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->accepted, readings.size());
  EXPECT_EQ(ack->rejected, 0u);
  EXPECT_EQ(ack->trace.trace_lo, accept_ctx.trace_lo);  // echoed in the ack

  // The flush batch triggers the publish; its trace must chain all the way
  // through the republish into the registry swap epoch.
  const obs::TraceContext flush_ctx = SampledContext(7);
  auto flush = client->Ingest("grid", "7", {}, flush_ctx);
  ASSERT_TRUE(flush.ok()) << flush.status().ToString();
  EXPECT_GE(flush->epoch, 1u);

  auto json = client->FetchTraces(0, obs::TraceIdHex(flush_ctx));
  ASSERT_TRUE(json.ok());
  for (const char* span :
       {"serve/exec", "ingest/apply", "ingest/publish", "registry/"}) {
    EXPECT_NE(json->find(span), std::string::npos)
        << "missing span " << span << " in " << *json;
  }
  EXPECT_NE(json->find("\"tenant\":\"grid\""), std::string::npos);
  EXPECT_NE(json->find("\"epoch\":\"" + std::to_string(flush->epoch) + "\""),
            std::string::npos);

  // The accept-only batch traced its apply but no publish.
  auto accept_json = client->FetchTraces(0, obs::TraceIdHex(accept_ctx));
  ASSERT_TRUE(accept_json.ok());
  EXPECT_NE(accept_json->find("ingest/apply"), std::string::npos);
  EXPECT_EQ(accept_json->find("ingest/publish"), std::string::npos);
}

TEST_F(TraceLoopbackTest, AnswersAreBitIdenticalWithTracingOnAndOff) {
  const grid::Dims dims{10, 10, 16};
  for (const int threads : {1, 8}) {
    exec::SetThreads(threads);
    StartServer(dims, 79);
    Start();
    auto client = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());

    const query::Workload wl = MakeQueries(dims, 128, 907);
    auto plain = client->QueryTenant("", "", wl);
    ASSERT_TRUE(plain.ok());
    auto traced = client->QueryTenant("", "", wl, 0, SampledContext(8));
    ASSERT_TRUE(traced.ok());
    ASSERT_EQ(plain->answers.size(), traced->answers.size());
    for (size_t i = 0; i < wl.size(); ++i) {
      EXPECT_TRUE(BitIdentical(plain->answers[i], traced->answers[i]))
          << "query " << i << " at " << threads << " threads";
    }
    server_->Stop();
    server_.reset();
  }
  exec::SetThreads(0);
}

// Two pipelines fed the identical reading stream — one under a sampled
// trace scope, one untraced — must publish bit-identical DP releases: the
// trace ids fork their own Rng stream and never touch the noise draws.
TEST(TraceIngestDeterminismTest, PublishedReleasesBitIdenticalTracingOnOff) {
  const grid::Dims dims{5, 5, 10};
  std::vector<MeterReading> readings;
  Rng rng(31);
  for (uint64_t i = 0; i < 200; ++i) {
    readings.push_back({i, static_cast<int32_t>(rng.UniformInt(0, 4)),
                        static_cast<int32_t>(rng.UniformInt(0, 4)),
                        static_cast<int32_t>(i / 20),
                        rng.Uniform(0.0, 3.0)});
  }

  for (const int threads : {1, 8}) {
    exec::SetThreads(threads);
    const auto run = [&](bool traced) {
      auto registry = SnapshotRegistry::Create();
      EXPECT_TRUE(registry.ok());
      ingest::ManualClock clock;
      ingest::IngestOptions options;
      options.dims = dims;
      options.epoch_readings = 64;
      options.window = 4;
      auto pipeline =
          ingest::IngestPipeline::Create(registry->get(), &clock, options);
      EXPECT_TRUE(pipeline.ok());
      for (size_t base = 0; base < readings.size(); base += 50) {
        ReadingBatch batch{"acme", "0",
                           {readings.begin() + base, readings.begin() + base + 50},
                           {}};
        if (traced) {
          obs::ScopedTraceContext scoped(SampledContext(base));
          (*pipeline)->Apply(batch);
        } else {
          (*pipeline)->Apply(batch);
        }
      }
      (*pipeline)->Apply(ReadingBatch{"acme", "0", {}, {}});  // flush
      auto gen = (*registry)->Route("acme", "0", 0);
      EXPECT_TRUE(gen.ok());
      auto answers = (*gen)->engine->AnswerBatch(MakeQueries(dims, 64, 911));
      EXPECT_TRUE(answers.ok());
      return std::make_pair((*gen)->epoch, *answers);
    };
    obs::TraceStore::Global().Clear();
    const auto [epoch_off, off] = run(false);
    const auto [epoch_on, on] = run(true);
    EXPECT_EQ(epoch_off, epoch_on);
    ASSERT_EQ(off.size(), on.size());
    for (size_t i = 0; i < off.size(); ++i) {
      EXPECT_TRUE(BitIdentical(off[i], on[i]))
          << "answer " << i << " at " << threads << " threads";
    }
    obs::TraceStore::Global().Clear();
  }
  exec::SetThreads(0);
}

// --- Trace store ------------------------------------------------------------

TEST(TraceStoreTest, BoundedEvictionAndFiltering) {
  obs::TraceStore store;
  for (size_t i = 0; i < obs::TraceStore::kMaxSpans + 10; ++i) {
    obs::TraceSpan span;
    span.trace_hi = 1;
    span.trace_lo = i + 1;
    span.span_id = i + 1;
    span.name = "serve/test";
    span.lane = "loop";
    store.Add(span);
  }
  EXPECT_EQ(store.span_count(), obs::TraceStore::kMaxSpans);

  // The oldest spans were evicted; the newest survive and filter by id.
  obs::TraceContext newest;
  newest.trace_hi = 1;
  newest.trace_lo = obs::TraceStore::kMaxSpans + 10;
  const std::string json = store.ToJson(0, obs::TraceIdHex(newest));
  EXPECT_NE(json.find(obs::TraceIdHex(newest)), std::string::npos);
  obs::TraceContext evicted;
  evicted.trace_hi = 1;
  evicted.trace_lo = 1;
  EXPECT_EQ(store.ToJson(0, obs::TraceIdHex(evicted)).find("serve/test"),
            std::string::npos);

  // max_traces keeps the most recent N groups.
  const std::string limited = store.ToJson(2);
  size_t groups = 0;
  for (size_t pos = limited.find("\"trace_id\""); pos != std::string::npos;
       pos = limited.find("\"trace_id\"", pos + 1)) {
    ++groups;
  }
  EXPECT_EQ(groups, 2u);

  store.Clear();
  EXPECT_EQ(store.span_count(), 0u);
  EXPECT_EQ(store.ToJson(), "{\"traces\":[]}");
}

}  // namespace
}  // namespace stpt::serve
