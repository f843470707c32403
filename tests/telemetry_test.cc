// Event-level tracing, training telemetry, and the privacy-budget audit
// ledger: the observability surfaces added on top of the aggregate-only
// obs layer. The three suites here mirror the three user-facing artifacts:
// the Chrome trace-event export, the --train-log loss curve, and the
// --audit-ledger JSONL whose composed epsilon must equal the accountant's
// spend bit-for-bit.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/stpt.h"
#include "dp/audit_ledger.h"
#include "dp/budget_accountant.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "nn/predictor.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace stpt {
namespace {

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ------------------------- Chrome trace export -------------------------

TEST(TraceExportTest, DisabledByDefaultBuffersNoEvents) {
  obs::StopTraceEvents();
  const size_t before = obs::TraceEventCount();
  {
    obs::Span span("telemetry/disabled");
  }
  obs::TraceCounter("telemetry/disabled_counter", 1.0);
  EXPECT_EQ(obs::TraceEventCount(), before);
  EXPECT_FALSE(obs::TraceEventsEnabled());
}

TEST(TraceExportTest, ExportIsBalancedWellFormedAndThreadNamed) {
  obs::RegisterCurrentThreadName("telemetry-main");
  obs::StartTraceEvents();
  {
    obs::Span outer("telemetry/outer");
    {
      obs::Span inner("telemetry/inner");
    }
    obs::TraceCounter("telemetry/gauge", 2.5);
  }
  obs::StopTraceEvents();
  const std::string json = obs::ExportChromeTrace();

  // Container shape (golden): a traceEvents array with ms display units.
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u) << json;
  EXPECT_NE(json.find("], \"displayTimeUnit\": \"ms\"}"), std::string::npos);

  // Balanced duration events.
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
  EXPECT_GE(CountOccurrences(json, "\"ph\": \"B\""), 2u);

  // Both spans, the counter sample, and the thread-name metadata record.
  EXPECT_NE(json.find("\"name\": \"telemetry/outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"telemetry/inner\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"value\": 2.5}"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("telemetry-main"), std::string::npos);

  // Every object the exporter emits carries the stpt category or is a
  // metadata record; quotes and braces must pair up for the JSON to load.
  EXPECT_EQ(CountOccurrences(json, "{"), CountOccurrences(json, "}"));
  EXPECT_EQ(CountOccurrences(json, "\"") % 2, 0u);
}

TEST(TraceExportTest, RingTruncationStaysBalanced) {
  obs::StartTraceEvents(/*per_thread_capacity=*/5);
  for (int i = 0; i < 20; ++i) {
    obs::Span span("telemetry/ring");
  }
  obs::StopTraceEvents();
  const std::string json = obs::ExportChromeTrace();
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
}

TEST(TraceExportTest, ParallelRegionRendersWorkerLanes) {
  exec::SetThreads(4);
  obs::StartTraceEvents();
  {
    obs::Span span("telemetry/parallel_region");
    std::vector<double> out(1 << 12);
    exec::ParallelForRange(static_cast<int64_t>(out.size()),
                           [&](int64_t begin, int64_t end) {
                             for (int64_t i = begin; i < end; ++i) {
                               out[i] = static_cast<double>(i) * 0.5;
                             }
                           });
  }
  obs::StopTraceEvents();
  exec::SetThreads(0);
  const std::string json = obs::ExportChromeTrace();
  // Workers registered their lanes and tagged chunks with the dispatching
  // span's label.
  EXPECT_NE(json.find("stpt-worker-"), std::string::npos) << json;
  EXPECT_GE(CountOccurrences(json, "\"name\": \"telemetry/parallel_region\""), 3u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
}

TEST(TraceExportTest, WriteChromeTraceRoundTrips) {
  obs::StartTraceEvents();
  {
    obs::Span span("telemetry/file");
  }
  obs::StopTraceEvents();
  const std::string path = testing::TempDir() + "telemetry_trace.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), obs::ExportChromeTrace());
  std::remove(path.c_str());
}

// --------------------------- Structured logger ---------------------------

TEST(LogTest, ParsesLevelsAndRejectsJunk) {
  obs::LogLevel level;
  EXPECT_TRUE(obs::ParseLogLevel("debug", &level));
  EXPECT_EQ(level, obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::ParseLogLevel("off", &level));
  EXPECT_EQ(level, obs::LogLevel::kOff);
  EXPECT_FALSE(obs::ParseLogLevel("verbose", &level));
}

TEST(LogTest, JsonlSinkWritesStructuredRecords) {
  const std::string path = testing::TempDir() + "telemetry_log.jsonl";
  ASSERT_TRUE(obs::SetLogFile(path));
  obs::SetLogLevel(obs::LogLevel::kInfo);
  obs::Log(obs::LogLevel::kInfo, "test", "hello", {{"key", "value"}});
  obs::Log(obs::LogLevel::kDebug, "test", "filtered out");
  obs::SetLogLevel(obs::LogLevel::kWarn);  // restore the default
  ASSERT_TRUE(obs::SetLogFile(""));        // back to stderr
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"level\": \"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"component\": \"test\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"message\": \"hello\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"key\": \"value\""), std::string::npos);
  std::remove(path.c_str());
}

// --------------------------- Training telemetry ---------------------------

nn::WindowDataset SineDataset(int series_count, int length) {
  std::vector<std::vector<double>> series(series_count);
  for (int s = 0; s < series_count; ++s) {
    for (int t = 0; t < length; ++t) {
      series[s].push_back(0.5 + 0.4 * std::sin(0.3 * t + s));
    }
  }
  return nn::MakeWindows(series, /*window_size=*/4);
}

TEST(TrainingTelemetryTest, TrainLogHasOneRowPerEpochAndGaugesAreFinite) {
  Rng rng(11);
  nn::PredictorConfig pc;
  pc.window_size = 4;
  pc.embedding_size = 4;
  pc.hidden_size = 4;
  auto predictor = nn::SequencePredictor::Create(nn::ModelKind::kGru, pc, rng);
  const nn::WindowDataset ds = SineDataset(3, 24);

  nn::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 8;
  const std::string path = testing::TempDir() + "telemetry_loss.jsonl";
  tc.train_log_path = path;

  auto stats = nn::TrainPredictor(predictor.get(), ds, tc, rng);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->epoch_losses.size(), 4u);

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 4u);
  for (int e = 0; e < 4; ++e) {
    EXPECT_NE(lines[e].find("\"epoch\": " + std::to_string(e)),
              std::string::npos);
    EXPECT_NE(lines[e].find("\"loss\": "), std::string::npos);
    EXPECT_NE(lines[e].find("\"grad_norm\": "), std::string::npos);
    EXPECT_NE(lines[e].find("\"lr\": "), std::string::npos);
    EXPECT_NE(lines[e].find("\"batches\": "), std::string::npos);
  }
  std::remove(path.c_str());

  // The gauges track the final epoch exactly (Set, not averaged).
  obs::Gauge* loss_gauge =
      obs::Registry::Global().GetGauge("stpt_nn_epoch_loss", "");
  ASSERT_NE(loss_gauge, nullptr);
  EXPECT_TRUE(std::isfinite(loss_gauge->Value()));
  EXPECT_EQ(loss_gauge->Value(), stats->epoch_losses.back());
  obs::Gauge* lr_gauge =
      obs::Registry::Global().GetGauge("stpt_nn_learning_rate", "");
  ASSERT_NE(lr_gauge, nullptr);
  EXPECT_EQ(lr_gauge->Value(), tc.learning_rate);

  // Training phases land in the trace profile even with event capture off.
  bool saw_train = false, saw_epoch = false;
  for (const auto& entry : obs::TraceProfile()) {
    if (entry.region == "nn/train") saw_train = true;
    if (entry.region == "nn/train_epoch") saw_epoch = true;
  }
  EXPECT_TRUE(saw_train);
  EXPECT_TRUE(saw_epoch);
}

TEST(TrainingTelemetryTest, TracedTrainingShowsPerOpEvents) {
  Rng rng(5);
  nn::PredictorConfig pc;
  pc.window_size = 4;
  pc.embedding_size = 4;
  pc.hidden_size = 4;
  auto predictor = nn::SequencePredictor::Create(nn::ModelKind::kGru, pc, rng);
  const nn::WindowDataset ds = SineDataset(2, 16);
  nn::TrainConfig tc;
  tc.epochs = 1;
  obs::StartTraceEvents();
  ASSERT_TRUE(nn::TrainPredictor(predictor.get(), ds, tc, rng).ok());
  obs::StopTraceEvents();
  const std::string json = obs::ExportChromeTrace();
  // Forward and backward autograd ops appear as duration events, and the
  // per-epoch loss appears as a counter sample.
  EXPECT_NE(json.find("\"name\": \"nn/MatMul\""), std::string::npos);
  EXPECT_NE(json.find(".bwd\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"nn/epoch_loss\""), std::string::npos);
}

// --------------------------- Audit ledger ---------------------------

TEST(AuditLedgerTest, RecordsCompositionAndMatchesAccountantExactly) {
  auto accountant = dp::BudgetAccountant::Create(10.0);
  ASSERT_TRUE(accountant.ok());
  dp::AuditLedger ledger;
  accountant->AttachLedger(&ledger);

  ASSERT_TRUE(accountant->Charge("pattern", 1.25).ok());
  ASSERT_TRUE(
      accountant->Charge("sanitize", 0.75, dp::ChargeDetails{"laplace", 3.0})
          .ok());
  ASSERT_TRUE(
      accountant->Charge("sanitize", 2.5, dp::ChargeDetails{"laplace", 8.0})
          .ok());
  // Rejected charges must not be recorded.
  EXPECT_FALSE(accountant->Charge("pattern", 100.0).ok());

  const auto records = ledger.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].seq, 0u);
  EXPECT_EQ(records[1].seq, 1u);
  EXPECT_EQ(records[2].seq, 2u);
  EXPECT_EQ(records[0].stage, "pattern");
  EXPECT_EQ(records[0].composition, "sequential");
  EXPECT_EQ(records[1].composition, "sequential");  // opens the sanitize group
  EXPECT_EQ(records[2].composition, "parallel");    // repeat within the group
  EXPECT_EQ(records[2].sensitivity, 8.0);

  EXPECT_EQ(ledger.TotalEpsilonRaw(), 1.25 + 0.75 + 2.5);
  // Bitwise equality, not near-equality: the replay is the same arithmetic.
  EXPECT_EQ(ledger.ComposedEpsilon(), accountant->ConsumedEpsilon());
  EXPECT_EQ(ledger.ComposedEpsilon(), 1.25 + 2.5);
}

TEST(AuditLedgerTest, JsonlSinkMirrorsInMemoryRecords) {
  const std::string path = testing::TempDir() + "telemetry_ledger.jsonl";
  dp::AuditLedger ledger;
  ASSERT_TRUE(ledger.OpenFile(path).ok());
  auto accountant = dp::BudgetAccountant::Create(5.0);
  ASSERT_TRUE(accountant.ok());
  accountant->AttachLedger(&ledger);
  ASSERT_TRUE(accountant->Charge("a", 1.0).ok());
  ASSERT_TRUE(accountant->Charge("b", 2.0).ok());

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"seq\": 0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"stage\": \"a\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"consumed_after\": 3"), std::string::npos);
  std::ostringstream joined;
  for (const auto& line : lines) joined << line << "\n";
  EXPECT_EQ(ledger.ToJsonl(), joined.str());
  std::remove(path.c_str());
}

TEST(AuditLedgerTest, JsonlRoundTripsEscapedStageNames) {
  dp::AuditLedger ledger;
  dp::AuditRecord record;
  record.stage = "say \"hi\"\\now\nthen";
  record.mechanism = "laplace";
  record.epsilon = 0.5;
  record.composition = "sequential";
  record.consumed_after = 0.5;
  ledger.Append(record);
  const std::string jsonl = ledger.ToJsonl();
  // One line: the newline inside the stage name is escaped, not written.
  EXPECT_EQ(jsonl.find('\n'), jsonl.size() - 1) << jsonl;
  EXPECT_NE(jsonl.find("\"stage\": \"say \\\"hi\\\"\\\\now\\u000athen\""),
            std::string::npos)
      << jsonl;
  const std::vector<dp::AuditRecord> parsed = dp::AuditLedger::ParseJsonl(jsonl);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].stage, record.stage);
  EXPECT_EQ(parsed[0].mechanism, record.mechanism);
  EXPECT_EQ(parsed[0].epsilon, record.epsilon);
  EXPECT_EQ(parsed[0].composition, record.composition);
  EXPECT_EQ(parsed[0].consumed_after, record.consumed_after);
}

grid::ConsumptionMatrix PipelineMatrix(grid::Dims dims) {
  auto m = grid::ConsumptionMatrix::Create(dims);
  EXPECT_TRUE(m.ok());
  for (int x = 0; x < dims.cx; ++x) {
    for (int y = 0; y < dims.cy; ++y) {
      for (int t = 0; t < dims.ct; ++t) {
        m->set(x, y, t, (x + y) * 2.0 + std::sin(2.0 * M_PI * t / 12.0) + 2.0);
      }
    }
  }
  return std::move(m).value();
}

core::StptConfig PipelineConfig() {
  core::StptConfig cfg;
  cfg.eps_pattern = 10.0;
  cfg.eps_sanitize = 20.0;
  cfg.t_train = 16;
  cfg.quadtree_depth = 2;
  cfg.quantization_levels = 4;
  cfg.predictor.window_size = 3;
  cfg.predictor.embedding_size = 6;
  cfg.predictor.hidden_size = 6;
  cfg.training.epochs = 2;
  cfg.training.batch_size = 8;
  return cfg;
}

TEST(AuditLedgerTest, FullPipelineLedgerSumsToAccountantSpend) {
  const auto cons = PipelineMatrix({4, 4, 32});
  core::StptConfig cfg = PipelineConfig();
  dp::AuditLedger ledger;
  cfg.audit_ledger = &ledger;
  Rng rng(42);
  auto result = core::Stpt(cfg).Publish(cons, 1.0, rng);
  ASSERT_TRUE(result.ok());

  // One pattern charge plus one charge per positively-budgeted partition.
  const auto records = ledger.records();
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records[0].stage, "pattern");
  EXPECT_EQ(records[0].epsilon, cfg.eps_pattern);
  size_t positive_partitions = 0;
  for (double e : result->partition_epsilons) {
    if (e > 0.0) ++positive_partitions;
  }
  EXPECT_EQ(records.size(), 1u + positive_partitions);
  for (const auto& r : records) {
    EXPECT_EQ(r.mechanism, "laplace");
    EXPECT_GT(r.epsilon, 0.0);
  }

  // The headline invariant: replaying the ledger reproduces the
  // accountant's composed spend EXACTLY, as exported via the budget gauge.
  obs::Gauge* consumed =
      obs::Registry::Global().GetGauge("stpt_core_epsilon_consumed", "");
  ASSERT_NE(consumed, nullptr);
  EXPECT_EQ(ledger.ComposedEpsilon(), consumed->Value());
  EXPECT_EQ(ledger.records().back().consumed_after, consumed->Value());
  // And it matches the pipeline's own outputs: eps_pattern + max partition.
  double max_eps = 0.0;
  for (double e : result->partition_epsilons) max_eps = std::max(max_eps, e);
  EXPECT_EQ(ledger.ComposedEpsilon(), cfg.eps_pattern + max_eps);
}

// --------------------------- Determinism ---------------------------

TEST(TracingDeterminismTest, PublishedOutputIsBitIdenticalWithTracingOn) {
  const auto cons = PipelineMatrix({4, 4, 32});
  const core::StptConfig cfg = PipelineConfig();

  Rng rng_off(7);
  auto plain = core::Stpt(cfg).Publish(cons, 1.0, rng_off);
  ASSERT_TRUE(plain.ok());

  exec::SetThreads(3);
  obs::StartTraceEvents();
  Rng rng_on(7);
  auto traced = core::Stpt(cfg).Publish(cons, 1.0, rng_on);
  obs::StopTraceEvents();
  exec::SetThreads(0);
  ASSERT_TRUE(traced.ok());

  ASSERT_EQ(plain->sanitized.size(), traced->sanitized.size());
  for (size_t i = 0; i < plain->sanitized.size(); ++i) {
    EXPECT_EQ(plain->sanitized.data()[i], traced->sanitized.data()[i]) << i;
  }
}

}  // namespace
}  // namespace stpt
