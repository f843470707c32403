#include "core/stpt.h"

#include <algorithm>
#include <cmath>

#include "core/budget_allocation.h"
#include "core/htf_partition.h"
#include "dp/budget_accountant.h"
#include "dp/mechanisms.h"
#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/metrics.h"

namespace stpt::core {
namespace {

/// Pipeline instrumentation (process-wide registry), resolved once.
obs::Counter& Publishes() {
  static obs::Counter* c = obs::Registry::Global().GetCounter(
      "stpt_core_publishes_total", "Completed Stpt::Publish pipeline runs");
  return *c;
}

obs::Histogram* StageNs(const char* name, const char* help) {
  return obs::Registry::Global().GetHistogram(name, help, obs::LatencyBucketsNs());
}

obs::Histogram* PatternNs() {
  static obs::Histogram* h = StageNs("stpt_core_pattern_recognition_ns",
                                     "Pattern recognition stage wall time");
  return h;
}

obs::Histogram* PartitionNs() {
  static obs::Histogram* h =
      StageNs("stpt_core_partition_ns", "Quantization / HTF partition wall time");
  return h;
}

obs::Histogram* BudgetNs() {
  static obs::Histogram* h =
      StageNs("stpt_core_budget_allocation_ns", "Budget allocation wall time");
  return h;
}

obs::Histogram* SanitizeNs() {
  static obs::Histogram* h =
      StageNs("stpt_core_sanitize_ns", "Aggregate + noise + spread wall time");
  return h;
}

/// Privacy-budget gauges, refreshed from the accountant after each charge.
void ExportBudget(const dp::BudgetAccountant& accountant) {
  static obs::Gauge* total = obs::Registry::Global().GetGauge(
      "stpt_core_epsilon_total", "Total privacy budget configured for Publish");
  static obs::Gauge* consumed = obs::Registry::Global().GetGauge(
      "stpt_core_epsilon_consumed", "Privacy budget consumed (composed)");
  static obs::Gauge* remaining = obs::Registry::Global().GetGauge(
      "stpt_core_epsilon_remaining", "Privacy budget remaining");
  total->Set(accountant.total_epsilon());
  consumed->Set(accountant.ConsumedEpsilon());
  remaining->Set(accountant.RemainingEpsilon());
  if (obs::TraceEventsEnabled()) {
    obs::TraceCounter("dp/epsilon_consumed", accountant.ConsumedEpsilon());
    obs::TraceCounter("dp/epsilon_remaining", accountant.RemainingEpsilon());
  }
}

}  // namespace

StatusOr<grid::ConsumptionMatrix> TestRegion(const grid::ConsumptionMatrix& cons,
                                             int t_train) {
  const grid::Dims& dims = cons.dims();
  if (t_train < 0 || t_train >= dims.ct) {
    return Status::InvalidArgument("TestRegion: t_train out of range");
  }
  const int test_len = dims.ct - t_train;
  auto out_or = grid::ConsumptionMatrix::Create({dims.cx, dims.cy, test_len});
  STPT_RETURN_IF_ERROR(out_or.status());
  grid::ConsumptionMatrix out = std::move(out_or).value();
  for (int x = 0; x < dims.cx; ++x) {
    for (int y = 0; y < dims.cy; ++y) {
      for (int t = 0; t < test_len; ++t) {
        out.set(x, y, t, cons.at(x, y, t_train + t));
      }
    }
  }
  return out;
}

StatusOr<StptResult> Stpt::Publish(const grid::ConsumptionMatrix& cons,
                                   double unit_sensitivity, Rng& rng) const {
  if (!(unit_sensitivity > 0.0)) {
    return Status::InvalidArgument("Stpt: unit_sensitivity must be > 0");
  }
  if (!(config_.eps_pattern > 0.0) || !(config_.eps_sanitize > 0.0)) {
    return Status::InvalidArgument("Stpt: budgets must be > 0");
  }
  // The accountant composes the two sequential stages (Theorem 1) and backs
  // the stpt_core_epsilon_* gauges; a charge past the configured total is a
  // programming error surfaced as FailedPrecondition.
  auto accountant_or =
      dp::BudgetAccountant::Create(config_.eps_pattern + config_.eps_sanitize);
  STPT_RETURN_IF_ERROR(accountant_or.status());
  dp::BudgetAccountant accountant = std::move(accountant_or).value();
  accountant.AttachLedger(config_.audit_ledger);
  // --- Normalise (Eq. 6) and run pattern recognition on the prefix. ---
  const grid::ConsumptionMatrix norm = cons.Normalized();
  const double range = std::max(cons.MaxValue() - cons.MinValue(), 1e-12);
  const double cell_sens_norm = std::min(1.0, unit_sensitivity / range);

  auto pattern_or = [&] {
    obs::Span span("stpt/pattern_recognition", PatternNs());
    return RunPatternRecognition(norm, config_, cell_sens_norm, rng);
  }();
  STPT_RETURN_IF_ERROR(pattern_or.status());
  PatternResult pattern = std::move(pattern_or).value();
  STPT_RETURN_IF_ERROR(accountant.Charge(
      "pattern", config_.eps_pattern,
      dp::ChargeDetails{"laplace", cell_sens_norm}));
  ExportBudget(accountant);

  StptResult result;
  result.train_stats = std::move(pattern.train_stats);

  // Pattern quality diagnostics against the true normalised test region.
  auto norm_test_or = TestRegion(norm, config_.t_train);
  STPT_RETURN_IF_ERROR(norm_test_or.status());
  result.pattern_mae = query::MatrixMae(*norm_test_or, pattern.pattern);
  result.pattern_rmse = query::MatrixRmse(*norm_test_or, pattern.pattern);

  // --- k-quantize C_pattern into partitions (Alg. 1 line 15). ---
  const int k = config_.use_quantization
                    ? config_.quantization_levels
                    : static_cast<int>(pattern.pattern.size());
  Quantization quant;
  if (config_.use_quantization) {
    auto quant_or = [&] {
      obs::Span span("stpt/partition", PartitionNs());
      return config_.partitioning == StptConfig::PartitionStrategy::kHtf
                 ? HtfPartition(pattern.pattern, config_.htf_max_partitions)
                 : KQuantize(pattern.pattern, k);
    }();
    STPT_RETURN_IF_ERROR(quant_or.status());
    quant = std::move(quant_or).value();
  } else {
    // Ablation: singleton partitions (every cell on its own).
    quant.levels = k;
    quant.min_value = pattern.pattern.MinValue();
    quant.max_value = pattern.pattern.MaxValue();
    quant.bucket.resize(pattern.pattern.size());
    quant.bucket_sizes.assign(k, 1);
    for (size_t i = 0; i < quant.bucket.size(); ++i) {
      quant.bucket[i] = static_cast<int>(i);
    }
  }
  const grid::Dims test_dims = pattern.pattern.dims();

  // --- Partition sensitivities (Theorem 7) and budgets (Eq. 11). ---
  std::vector<double> sens(quant.levels, 0.0);
  if (config_.use_quantization) {
    const std::vector<int> pillar_counts = PartitionPillarCounts(quant, test_dims);
    for (int b = 0; b < quant.levels; ++b) {
      sens[b] = pillar_counts[b] * unit_sensitivity;
    }
  } else {
    // Singleton partitions: each holds one cell of one pillar.
    std::fill(sens.begin(), sens.end(), unit_sensitivity);
  }
  auto eps_or = [&] {
    obs::Span span("stpt/budget_allocation", BudgetNs());
    return AllocateBudget(sens, config_.eps_sanitize, config_.allocation);
  }();
  STPT_RETURN_IF_ERROR(eps_or.status());
  const std::vector<double> eps = std::move(eps_or).value();

  // --- Aggregate, sanitize, and spread (Alg. 1 lines 16-21). ---
  auto truth_test_or = TestRegion(cons, config_.t_train);
  STPT_RETURN_IF_ERROR(truth_test_or.status());
  const grid::ConsumptionMatrix& truth_test = *truth_test_or;

  obs::Span sanitize_span("stpt/sanitize", SanitizeNs());
  std::vector<double> partition_sums(quant.levels, 0.0);
  for (size_t i = 0; i < quant.bucket.size(); ++i) {
    partition_sums[quant.bucket[i]] += truth_test.data()[i];
  }
  // Partition b draws its Laplace noise from the substream Fork(b), not
  // from one shared sequential stream, so the release is independent of
  // sanitization order and bit-identical at any thread count.
  const Rng noise_base = rng.Fork();
  std::vector<double> released_means(quant.levels, 0.0);
  exec::ParallelFor(quant.levels, [&](int64_t b) {
    if (quant.bucket_sizes[b] == 0) return;
    Rng sub = noise_base.Fork(static_cast<uint64_t>(b));
    const double noisy = eps[b] > 0.0
                             ? partition_sums[b] + sub.Laplace(sens[b] / eps[b])
                             : partition_sums[b];
    released_means[b] = noisy / static_cast<double>(quant.bucket_sizes[b]);
  });

  auto sanitized_or = grid::ConsumptionMatrix::Create(test_dims);
  STPT_RETURN_IF_ERROR(sanitized_or.status());
  result.sanitized = std::move(sanitized_or).value();
  exec::ParallelForRange(
      static_cast<int64_t>(quant.bucket.size()), [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          result.sanitized.mutable_data()[i] = released_means[quant.bucket[i]];
        }
      });

  // The per-partition epsilons compose in parallel over disjoint partitions
  // (Theorem 2), so the sanitize stage consumes max(eps) — which AllocateBudget
  // keeps within eps_sanitize by construction. Charging each partition under
  // the one "sanitize" group records every release in the audit ledger while
  // the accountant's per-group max keeps the composed spend at max(eps).
  bool charged_sanitize = false;
  for (int b = 0; b < quant.levels; ++b) {
    if (!(eps[b] > 0.0)) continue;
    STPT_RETURN_IF_ERROR(accountant.Charge(
        "sanitize", eps[b], dp::ChargeDetails{"laplace", sens[b]}));
    charged_sanitize = true;
  }
  if (!charged_sanitize) {
    STPT_RETURN_IF_ERROR(accountant.Charge(
        "sanitize", eps.empty() ? 0.0 : *std::max_element(eps.begin(), eps.end())));
  }
  ExportBudget(accountant);
  Publishes().Increment();

  result.pattern = std::move(pattern.pattern);
  result.quantization = std::move(quant);
  result.partition_epsilons = eps;
  result.partition_sensitivities = std::move(sens);
  return result;
}

}  // namespace stpt::core
