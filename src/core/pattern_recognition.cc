#include "core/pattern_recognition.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "dp/mechanisms.h"
#include "exec/parallel.h"
#include "nn/predictor.h"
#include "obs/trace.h"

namespace stpt::core {

Status SanitizeQuadtreeLevels(std::vector<grid::QuadtreeLevel>* levels,
                              double eps_pattern, int t_train,
                              double cell_sensitivity_normalized, Rng& rng) {
  if (!(eps_pattern > 0.0)) {
    return Status::InvalidArgument("SanitizeQuadtreeLevels: eps_pattern must be > 0");
  }
  if (t_train <= 0) {
    return Status::InvalidArgument("SanitizeQuadtreeLevels: t_train must be > 0");
  }
  if (!(cell_sensitivity_normalized > 0.0)) {
    return Status::InvalidArgument(
        "SanitizeQuadtreeLevels: cell sensitivity must be > 0");
  }
  const double eps_per_point = eps_pattern / static_cast<double>(t_train);
  // Each neighborhood draws its noise from the substream Fork(i) of a
  // single base fork, where i is the neighborhood's position in (level,
  // neighborhood) enumeration order. The release is therefore independent
  // of traversal order and bit-identical at any thread count.
  struct NoiseTask {
    std::vector<double>* series;
    double scale;
  };
  std::vector<NoiseTask> tasks;
  for (auto& level : *levels) {
    for (auto& nb : level.neighborhoods) {
      // Theorem 6: averaging over num_cells cells divides the sensitivity.
      const double sens = cell_sensitivity_normalized / nb.num_cells;
      tasks.push_back({&nb.series, sens / eps_per_point});
    }
  }
  const Rng base = rng.Fork();
  exec::ParallelFor(static_cast<int64_t>(tasks.size()), [&](int64_t i) {
    Rng sub = base.Fork(static_cast<uint64_t>(i));
    for (double& v : *tasks[i].series) v += sub.Laplace(tasks[i].scale);
  });
  return Status::OK();
}

StatusOr<PatternResult> RunPatternRecognition(const grid::ConsumptionMatrix& norm,
                                              const StptConfig& config,
                                              double cell_sensitivity_normalized,
                                              Rng& rng) {
  const grid::Dims& dims = norm.dims();
  if (config.t_train <= 0 || config.t_train >= dims.ct) {
    return Status::InvalidArgument(
        "RunPatternRecognition: t_train must be in (0, ct)");
  }
  const int depth = config.quadtree_depth >= 0 ? config.quadtree_depth
                                               : grid::DefaultQuadtreeDepth(dims);

  // 1. Build + sanitize the spatio-temporal quadtree (Alg. 1 lines 5-11).
  auto levels_or = grid::BuildQuadtreeLevels(norm, config.t_train, depth);
  STPT_RETURN_IF_ERROR(levels_or.status());
  std::vector<grid::QuadtreeLevel> levels = std::move(levels_or).value();
  STPT_RETURN_IF_ERROR(SanitizeQuadtreeLevels(&levels, config.eps_pattern,
                                              config.t_train,
                                              cell_sensitivity_normalized, rng));

  // 2. Window the stacked sanitized series and train the predictor
  //    (Alg. 1 lines 12-13). Windows never straddle two series.
  std::vector<std::vector<double>> series;
  for (const auto& level : levels) {
    for (const auto& nb : level.neighborhoods) series.push_back(nb.series);
  }
  const nn::WindowDataset dataset =
      nn::MakeWindows(series, config.predictor.window_size);
  if (dataset.size() == 0) {
    return Status::FailedPrecondition(
        "RunPatternRecognition: quadtree segments shorter than the window; "
        "reduce depth or window size");
  }
  PatternResult result;
  result.predictor = nn::SequencePredictor::Create(config.model, config.predictor, rng);
  auto stats_or = [&] {
    obs::Span timer("stpt/train_predictor");
    return nn::TrainPredictor(result.predictor.get(), dataset, config.training, rng);
  }();
  STPT_RETURN_IF_ERROR(stats_or.status());
  result.train_stats = std::move(stats_or).value();

  // 3. Roll out C_pattern autoregressively over the test region
  //    (Alg. 1 line 14), batched across all cells.
  const int ws = config.predictor.window_size;
  const int test_len = dims.ct - config.t_train;
  auto pattern_or = grid::ConsumptionMatrix::Create({dims.cx, dims.cy, test_len});
  STPT_RETURN_IF_ERROR(pattern_or.status());
  result.pattern = std::move(pattern_or).value();

  obs::Span rollout_timer("stpt/rollout");
  const int num_cells = dims.cx * dims.cy;
  if (config.rollout == RolloutMode::kAutoregressive) {
    // Seed each cell's window with the tail of the finest sanitized series
    // covering it (the only per-cell-resolution private signal available)
    // and let the model feed on its own predictions.
    const grid::QuadtreeLevel& finest = levels.back();
    std::vector<std::vector<double>> window(num_cells, std::vector<double>(ws, 0.0));
    for (const auto& nb : finest.neighborhoods) {
      std::vector<double> seed(ws);
      const auto& s = nb.series;
      for (int i = 0; i < ws; ++i) {
        const int64_t src = static_cast<int64_t>(s.size()) - ws + i;
        seed[i] = s.empty() ? 0.0 : s[std::max<int64_t>(0, src)];
      }
      for (int x = nb.x0; x <= nb.x1; ++x) {
        for (int y = nb.y0; y <= nb.y1; ++y) window[x * dims.cy + y] = seed;
      }
    }
    for (int t = 0; t < test_len; ++t) {
      std::vector<double> flat(static_cast<size_t>(num_cells) * ws);
      for (int c = 0; c < num_cells; ++c) {
        std::copy(window[c].begin(), window[c].end(),
                  flat.begin() + static_cast<size_t>(c) * ws);
      }
      const nn::Tensor x = nn::Tensor::FromVector({num_cells, ws, 1}, flat);
      const nn::Tensor pred = result.predictor->Forward(x);
      for (int c = 0; c < num_cells; ++c) {
        // Estimates of a min-max-normalised quantity live in [0, 1]; the
        // clamp is post-processing and keeps the autoregression stable.
        const double v = Clamp(pred.data()[c], 0.0, 1.0);
        result.pattern.set(c / dims.cy, c % dims.cy, t, v);
        window[c].erase(window[c].begin());
        window[c].push_back(v);
      }
    }
  } else {
    // Level-anchored roll-out: macro temporal pattern from the model, micro
    // spatial level per cell from the finest sanitized series. Everything
    // consumed here is sanitized, so the output is DP (Theorem 3).
    //
    // Macro series over the training prefix: at each time t, the spatial
    // average of the level owning t equals the average of its neighborhood
    // representatives weighted by cell count.
    std::vector<double> macro(config.t_train, 0.0);
    for (const auto& level : levels) {
      for (int t = level.t_begin; t < level.t_end; ++t) {
        double weighted = 0.0;
        for (const auto& nb : level.neighborhoods) {
          weighted += nb.series[t - level.t_begin] * nb.num_cells;
        }
        macro[t] = weighted / static_cast<double>(num_cells);
      }
    }
    double macro_mean = 0.0;
    for (double v : macro) macro_mean += v;
    macro_mean /= static_cast<double>(config.t_train);
    macro_mean = std::max(macro_mean, 1e-6);

    // Roll the macro series forward with the model.
    std::vector<double> window(macro.end() - std::min<size_t>(ws, macro.size()),
                               macro.end());
    while (static_cast<int>(window.size()) < ws) {
      window.insert(window.begin(), window.empty() ? 0.0 : window.front());
    }
    std::vector<double> macro_test(test_len);
    for (int t = 0; t < test_len; ++t) {
      const nn::Tensor x = nn::Tensor::FromVector({1, ws, 1}, window);
      const double v = Clamp(result.predictor->Forward(x).data()[0], 0.0, 1.0);
      macro_test[t] = v;
      window.erase(window.begin());
      window.push_back(v);
    }

    // Per-cell anchor via hierarchical empirical-Bayes shrinkage across the
    // quadtree. Each level observes every neighborhood's *relative* level
    // (segment mean / macro segment mean) with a known Laplace noise
    // variance; the posterior combines the observation with the parent
    // neighborhood's estimate, weighted by the (sanitized-data) estimate of
    // the between-neighborhood signal variance at that level. Coarse levels
    // have tiny noise and dominate when fine levels are drowned; fine levels
    // take over when their SNR supports it.
    const double eps_per_point = config.eps_pattern / config.t_train;
    std::vector<double> anchor(num_cells, 1.0);  // relative level per cell
    for (const auto& level : levels) {
      // Macro mean over this level's segment.
      double seg_macro = 0.0;
      for (int t = level.t_begin; t < level.t_end; ++t) seg_macro += macro[t];
      seg_macro /= static_cast<double>(std::max(1, level.t_end - level.t_begin));
      seg_macro = std::max(seg_macro, 1e-6);
      const int seg_len = std::max(1, level.t_end - level.t_begin);

      // Per-neighborhood relative observation + its noise variance.
      std::vector<double> obs(level.neighborhoods.size());
      for (size_t i = 0; i < level.neighborhoods.size(); ++i) {
        const auto& nb = level.neighborhoods[i];
        double mean = 0.0;
        for (double v : nb.series) mean += v;
        mean /= static_cast<double>(std::max<size_t>(1, nb.series.size()));
        obs[i] = mean / seg_macro;
      }
      // Laplace(b) variance is 2 b^2 with b matching SanitizeQuadtreeLevels'
      // per-point scale; the segment mean averages seg_len points and the
      // division by seg_macro rescales. Neighborhoods of one level share
      // (near-)equal cell counts, so use the first as representative.
      const double b = cell_sensitivity_normalized *
                       level.neighborhoods[0].sensitivity / eps_per_point;
      const double obs_var =
          2.0 * b * b / static_cast<double>(seg_len) / (seg_macro * seg_macro);

      // Between-neighborhood signal variance at this level, estimated from
      // the sanitized observations themselves (empirical Bayes).
      double obs_mean = 0.0;
      for (double o : obs) obs_mean += o;
      obs_mean /= static_cast<double>(obs.size());
      double emp_var = 0.0;
      for (double o : obs) emp_var += (o - obs_mean) * (o - obs_mean);
      emp_var /= static_cast<double>(std::max<size_t>(1, obs.size() - 1));
      const double tau = std::max(emp_var - obs_var, 1e-6);
      const double w = tau / (tau + obs_var);

      for (size_t i = 0; i < level.neighborhoods.size(); ++i) {
        const auto& nb = level.neighborhoods[i];
        for (int x = nb.x0; x <= nb.x1; ++x) {
          for (int y = nb.y0; y <= nb.y1; ++y) {
            double& a = anchor[x * dims.cy + y];
            a = w * obs[i] + (1.0 - w) * a;
          }
        }
      }
    }

    for (int c = 0; c < num_cells; ++c) {
      const double level_c = std::max(0.0, anchor[c]);
      for (int t = 0; t < test_len; ++t) {
        const double v = Clamp(level_c * macro_test[t], 0.0, 1.0);
        result.pattern.set(c / dims.cy, c % dims.cy, t, v);
      }
    }
  }

  result.sanitized_levels = std::move(levels);
  return result;
}

}  // namespace stpt::core
