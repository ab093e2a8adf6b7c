#ifndef REDOOP_CORE_EXECUTION_PROFILER_H_
#define REDOOP_CORE_EXECUTION_PROFILER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/telemetry_scope.h"

namespace redoop {

/// Collects per-recurrence execution statistics and forecasts upcoming
/// execution times with Holt's double exponential smoothing (paper §3.3,
/// Eqs. 1-3):
///   L_i = a*X_i + (1-a)(L_{i-1} + T_{i-1})
///   T_i = b*(L_i - L_{i-1}) + (1-b)*T_{i-1}
///   X̂_{i+k} = L_i + k*T_i
class ExecutionProfiler {
 public:
  /// `alpha` smooths the level, `beta` the trend; both in (0, 1].
  explicit ExecutionProfiler(double alpha = 0.5, double beta = 0.3);

  /// Records the execution time (seconds) and input volume of the just
  /// finished recurrence.
  void Observe(double execution_time, int64_t bytes_processed = 0);

  /// X̂_{i+k}: forecast for the k-th next recurrence. Requires at least one
  /// observation; with a single observation the trend is zero.
  double Forecast(int64_t k = 1) const;

  /// Forecast / most recent observation — the scale factor the Semantic
  /// Analyzer uses to resize panes (§3.3). Returns 1 with < 2 observations.
  double ScaleFactor() const;

  double level() const { return level_; }
  double trend() const { return trend_; }
  int64_t observation_count() const { return count_; }
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  double last_observation() const { return last_x_; }
  int64_t last_bytes() const { return last_bytes_; }

  void Reset();

  /// Journals prediction-vs-actual per Observe() (profiler.observe events
  /// plus forecast-error histograms) with the scope's attribution.
  void set_telemetry(obs::TelemetryScope scope) {
    scope_ = std::move(scope);
  }

  /// Selects (alpha, beta) by dense grid search minimizing the one-step
  /// squared forecast error over a historical series ("selected by fitting
  /// historical data", §3.3). Requires history.size() >= 3.
  static std::pair<double, double> FitSmoothingParams(
      const std::vector<double>& history);

 private:
  double alpha_;
  double beta_;
  double level_ = 0.0;
  double trend_ = 0.0;
  double last_x_ = 0.0;
  int64_t last_bytes_ = 0;
  int64_t count_ = 0;
  obs::TelemetryScope scope_;
};

}  // namespace redoop

#endif  // REDOOP_CORE_EXECUTION_PROFILER_H_
