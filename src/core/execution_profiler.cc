#include "core/execution_profiler.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace redoop {

ExecutionProfiler::ExecutionProfiler(double alpha, double beta)
    : alpha_(alpha), beta_(beta) {
  REDOOP_CHECK(alpha > 0.0 && alpha <= 1.0) << "alpha out of (0,1]: " << alpha;
  REDOOP_CHECK(beta > 0.0 && beta <= 1.0) << "beta out of (0,1]: " << beta;
}

void ExecutionProfiler::Observe(double execution_time,
                                int64_t bytes_processed) {
  REDOOP_CHECK(execution_time >= 0.0);
  // Holt's forecast made *before* this observation arrived — the number a
  // proactive-mode decision would have used. Journaled below against the
  // actual so forecast error is a first-class tracked distribution.
  const bool had_forecast = count_ > 0;
  const double predicted = had_forecast ? Forecast(1) : 0.0;

  last_x_ = execution_time;
  last_bytes_ = bytes_processed;
  if (count_ == 0) {
    level_ = execution_time;
    trend_ = 0.0;
  } else {
    const double prev_level = level_;
    level_ = alpha_ * execution_time + (1.0 - alpha_) * (level_ + trend_);
    trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
  }
  ++count_;

  if (scope_.active()) {
    obs::Event& e = scope_.Emit(obs::event::kProfilerObserve);
    e.With("observation", count_)
        .With("actual", execution_time)
        .With("bytes", bytes_processed)
        .With("level", level_)
        .With("trend", trend_);
    if (had_forecast) {
      const double abs_error = std::abs(predicted - execution_time);
      e.With("predicted", predicted).With("abs_error", abs_error);
    }
  }
}

double ExecutionProfiler::Forecast(int64_t k) const {
  REDOOP_CHECK(count_ > 0) << "Forecast before any observation";
  REDOOP_CHECK(k >= 1);
  const double forecast = level_ + static_cast<double>(k) * trend_;
  return forecast < 0.0 ? 0.0 : forecast;
}

double ExecutionProfiler::ScaleFactor() const {
  if (count_ < 2 || last_x_ <= 0.0) return 1.0;
  return Forecast(1) / last_x_;
}

void ExecutionProfiler::Reset() {
  level_ = 0.0;
  trend_ = 0.0;
  last_x_ = 0.0;
  last_bytes_ = 0;
  count_ = 0;
}

std::pair<double, double> ExecutionProfiler::FitSmoothingParams(
    const std::vector<double>& history) {
  REDOOP_CHECK(history.size() >= 3)
      << "need at least 3 observations to fit smoothing parameters";
  double best_alpha = 0.5;
  double best_beta = 0.3;
  double best_sse = std::numeric_limits<double>::infinity();
  for (int ai = 1; ai <= 20; ++ai) {
    for (int bi = 1; bi <= 20; ++bi) {
      const double alpha = ai * 0.05;
      const double beta = bi * 0.05;
      ExecutionProfiler p(alpha, beta);
      double sse = 0.0;
      for (double x : history) {
        if (p.observation_count() > 0) {
          const double err = p.Forecast(1) - x;
          sse += err * err;
        }
        p.Observe(x);
      }
      if (sse < best_sse) {
        best_sse = sse;
        best_alpha = alpha;
        best_beta = beta;
      }
    }
  }
  return {best_alpha, best_beta};
}

}  // namespace redoop
