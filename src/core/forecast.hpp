// The forecast model of the predictive controllers (paper Sec. V-B), shared
// by the two-tier (predictive.hpp) and n-tier (ntier.hpp) controllers.
#pragma once

#include <cstdint>
#include <vector>

namespace sora::core {

/// Zero-mean Gaussian noise on the demand and price series, sd = error_pct
/// * the series' temporal mean.
struct PredictionModel {
  double error_pct = 0.0;   // noise sd as a fraction of the temporal mean
  std::uint64_t seed = 1;
};

/// Add `model`'s noise in place to the [t][entity] series `demand` (floored
/// at 0) and `price` (floored at 1e-3), entity by entity, demand first, from
/// one RNG seeded with model.seed. error_pct 0 leaves both exact.
void add_forecast_noise(const PredictionModel& model,
                        std::vector<std::vector<double>>& demand,
                        std::vector<std::vector<double>>& price);

}  // namespace sora::core
