#include "eval/scenarios.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace sora::eval {

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kWikipedia: return "wikipedia";
    case Workload::kWorldCup: return "worldcup";
  }
  return "?";
}

EvalScale EvalScale::from_env() {
  EvalScale scale;
  if (util::env_flag("REPRO_FULL")) {
    scale.num_tier2 = 18;
    scale.num_tier1 = 48;
    scale.horizon_wikipedia = 500;
    scale.horizon_worldcup = 600;
    scale.full = true;
  }
  return scale;
}

core::Instance build_eval_instance(const Scenario& scenario,
                                   const EvalScale& scale) {
  util::Rng rng(scenario.seed);
  cloudnet::WorkloadTrace trace;
  switch (scenario.workload) {
    case Workload::kWikipedia:
      trace = cloudnet::wikipedia_like(scale.horizon_wikipedia, rng);
      break;
    case Workload::kWorldCup:
      trace = cloudnet::worldcup_like(scale.horizon_worldcup, rng);
      break;
  }
  cloudnet::InstanceConfig cfg;
  cfg.num_tier2 = scale.num_tier2;
  cfg.num_tier1 = scale.num_tier1;
  cfg.sla_k = scenario.sla_k;
  cfg.reconfig_weight = scenario.reconfig_weight;
  cfg.seed = scenario.seed + 17;
  return cloudnet::build_instance(cfg, trace);
}

std::size_t AdversarialInstance::num_greedy() const {
  std::size_t count = 0;
  for (const char g : greedy) count += g ? 1 : 0;
  return count;
}

AdversarialInstance build_misreport_instance(const Scenario& scenario,
                                             const EvalScale& scale,
                                             const MisreportSpec& spec) {
  SORA_CHECK(spec.greedy_fraction >= 0.0 && spec.greedy_fraction <= 1.0);
  SORA_CHECK(spec.inflation >= 1.0);
  AdversarialInstance adv;
  adv.reported = build_eval_instance(scenario, scale);
  adv.true_demand = adv.reported.demand;

  const std::size_t J = adv.reported.num_tier1();
  adv.greedy.assign(J, 0);
  const std::size_t num_greedy = static_cast<std::size_t>(
      spec.greedy_fraction * static_cast<double>(J) + 0.5);

  util::Rng rng(spec.seed);
  const std::vector<std::size_t> pick = rng.permutation(J);
  for (std::size_t k = 0; k < num_greedy; ++k) adv.greedy[pick[k]] = 1;

  // The instance was provisioned with the default capacity margin (peak
  // consumes 1/margin of capacity), so a reported lambda_jt up to
  // margin * peak_j keeps the even-split allocation feasible for EVERY site
  // simultaneously — inflation beyond that is clamped instead of producing
  // an unsolvable model (greedy tenants do not get to crash the allocator).
  const double margin = cloudnet::InstanceConfig{}.capacity_margin;
  for (std::size_t j = 0; j < J; ++j) {
    if (!adv.greedy[j]) continue;
    double peak = 0.0;
    for (std::size_t t = 0; t < adv.reported.horizon; ++t)
      peak = std::max(peak, adv.true_demand[t][j]);
    const double factor =
        spec.inflation * (1.0 + spec.jitter * (2.0 * rng.uniform() - 1.0));
    const double cap = margin * peak;
    for (std::size_t t = 0; t < adv.reported.horizon; ++t) {
      const double truth = adv.true_demand[t][j];
      adv.reported.demand[t][j] =
          std::min(std::max(factor, 1.0) * truth, std::max(cap, truth));
    }
  }
  return adv;
}

solver::LpSolveOptions offline_lp_options(const EvalScale& scale) {
  solver::LpSolveOptions lp;
  // The offline LPs are past the simplex size limit, so PDHG answers them.
  // At full scale, trade a little accuracy for wall-clock: cost ratios in
  // the paper are reported to ~2 digits.
  lp.pdhg.eps_rel = scale.full ? 3e-5 : 2e-5;
  lp.pdhg.max_iterations = scale.full ? 400000 : 300000;
  // Cost ratios are reported to ~2 digits; accept a stalled tail within
  // 20x the tolerance (worst case ~4e-4 relative KKT error).
  lp.pdhg.accept_factor = 20.0;
  return lp;
}

}  // namespace sora::eval
