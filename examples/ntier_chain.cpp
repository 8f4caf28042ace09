// Scenario example: the N-tier generalization (Sec. III-E). Builds a
// 4-tier chain (edge -> metro -> regional -> core), runs the generalized
// regularized online algorithm, and shows per-tier resource totals over
// time next to the greedy and offline baselines.
//
//   $ ./examples/ntier_chain [--b WEIGHT] [--hours N]
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/ntier.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace sora;
  const auto opts = util::Options::parse(argc, argv, {"b", "hours"});
  const double b = opts.get_double("b", 200.0);
  const std::size_t hours =
      static_cast<std::size_t>(opts.get_int("hours", 48));

  util::Rng rng(5);
  std::vector<double> trace(hours);
  for (std::size_t t = 0; t < hours; ++t)
    trace[t] = 0.55 + 0.4 * std::sin(0.26 * static_cast<double>(t)) +
               0.05 * rng.uniform();

  core::NTierConfig cfg;
  cfg.tier_sizes = {8, 5, 3, 2};  // edge -> metro -> regional -> core
  cfg.sla_k = 2;
  cfg.reconfig_weight = b;
  util::Rng build_rng(6);
  const auto inst = core::build_ntier_instance(cfg, trace, build_rng);

  std::cout << "4-tier chain 8-5-3-2, " << inst.num_links() << " links, "
            << hours << " hours, b=" << b << "\n";

  const auto roa = core::run_ntier_roa(inst);
  const auto greedy = core::run_ntier_greedy(inst);
  solver::LpSolveOptions offline_lp;
  offline_lp.pdhg.eps_rel = 2e-5;
  const auto offline = core::run_ntier_offline(inst, offline_lp);

  auto tier_total = [&](const core::NTierAllocation& a, std::size_t tier) {
    double s = 0.0;
    for (std::size_t v = 0; v < inst.tier_sizes[tier]; ++v)
      s += a.node[inst.node_key(tier, v)];
    return s;
  };

  std::printf("\n%5s %8s | %22s | %22s\n", "hour", "demand",
              "ROA tiers 1/2/3", "offline tiers 1/2/3");
  for (std::size_t t = 0; t < hours; t += 6) {
    double demand = 0.0;
    for (double d : inst.demand[t]) demand += d;
    std::printf("%5zu %8.2f | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f\n", t,
                demand, tier_total(roa.slots[t], 1),
                tier_total(roa.slots[t], 2), tier_total(roa.slots[t], 3),
                tier_total(offline.slots[t], 1),
                tier_total(offline.slots[t], 2),
                tier_total(offline.slots[t], 3));
  }

  const double opt = core::ntier_total_cost(inst, offline);
  std::cout << "\ntotals: ROA/OPT "
            << core::ntier_total_cost(inst, roa) / opt << ", greedy/OPT "
            << core::ntier_total_cost(inst, greedy) / opt << "\n";
  return 0;
}
