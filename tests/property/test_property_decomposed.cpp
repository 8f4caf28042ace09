// Decomposed-backend property suite: the block-decomposed P2 path must
// agree with the reference configuration of the monolithic workspace across
// all six generated regimes (via the differential oracle's decomposed
// comparison plane), and must survive injected faults by demoting into the
// monolithic chain — never by aborting or producing an infeasible
// trajectory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/p2_decomposed.hpp"
#include "core/roa.hpp"
#include "testing/differential.hpp"
#include "testing/fault_injection.hpp"
#include "testing/generator.hpp"
#include "testing/invariants.hpp"

namespace sora::testing {
namespace {

using core::DecompositionOptions;
using core::RoaOptions;
using core::RoaRun;

constexpr std::uint64_t kSeedsPerRegime = 4;

TEST(PropertyDecomposed, AgreesWithDenseAcrossRegimes) {
  DiffOptions options;
  options.dump_on_failure = false;  // gtest output is the report here
  options.include_decomposed = true;
  for (const Regime regime : kAllRegimes) {
    for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
      GeneratorConfig cfg;
      cfg.regime = regime;
      cfg.seed = seed;
      SCOPED_TRACE(cfg.describe());
      const auto inst = generate_instance(cfg);
      const DiffReport report =
          differential_roa(inst, cfg.describe(), options);
      EXPECT_TRUE(report.ok()) << report.summary();
    }
  }
}

TEST(PropertyDecomposed, SurvivesInjectedFaultsAcrossRegimes) {
  for (const Regime regime : kAllRegimes) {
    for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
      GeneratorConfig cfg;
      cfg.regime = regime;
      cfg.seed = seed;
      SCOPED_TRACE(cfg.describe());
      const auto inst = generate_instance(cfg);

      FaultPlan plan;
      plan.fault_rate = 0.5;  // short horizons: hit at least a slot or two
      plan.seed = seed;
      FaultInjector injector(plan);

      RoaOptions opt;
      opt.decomposition.mode = DecompositionOptions::Mode::kForce;
      const RoaRun run = core::run_roa(inst, opt);

      // Every faulted slot must have walked past the decomposed attempt;
      // the run completes and the trajectory stays P1-feasible regardless.
      for (const auto& h : run.slot_health) {
        if (injector.faulted(h.slot)) {
          EXPECT_GE(h.attempts, 2u) << "slot " << h.slot;
        }
      }
      const InvariantReport inv = check_trajectory(inst, run.trajectory);
      EXPECT_TRUE(inv.ok()) << inv.summary();
    }
  }
}

TEST(PropertyDecomposed, FaultedBlocksStillAgreeWithMonolithic) {
  // ADMM-vs-monolithic agreement must hold even when individual block
  // solves are faulted into the fallback chain: a clean monolithic run is
  // the reference, a forced-decomposed run with injected faults the
  // candidate. Costs may differ only by the decomposed tolerances.
  for (const Regime regime : kAllRegimes) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      GeneratorConfig cfg;
      cfg.regime = regime;
      cfg.seed = 10 + seed;
      SCOPED_TRACE(cfg.describe());
      const auto inst = generate_instance(cfg);

      RoaOptions mono;
      mono.decomposition.mode = DecompositionOptions::Mode::kOff;
      const RoaRun reference = core::run_roa(inst, mono);

      RoaOptions forced;
      forced.decomposition.mode = DecompositionOptions::Mode::kForce;
      core::RoaRun faulted;
      {
        FaultPlan plan;
        plan.fault_rate = 0.6;
        plan.seed = 77 + seed;
        plan.forced_attempts = 1;  // the decomposed attempt dies, the
                                   // monolithic chain produces the slot
        FaultInjector injector(plan);
        faulted = core::run_roa(inst, forced);
      }

      ASSERT_EQ(faulted.trajectory.horizon(), inst.horizon);
      const InvariantReport inv = check_trajectory(inst, faulted.trajectory);
      EXPECT_TRUE(inv.ok()) << inv.summary();

      // Agreement within the decomposed comparison tolerances: total cost
      // relative, per-slot aggregate absolute.
      const double ref_cost = reference.cost.total();
      const double got_cost = faulted.cost.total();
      EXPECT_NEAR(got_cost, ref_cost,
                  5e-3 * std::max(1.0, std::abs(ref_cost)))
          << "decomposed-with-faults diverged from monolithic";
      for (std::size_t t = 0; t < inst.horizon; ++t) {
        double ref_x = 0.0, got_x = 0.0;
        for (std::size_t e = 0; e < inst.num_edges(); ++e) {
          ref_x += reference.trajectory.slots[t].x[e];
          got_x += faulted.trajectory.slots[t].x[e];
        }
        EXPECT_NEAR(got_x, ref_x, 5e-2 * std::max(1.0, ref_x)) << "t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace sora::testing
