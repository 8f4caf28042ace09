// Resilience property suite: inject solver faults on random slots across
// the six generated regimes and assert that (a) every run completes instead
// of aborting, (b) the invariant checker still passes on the resulting
// trajectory, and (c) the per-slot health accounting in RoaRun /
// NTierRoaHealth matches the injection schedule exactly. Chain-depth
// determinism (forced_attempts -> producing backend), the Fig. 5-scale
// degraded-cost bound (<= 1.5x fault-free at a 10% fault rate) and the
// natural failures the chain must absorb — forecasts no allocation can
// cover, and a slot whose even-spread start is not interior — ride along.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "core/ntier.hpp"
#include "core/predictive.hpp"
#include "core/resilience.hpp"
#include "core/roa.hpp"
#include "eval/montecarlo.hpp"
#include "obs/flight_recorder.hpp"
#include "eval/scenarios.hpp"
#include "solver/lp.hpp"
#include "testing/fault_injection.hpp"
#include "testing/generator.hpp"
#include "testing/invariants.hpp"
#include "util/check.hpp"

namespace sora::testing {
namespace {

using core::FaultKind;
using core::RoaRun;
using core::SolveBackend;

bool slot_fell_back(const core::SlotHealth& h) {
  return h.attempts > 1 || h.degraded;
}

// One forced failure per faulted slot: a warm-started slot restarts cold,
// while a cold primary (always slot 0) has no second start and degrades to
// hold + repair. Either way the slot took two stages and stays feasible.
void expect_one_forced_failure(const core::SlotHealth& h, bool faulted) {
  EXPECT_EQ(h.status, solver::SolveStatus::kOptimal);
  if (!faulted) {
    EXPECT_EQ(h.attempts, 1u);
    EXPECT_FALSE(h.degraded);
    return;
  }
  EXPECT_EQ(h.attempts, 2u);
  EXPECT_TRUE(h.backend == SolveBackend::kColdIpm ||
              h.backend == SolveBackend::kHoldRepair)
      << to_string(h.backend);
  EXPECT_EQ(h.degraded, h.backend == SolveBackend::kHoldRepair);
  if (h.slot == 0) EXPECT_TRUE(h.degraded);
}

// RAII guard for tests that install a custom hook directly.
struct HookGuard {
  explicit HookGuard(core::FaultHook hook) {
    core::set_fault_hook(std::move(hook));
  }
  ~HookGuard() { core::set_fault_hook({}); }
};

// ---------------------------------------------------------------------------
// Hook plumbing.

TEST(FaultHook, InstallConsultClear) {
  EXPECT_FALSE(core::fault_hook_installed());
  EXPECT_EQ(core::consult_fault_hook(0, 0), FaultKind::kNone);
  {
    HookGuard guard([](std::size_t slot, std::size_t) {
      return slot == 3 ? FaultKind::kIterationLimit : FaultKind::kNone;
    });
    EXPECT_TRUE(core::fault_hook_installed());
    EXPECT_EQ(core::consult_fault_hook(3, 0), FaultKind::kIterationLimit);
    EXPECT_EQ(core::consult_fault_hook(2, 0), FaultKind::kNone);
  }
  EXPECT_FALSE(core::fault_hook_installed());
  EXPECT_EQ(core::consult_fault_hook(3, 0), FaultKind::kNone);
}

TEST(FaultHook, InjectorScheduleIsDeterministic) {
  FaultPlan plan;
  plan.fault_rate = 0.25;
  plan.seed = 7;
  plan.max_slots = 200;
  std::vector<std::size_t> first, second;
  {
    FaultInjector injector(plan);
    first = injector.faulted_slots();
  }
  {
    FaultInjector injector(plan);
    second = injector.faulted_slots();
  }
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), plan.max_slots / 2);  // rate 0.25 of 200
  FaultInjector injector(plan);
  for (const std::size_t t : first) EXPECT_TRUE(injector.faulted(t));
  EXPECT_FALSE(injector.faulted(plan.max_slots + 5));
}

TEST(FaultHook, NanPoisonLeavesStatusOptimal) {
  solver::SolveStatus status = solver::SolveStatus::kOptimal;
  linalg::Vec x(5, 1.0);
  core::apply_fault(FaultKind::kNanPoison, status, x);
  EXPECT_EQ(status, solver::SolveStatus::kOptimal);
  EXPECT_FALSE(core::all_finite(x));

  status = solver::SolveStatus::kOptimal;
  linalg::Vec y(3, 1.0);
  core::apply_fault(FaultKind::kIterationLimit, status, y);
  EXPECT_EQ(status, solver::SolveStatus::kIterationLimit);
  EXPECT_TRUE(core::all_finite(y));
}

TEST(FaultHook, LpFallbackRetriesOtherBackend) {
  // min x st x >= 2, solved through the fallback wrapper with PDHG as the
  // primary, starved into an iteration limit: the simplex retry must still
  // produce the optimum.
  solver::LpBuilder builder;
  const std::size_t x = builder.add_variable(0.0, 10.0, 1.0, "x");
  builder.add_ge({{x, 1.0}}, 2.0, "floor");
  const solver::LpModel model = builder.build();

  solver::LpSolveOptions opts;
  opts.simplex_size_limit = 1;  // size 2: PDHG first, simplex still viable
  opts.pdhg.max_iterations = 1;
  core::SolveOutcome outcome;
  const solver::LpSolution sol =
      core::solve_lp_with_fallback(model, opts, &outcome);
  ASSERT_EQ(sol.status, solver::SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-6);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(outcome.backend, core::SolveBackend::kSimplex);
  EXPECT_EQ(outcome.detail.rfind("pdhg: iteration_limit", 0), 0u)
      << outcome.detail;
}

TEST(FaultHook, LpFallbackKeepsInfeasibilityVerdict) {
  // A simplex infeasibility verdict ends the chain: PDHG cannot detect
  // infeasibility, so a retry could only exhaust its boosted budget.
  const auto expect_verdict = [](const solver::LpModel& model,
                                 solver::SolveStatus verdict) {
    core::SolveOutcome outcome;
    const solver::LpSolution sol =
        core::solve_lp_with_fallback(model, {}, &outcome);
    EXPECT_EQ(sol.status, verdict);
    EXPECT_EQ(outcome.status, verdict);
    EXPECT_EQ(outcome.attempts, 1u);
    EXPECT_EQ(outcome.backend, core::SolveBackend::kSimplex);
    const std::string head =
        std::string("simplex: ") + solver::to_string(verdict);
    EXPECT_EQ(outcome.detail.rfind(head, 0), 0u) << outcome.detail;
    EXPECT_EQ(outcome.detail.find("; "), std::string::npos) << outcome.detail;
  };
  {
    SCOPED_TRACE("x in [0, 1], x >= 2");
    solver::LpBuilder builder;
    const std::size_t x = builder.add_variable(0.0, 1.0, 1.0, "x");
    builder.add_ge({{x, 1.0}}, 2.0, "floor");
    expect_verdict(builder.build(), solver::SolveStatus::kPrimalInfeasible);
  }
  {
    SCOPED_TRACE("min -x, x >= 2");
    solver::LpBuilder builder;
    const std::size_t x =
        builder.add_variable(0.0, solver::kInf, -1.0, "x");
    builder.add_ge({{x, 1.0}}, 2.0, "floor");
    expect_verdict(builder.build(), solver::SolveStatus::kDualInfeasible);
  }
}

// ---------------------------------------------------------------------------
// Two-tier ROA under injected faults, all six regimes.

TEST(ResilienceProperty, FaultedRunsCompleteAcrossRegimes) {
  constexpr std::uint64_t kSeedsPerRegime = 4;
  for (const Regime regime : kAllRegimes) {
    for (std::uint64_t seed = 1; seed <= kSeedsPerRegime; ++seed) {
      GeneratorConfig cfg;
      cfg.regime = regime;
      cfg.seed = seed;
      SCOPED_TRACE(cfg.describe());
      const auto inst = generate_instance(cfg);

      FaultPlan plan;
      plan.fault_rate = 0.4;  // dense enough to hit short horizons
      plan.seed = 100 * seed + static_cast<std::uint64_t>(regime);
      plan.forced_attempts = 1;  // the primary barrier attempt fails
      FaultInjector injector(plan);

      const RoaRun run = core::run_roa(inst);
      ASSERT_EQ(run.trajectory.horizon(), inst.horizon);
      ASSERT_EQ(run.slot_health.size(), inst.horizon);

      const auto report = check_trajectory(inst, run.trajectory);
      EXPECT_TRUE(report.ok()) << report.summary();

      // Accounting must match the schedule slot for slot: a shallow fault
      // costs exactly one extra stage (expect_one_forced_failure).
      std::size_t scheduled = 0;
      std::size_t held = 0;
      for (std::size_t t = 0; t < inst.horizon; ++t) {
        const auto& h = run.slot_health[t];
        EXPECT_EQ(h.slot, t);
        SCOPED_TRACE("t=" + std::to_string(t) +
                     " kind=" + to_string(injector.kind(t)));
        expect_one_forced_failure(h, injector.faulted(t));
        EXPECT_EQ(slot_fell_back(h), injector.faulted(t));
        if (injector.faulted(t)) ++scheduled;
        if (h.degraded) ++held;
      }
      EXPECT_EQ(run.fallback_slots, scheduled);
      EXPECT_EQ(run.degraded_slots, held);
      EXPECT_EQ(run.healthy(), scheduled == 0);
      EXPECT_GE(injector.injections(), scheduled);
    }
  }
}

TEST(ResilienceProperty, DeepFaultsDegradeButStayFeasible) {
  for (const Regime regime : {Regime::kSmooth, Regime::kSpiky,
                              Regime::kCapacitySaturated}) {
    GeneratorConfig cfg;
    cfg.regime = regime;
    cfg.seed = 2;
    SCOPED_TRACE(cfg.describe());
    const auto inst = generate_instance(cfg);

    FaultPlan plan;
    plan.fault_rate = 0.5;
    plan.seed = 11 + static_cast<std::uint64_t>(regime);
    plan.forced_attempts = 2;  // warm and cold both fail: hold+repair
    FaultInjector injector(plan);

    const RoaRun run = core::run_roa(inst);
    ASSERT_EQ(run.trajectory.horizon(), inst.horizon);

    // Degraded slots hold the previous decision and repair coverage, so the
    // P1 invariants must still hold on the whole trajectory.
    const auto report = check_trajectory(inst, run.trajectory);
    EXPECT_TRUE(report.ok()) << report.summary();

    std::size_t scheduled = 0;
    for (std::size_t t = 0; t < inst.horizon; ++t) {
      const auto& h = run.slot_health[t];
      EXPECT_EQ(h.degraded, injector.faulted(t)) << "t=" << t;
      if (injector.faulted(t)) {
        ++scheduled;
        EXPECT_EQ(h.backend, SolveBackend::kHoldRepair) << "t=" << t;
      }
    }
    EXPECT_EQ(run.degraded_slots, scheduled);
    EXPECT_GE(run.fallback_slots, scheduled);
  }
}

TEST(ResilienceProperty, ChainDepthIsDeterministic) {
  GeneratorConfig cfg;
  cfg.regime = Regime::kSmooth;
  cfg.seed = 5;
  const auto inst = generate_instance(cfg);
  ASSERT_GE(inst.horizon, 2u);
  const std::size_t target = 1;  // warm-started slot: warm(0) cold(1) hold

  {
    // One forced failure: the warm attempt dies and the cold restart
    // (attempt 1) produces the slot.
    HookGuard guard([&](std::size_t slot, std::size_t attempt) {
      return (slot == target && attempt < 1) ? FaultKind::kIterationLimit
                                             : FaultKind::kNone;
    });
    const RoaRun run = core::run_roa(inst);
    const auto& h = run.slot_health[target];
    EXPECT_EQ(h.status, solver::SolveStatus::kOptimal);
    EXPECT_EQ(h.backend, SolveBackend::kColdIpm);
    EXPECT_EQ(h.attempts, 2u);
    EXPECT_FALSE(h.degraded);
    EXPECT_EQ(run.degraded_slots, 0u);
  }
  {
    // Two forced failures exhaust both barrier starts: the slot must come
    // from graceful degradation, and the run must still complete.
    HookGuard guard([&](std::size_t slot, std::size_t attempt) {
      return (slot == target && attempt < 2) ? FaultKind::kNanPoison
                                             : FaultKind::kNone;
    });
    const RoaRun run = core::run_roa(inst);
    const auto& h = run.slot_health[target];
    EXPECT_EQ(h.backend, SolveBackend::kHoldRepair);
    EXPECT_EQ(h.attempts, 3u);
    EXPECT_TRUE(h.degraded);
    EXPECT_EQ(run.degraded_slots, 1u);
    const auto report = check_trajectory(inst, run.trajectory);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

TEST(ResilienceProperty, DisabledResilienceFailsFast) {
  GeneratorConfig cfg;
  cfg.regime = Regime::kSmooth;
  cfg.seed = 3;
  const auto inst = generate_instance(cfg);
  HookGuard guard([](std::size_t, std::size_t) {
    return FaultKind::kIterationLimit;
  });
  core::RoaOptions opt;
  opt.resilience.enabled = false;
  EXPECT_THROW(core::run_roa(inst, opt), util::CheckError);
}

// ---------------------------------------------------------------------------
// Fig. 5-scale degraded-cost bound: with faults on ~10% of slots, the run
// completes and costs at most 1.5x the fault-free run on the same seed.

TEST(ResilienceProperty, DegradedCostBoundedAtFigureScale) {
  const eval::Scenario scenario;  // Wikipedia-like, the paper's Fig. 5 setup
  const eval::EvalScale scale;    // reduced scale: 6 x 12, 120 slots
  const core::Instance inst = eval::build_eval_instance(scenario, scale);

  const RoaRun clean = core::run_roa(inst);
  ASSERT_TRUE(clean.healthy());

  FaultPlan plan;
  plan.fault_rate = 0.10;
  plan.seed = 20160704;
  plan.forced_attempts = 2;  // faulted slots go all the way to hold+repair
  FaultInjector injector(plan);
  const RoaRun faulted = core::run_roa(inst);

  ASSERT_EQ(faulted.trajectory.horizon(), inst.horizon);
  std::size_t scheduled = 0;
  for (std::size_t t = 0; t < inst.horizon; ++t)
    if (injector.faulted(t)) ++scheduled;
  ASSERT_GT(scheduled, 0u);
  EXPECT_EQ(faulted.degraded_slots, scheduled);

  EXPECT_TRUE(std::isfinite(faulted.cost.total()));
  EXPECT_LE(faulted.cost.total(), 1.5 * clean.cost.total())
      << "degraded " << faulted.cost.total() << " vs clean "
      << clean.cost.total() << " with " << scheduled << " degraded slots";
}

// ---------------------------------------------------------------------------
// N-tier chain under faults.

TEST(ResilienceProperty, NTierFaultedRunsComplete) {
  for (const Regime regime : kAllRegimes) {
    GeneratorConfig cfg;
    cfg.regime = regime;
    cfg.seed = 4;
    SCOPED_TRACE(cfg.describe());
    const core::NTierInstance inst = generate_ntier_instance(cfg);

    FaultPlan plan;
    plan.fault_rate = 0.4;
    plan.seed = 13 + static_cast<std::uint64_t>(regime);
    plan.forced_attempts = 1;  // the one (cold) barrier attempt fails
    FaultInjector injector(plan);

    core::NTierRoaHealth health;
    const core::NTierTrajectory traj =
        core::run_ntier_roa(inst, {}, &health);
    ASSERT_EQ(traj.slots.size(), inst.horizon);
    ASSERT_EQ(health.slot_health.size(), inst.horizon);

    // An n-tier slot has one barrier start, so a faulted slot is produced
    // by hold + repair in its second stage.
    std::size_t scheduled = 0;
    for (std::size_t t = 0; t < inst.horizon; ++t) {
      const auto& h = health.slot_health[t];
      EXPECT_EQ(slot_fell_back(h), injector.faulted(t)) << "t=" << t;
      EXPECT_EQ(h.degraded, injector.faulted(t)) << "t=" << t;
      EXPECT_EQ(h.attempts, injector.faulted(t) ? 2u : 1u) << "t=" << t;
      EXPECT_EQ(h.status, solver::SolveStatus::kOptimal) << "t=" << t;
      EXPECT_LE(core::ntier_slot_violation(inst, t, traj.slots[t]), 1e-4)
          << "t=" << t;
      if (injector.faulted(t)) ++scheduled;
    }
    EXPECT_EQ(health.fallback_slots, scheduled);
    EXPECT_EQ(health.degraded_slots, scheduled);
  }
}

TEST(ResilienceProperty, NTierDeepFaultsDegradeButCover) {
  GeneratorConfig cfg;
  cfg.regime = Regime::kSmooth;
  cfg.seed = 6;
  const core::NTierInstance inst = generate_ntier_instance(cfg);

  FaultPlan plan;
  plan.fault_rate = 1.0;  // every slot: the short n-tier horizons would
                          // otherwise let a sparse schedule miss entirely
  plan.seed = 17;
  plan.forced_attempts = 1;  // the cold barrier, the only start, dies
  FaultInjector injector(plan);

  core::NTierRoaHealth health;
  const core::NTierTrajectory traj =
      core::run_ntier_roa(inst, {}, &health);
  ASSERT_EQ(traj.slots.size(), inst.horizon);

  for (std::size_t t = 0; t < inst.horizon; ++t) {
    ASSERT_TRUE(injector.faulted(t));
    EXPECT_TRUE(health.slot_health[t].degraded) << "t=" << t;
    EXPECT_EQ(health.slot_health[t].backend, SolveBackend::kHoldRepair);
    EXPECT_LE(core::ntier_slot_violation(inst, t, traj.slots[t]), 1e-4)
        << "t=" << t;
  }
  EXPECT_EQ(health.degraded_slots, inst.horizon);
}

// A slot whose even-spread start is not strictly interior, though its
// polyhedron is: the chain must start the barrier from the phase-I point
// instead of degrading. Found by a census of RFHC runs with 15 % noise:
// slot 1 of this run (window 2, noise seed 20).
TEST(ResilienceProperty, NTierPhaseOneStartKeepsTheBarrier) {
  GeneratorConfig cfg;
  cfg.regime = Regime::kCapacitySaturated;
  cfg.seed = 20;
  const core::NTierInstance inst = generate_ntier_instance(cfg);
  ASSERT_GE(inst.horizon, 2u);

  core::NTierControlOptions opt;
  opt.window = 2;
  opt.prediction = {0.15, 20};
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  rec.set_incident_dir("");
  rec.clear();
  const core::NTierControlRun run = core::run_ntier_rfhc(inst, opt);
  EXPECT_EQ(run.trajectory.slots.size(), inst.horizon);

  bool found = false;
  for (const obs::FlightRecord& r : rec.snapshot()) {
    if (r.context != "ntier_slot" || r.slot != 1) continue;
    found = true;
    EXPECT_EQ(r.backend, "cold_ipm") << r.detail;
    EXPECT_EQ(r.status, "optimal") << r.detail;
    EXPECT_FALSE(r.fell_back) << r.detail;
    EXPECT_EQ(r.attempts, 1u);
  }
  EXPECT_TRUE(found);
  rec.clear();
}

// ---------------------------------------------------------------------------
// Predictive controllers keep running when the inner chain is faulted.

TEST(ResilienceProperty, PredictiveControllersSurviveFaults) {
  GeneratorConfig cfg;
  cfg.regime = Regime::kSpiky;
  cfg.seed = 9;
  const auto inst = generate_instance(cfg);

  FaultPlan plan;
  plan.fault_rate = 0.5;
  plan.seed = 23;
  plan.forced_attempts = 1;
  FaultInjector injector(plan);

  core::ControlOptions opt;
  opt.window = 2;
  opt.prediction.error_pct = 0.2;  // noisy predictions exercise the repairs
  const core::ControlRun runs[] = {core::run_rfhc(inst, opt),
                                   core::run_rrhc(inst, opt)};
  for (const core::ControlRun& run : runs) {
    EXPECT_EQ(run.trajectory.horizon(), inst.horizon) << run.algorithm;
    EXPECT_TRUE(std::isfinite(run.cost.total())) << run.algorithm;
    EXPECT_EQ(run.failed_repairs, 0u) << run.algorithm;
  }
}

// A forecast no allocation can cover: on this saturated instance the 15 %
// noise pushes some window's demand past capacity, so its window LP (and,
// under RFHC/RRHC, chain slots with no strict interior) cannot be solved.
// Every controller holds its applied decision over the failed window —
// repaired against the truth — and finishes the horizon.
TEST(ResilienceProperty, PredictiveControllersSurviveInfeasibleForecasts) {
  GeneratorConfig cfg;
  cfg.regime = Regime::kCapacitySaturated;
  cfg.seed = 35;
  cfg.max_tier1 = 24;
  cfg.max_tier2 = 8;
  cfg.max_horizon = 24;
  SCOPED_TRACE(cfg.describe());
  const auto inst = generate_instance(cfg);

  using Controller = core::ControlRun (*)(const core::Instance&,
                                          const core::ControlOptions&);
  for (const std::size_t window : {std::size_t{2}, std::size_t{4}}) {
    core::ControlOptions opt;
    opt.window = window;
    opt.prediction = {0.15, 35};
    std::size_t held = 0;
    for (const Controller controller :
         {&core::run_fhc, &core::run_rhc, &core::run_rfhc, &core::run_rrhc}) {
      const core::ControlRun run = controller(inst, opt);
      SCOPED_TRACE(run.algorithm + " w=" + std::to_string(window));
      EXPECT_EQ(run.trajectory.horizon(), inst.horizon);
      EXPECT_TRUE(std::isfinite(run.cost.total()));
      EXPECT_EQ(run.failed_repairs, 0u);
      const auto report = check_trajectory(inst, run.trajectory);
      EXPECT_TRUE(report.ok()) << report.summary();
      held += run.degraded_slots;
    }
    EXPECT_GT(held, 0u) << "no window failed: the instance no longer "
                           "exercises the held-window path";
  }
}

// The same forecast noise on a saturated n-tier instance: the n-tier
// controllers run the same loops, so each holds its latest applied decision
// over a failed window, repaired against the truth, and finishes the
// horizon.
TEST(ResilienceProperty, NTierPredictiveControllersSurviveInfeasibleForecasts) {
  GeneratorConfig cfg;
  cfg.regime = Regime::kCapacitySaturated;
  cfg.seed = 35;
  cfg.max_horizon = 24;
  SCOPED_TRACE(cfg.describe());
  const core::NTierInstance inst = generate_ntier_instance(cfg);

  using Controller = core::NTierControlRun (*)(
      const core::NTierInstance&, const core::NTierControlOptions&);
  for (const std::size_t window : {std::size_t{2}, std::size_t{4}}) {
    core::NTierControlOptions opt;
    opt.window = window;
    opt.prediction = {0.15, 35};
    std::size_t held = 0;
    for (const Controller controller :
         {&core::run_ntier_fhc, &core::run_ntier_rhc, &core::run_ntier_rfhc,
          &core::run_ntier_rrhc}) {
      const core::NTierControlRun run = controller(inst, opt);
      SCOPED_TRACE(run.algorithm + " w=" + std::to_string(window));
      ASSERT_EQ(run.trajectory.slots.size(), inst.horizon);
      EXPECT_TRUE(std::isfinite(run.cost));
      EXPECT_EQ(run.failed_repairs, 0u);
      for (std::size_t t = 0; t < inst.horizon; ++t)
        EXPECT_LE(core::ntier_slot_violation(inst, t, run.trajectory.slots[t]),
                  1e-4)
            << "t=" << t;
      held += run.degraded_slots;
    }
    EXPECT_GT(held, 0u) << "no window failed: the instance no longer "
                           "exercises the held-window path";
  }
}

// ---------------------------------------------------------------------------
// A metric that throws for one seed no longer kills a Monte Carlo sweep.

TEST(ResilienceProperty, MonteCarloSweepToleratesOneBadSeed) {
  const eval::Scenario scenario;
  eval::EvalScale scale;
  scale.num_tier2 = 2;
  scale.num_tier1 = 3;
  scale.horizon_wikipedia = 4;
  std::atomic<int> calls{0};
  const eval::SeedStats stats = eval::sweep_seeds(
      scenario, scale, 6, [&](const core::Instance& inst) {
        if (calls.fetch_add(1) == 0)
          throw util::CheckError("injected metric failure");
        return static_cast<double>(inst.horizon);
      });
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.samples, 5u);
  EXPECT_DOUBLE_EQ(stats.mean, 4.0);
}

}  // namespace
}  // namespace sora::testing
