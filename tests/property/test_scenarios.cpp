// Adversarial scenario suite (ctest -L scenarios): strategic demand
// misreporting, correlated regional outages, and the DCNC rival baseline.
//
//   * Misreporting: the reported instance dominates the truth exactly on the
//     greedy rows, stays feasible under the provisioning clamp, and the
//     fairness report exposes hoarding (greedy allocation share above their
//     true-demand share) with a cost premium over honest reporting.
//   * Correlated outages: the topology-driven FaultInjector schedule is a
//     pure function of (seed, topology) across pool sizes, its accounting
//     matches the event list slot for slot, runs complete with invariants
//     intact across all six generator regimes, and the resilience chain's
//     1.5x degraded-cost bound survives spatial correlation at Fig. 5 scale.
//   * DCNC: feasible by construction, exact queue accounting, and the V knob
//     trades operating cost against backlog in the documented direction.
//
// Failing cases print the regime/seed replay key like the rest of the
// property suite (docs/TESTING.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/dcnc.hpp"
#include "core/cost.hpp"
#include "core/roa.hpp"
#include "eval/report.hpp"
#include "eval/scenario_lab.hpp"
#include "eval/scenarios.hpp"
#include "testing/fault_injection.hpp"
#include "testing/generator.hpp"
#include "testing/invariants.hpp"
#include "util/thread_pool.hpp"

namespace sora::testing {
namespace {

// Small Fig. 5-style scenario instance; the generator regimes cover the
// structurally nasty cases, this covers the paper's workload shape.
core::Instance small_eval_instance(std::size_t hours,
                                   eval::Workload workload,
                                   std::uint64_t seed = 42) {
  eval::Scenario scenario;
  scenario.workload = workload;
  scenario.seed = seed;
  eval::EvalScale scale;
  scale.num_tier2 = 4;
  scale.num_tier1 = 8;
  scale.horizon_wikipedia = scale.horizon_worldcup = hours;
  return eval::build_eval_instance(scenario, scale);
}

// Everything a schedule determines, flattened for equality comparison.
struct ScheduleSnapshot {
  std::vector<OutageEvent> events;
  std::vector<std::size_t> faulted;
  std::vector<int> kinds;
  std::vector<std::vector<char>> down;

  bool operator==(const ScheduleSnapshot& other) const {
    if (faulted != other.faulted || kinds != other.kinds ||
        down != other.down || events.size() != other.events.size())
      return false;
    for (std::size_t i = 0; i < events.size(); ++i)
      if (events[i].region != other.events[i].region ||
          events[i].start != other.events[i].start ||
          events[i].duration != other.events[i].duration)
        return false;
    return true;
  }
};

ScheduleSnapshot snapshot(const FaultInjector& injector, std::size_t slots) {
  ScheduleSnapshot snap;
  snap.events = injector.outage_events();
  snap.faulted = injector.faulted_slots();
  for (std::size_t t = 0; t < slots; ++t) {
    snap.kinds.push_back(static_cast<int>(injector.kind(t)));
    snap.down.push_back(injector.clouds_down(t));
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Correlated-outage schedule properties.

TEST(OutageSchedule, DeterministicAcrossThreadCounts) {
  const core::Instance inst =
      small_eval_instance(64, eval::Workload::kWikipedia);
  RegionalOutagePlan plan;
  plan.events_per_100_slots = 8.0;
  plan.seed = 97;
  plan.max_slots = inst.horizon;

  // Same seed + topology must give the same schedule no matter how many
  // workers generate the per-region event streams. Injectors are scoped so
  // only one process-wide hook exists at a time.
  std::vector<ScheduleSnapshot> snaps;
  for (const std::size_t workers : {1u, 4u, 8u}) {
    util::ThreadPool pool(workers);
    FaultInjector injector(inst, plan, pool);
    ASSERT_EQ(pool.thread_count(), workers);
    snaps.push_back(snapshot(injector, inst.horizon));
  }
  ASSERT_FALSE(snaps[0].faulted.empty()) << "plan produced no outages";
  EXPECT_TRUE(snaps[0] == snaps[1]) << "1-worker vs 4-worker schedule";
  EXPECT_TRUE(snaps[0] == snaps[2]) << "1-worker vs 8-worker schedule";

  // And the shared pool (whatever its size) agrees too.
  FaultInjector injector(inst, plan);
  EXPECT_TRUE(snaps[0] == snapshot(injector, inst.horizon));
}

TEST(OutageSchedule, AccountingMatchesEventList) {
  const core::Instance inst =
      small_eval_instance(96, eval::Workload::kWikipedia, 7);
  RegionalOutagePlan plan;
  plan.events_per_100_slots = 6.0;
  plan.mean_duration = 4.0;
  plan.seed = 13;
  plan.max_slots = inst.horizon;
  FaultInjector injector(inst, plan);

  const auto& events = injector.outage_events();
  ASSERT_FALSE(events.empty());

  // Events respect the plan and the topology.
  std::vector<char> covered(inst.horizon, 0);
  for (const OutageEvent& ev : events) {
    EXPECT_LT(ev.region, inst.num_tier1());
    EXPECT_GE(ev.duration, 1u);
    EXPECT_LE(ev.duration, plan.max_duration);
    EXPECT_LE(ev.start + ev.duration, plan.max_slots);
    for (std::size_t t = ev.start; t < ev.start + ev.duration; ++t)
      covered[t] = 1;
  }

  // faulted(t) is exactly the union of the event windows, and the dark-cloud
  // set is exactly the union of the active regions' SLA sets.
  std::size_t covered_slots = 0;
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    EXPECT_EQ(injector.faulted(t), covered[t] != 0) << "t=" << t;
    if (covered[t]) ++covered_slots;

    std::vector<char> expect_down(inst.num_tier2(), 0);
    for (const OutageEvent& ev : events) {
      if (t < ev.start || t >= ev.start + ev.duration) continue;
      for (const std::size_t e : inst.edges_of_tier1[ev.region])
        expect_down[inst.edges[e].tier2] = 1;
    }
    const std::vector<char> down = injector.clouds_down(t);
    if (covered[t]) {
      EXPECT_EQ(down, expect_down) << "t=" << t;
    } else {
      EXPECT_TRUE(down.empty()) << "t=" << t;
    }

    // Dark sites are precisely the sites whose whole (non-empty) SLA set is
    // down.
    for (const std::size_t j : injector.dark_sites(t)) {
      ASSERT_LT(j, inst.num_tier1());
      ASSERT_FALSE(inst.edges_of_tier1[j].empty());
      for (const std::size_t e : inst.edges_of_tier1[j])
        EXPECT_TRUE(expect_down[inst.edges[e].tier2])
            << "t=" << t << " site " << j;
    }
  }
  EXPECT_EQ(injector.outage_slot_count(), covered_slots);
  EXPECT_EQ(injector.faulted_slots().size(), covered_slots);
}

TEST(OutageProperty, FaultedRunsCompleteAcrossRegimes) {
  // All six generator regimes under correlated outages, at both chain
  // depths: shallow (the primary barrier attempt fails, so a warm slot
  // restarts cold and a cold one holds + repairs) and deep (both barrier
  // starts fail: hold + repair).
  for (const Regime regime : kAllRegimes) {
    for (const std::size_t attempts : {std::size_t{1}, std::size_t{2}}) {
      GeneratorConfig cfg;
      cfg.regime = regime;
      cfg.seed = 3;
      SCOPED_TRACE(cfg.describe() + " attempts=" + std::to_string(attempts));
      const auto inst = generate_instance(cfg);

      RegionalOutagePlan plan;
      plan.events_per_100_slots = 40.0;  // dense: horizons here are <= 4
      plan.mean_duration = 2.0;
      plan.seed = 19 + static_cast<std::uint64_t>(regime);
      plan.forced_attempts = attempts;
      plan.max_slots = inst.horizon;
      FaultInjector injector(inst, plan);

      const core::RoaRun run = core::run_roa(inst);
      ASSERT_EQ(run.trajectory.horizon(), inst.horizon);
      const auto report = check_trajectory(inst, run.trajectory);
      EXPECT_TRUE(report.ok()) << report.summary();

      std::size_t scheduled = 0;
      std::size_t held = 0;
      for (std::size_t t = 0; t < inst.horizon; ++t) {
        const auto& h = run.slot_health[t];
        const bool fell_back = h.attempts > 1 || h.degraded;
        EXPECT_EQ(fell_back, injector.faulted(t)) << "t=" << t;
        EXPECT_EQ(h.degraded, h.backend == core::SolveBackend::kHoldRepair)
            << "t=" << t;
        if (attempts >= 2 || !injector.faulted(t))
          EXPECT_EQ(h.degraded, injector.faulted(t)) << "t=" << t;
        if (injector.faulted(t)) ++scheduled;
        if (h.degraded) ++held;
      }
      EXPECT_EQ(run.fallback_slots >= scheduled, true);
      EXPECT_EQ(run.degraded_slots, held);
      if (attempts >= 2) EXPECT_EQ(held, scheduled);
    }
  }
}

TEST(OutageProperty, DegradedCostBoundedAtFigureScale) {
  // The paper-shaped check the lab automates: spatially-correlated outages
  // (whole SLA sets dark for multi-slot windows) must stay inside the same
  // 1.5x degraded-cost envelope the i.i.d. suite establishes.
  eval::Scenario scenario;  // Wikipedia-like, Fig. 5 setup
  const eval::EvalScale scale;
  testing::RegionalOutagePlan plan;
  plan.events_per_100_slots = 3.0;
  plan.mean_duration = 3.0;
  plan.seed = 20160704;
  plan.max_slots = scale.horizon_wikipedia;

  const eval::OutageLabResult result =
      eval::run_outage_lab(scenario, scale, plan);
  ASSERT_GT(result.events, 0u);
  ASSERT_GT(result.outage_slots, 0u);
  EXPECT_EQ(result.degraded_slots, result.outage_slots);
  EXPECT_GT(result.clean_cost, 0.0);
  EXPECT_TRUE(std::isfinite(result.faulted_cost));
  EXPECT_LE(result.cost_ratio, result.bound)
      << result.faulted_cost << " vs clean " << result.clean_cost << " over "
      << result.outage_slots << " outage slots";
  EXPECT_TRUE(result.bound_ok);
}

// ---------------------------------------------------------------------------
// Strategic misreporting.

TEST(Misreport, ReportedDominatesTruthOnGreedyRowsOnly) {
  eval::Scenario scenario;
  eval::EvalScale scale;
  scale.num_tier2 = 4;
  scale.num_tier1 = 8;
  scale.horizon_wikipedia = 48;
  eval::MisreportSpec spec;
  spec.greedy_fraction = 0.25;
  spec.inflation = 2.0;

  const eval::AdversarialInstance adv =
      eval::build_misreport_instance(scenario, scale, spec);
  const core::Instance& inst = adv.reported;
  ASSERT_EQ(adv.greedy.size(), inst.num_tier1());
  EXPECT_EQ(adv.num_greedy(), 2u);  // 0.25 of 8

  // The clamp keeps the reported instance feasible under the provisioning
  // rule, so the whole pipeline (validator included) accepts it.
  EXPECT_TRUE(cloudnet::validate_instance(inst).ok);

  const double margin = cloudnet::InstanceConfig{}.capacity_margin;
  for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
    double peak = 0.0;
    for (std::size_t t = 0; t < inst.horizon; ++t)
      peak = std::max(peak, adv.true_demand[t][j]);
    for (std::size_t t = 0; t < inst.horizon; ++t) {
      const double truth = adv.true_demand[t][j];
      const double reported = inst.demand[t][j];
      if (adv.greedy[j]) {
        EXPECT_GE(reported, truth) << "t=" << t << " j=" << j;
        EXPECT_LE(reported, std::max(margin * peak, truth) + 1e-12)
            << "t=" << t << " j=" << j;
      } else {
        EXPECT_DOUBLE_EQ(reported, truth) << "t=" << t << " j=" << j;
      }
    }
  }

  // Someone actually inflated something.
  double inflated = 0.0;
  for (std::size_t t = 0; t < inst.horizon; ++t)
    for (std::size_t j = 0; j < inst.num_tier1(); ++j)
      inflated += inst.demand[t][j] - adv.true_demand[t][j];
  EXPECT_GT(inflated, 0.0);
}

TEST(Misreport, GreedyHoardingShowsInFairnessReport) {
  eval::Scenario scenario;
  eval::EvalScale scale;
  scale.num_tier2 = 4;
  scale.num_tier1 = 8;
  scale.horizon_wikipedia = 48;
  eval::MisreportSpec spec;
  eval::LabPolicies policies;
  policies.rfhc = false;  // ROA + DCNC keep the case fast
  const eval::MisreportLabResult lab =
      eval::run_misreport_lab(scenario, scale, spec, policies);

  ASSERT_EQ(lab.misreported.size(), 2u);
  const eval::PolicyOutcome& roa_mis = lab.misreported[0];
  const eval::PolicyOutcome& roa_honest = lab.honest[0];
  ASSERT_EQ(roa_mis.policy, "roa");

  // A covering controller still serves all true demand (true <= reported),
  // so welfare stays 1 — the damage is hoarded allocation and wasted spend.
  EXPECT_NEAR(roa_mis.fairness.welfare, 1.0, 1e-6);
  EXPECT_GT(roa_mis.fairness.greedy_allocation_share,
            roa_mis.fairness.greedy_demand_share);
  EXPECT_GT(roa_mis.cost.total(), roa_honest.cost.total());
  EXPECT_LT(roa_mis.fairness.mean_efficiency,
            roa_honest.fairness.mean_efficiency);

  // Honest reference: allocation share tracks demand share closely.
  EXPECT_NEAR(roa_honest.fairness.greedy_allocation_share,
              roa_honest.fairness.greedy_demand_share, 0.1);

  // Metric sanity on every row.
  for (const auto* rows : {&lab.misreported, &lab.honest}) {
    for (const eval::PolicyOutcome& p : *rows) {
      EXPECT_GE(p.fairness.jain_service_long, 0.0);
      EXPECT_LE(p.fairness.jain_service_long, 1.0 + 1e-12);
      EXPECT_GE(p.fairness.jain_service_short, 0.0);
      EXPECT_LE(p.fairness.jain_service_short, 1.0 + 1e-12);
      EXPECT_GE(p.fairness.welfare, 0.0);
      EXPECT_LE(p.fairness.welfare, 1.0 + 1e-6);
      EXPECT_LE(p.fairness.log_welfare, 1e-12);  // log of ratios <= 1
    }
  }
}

// ---------------------------------------------------------------------------
// DCNC rival baseline.

TEST(Dcnc, FeasibleWithExactQueueAccountingAcrossRegimes) {
  for (const Regime regime : kAllRegimes) {
    GeneratorConfig cfg;
    cfg.regime = regime;
    cfg.seed = 11;
    SCOPED_TRACE(cfg.describe());
    const auto inst = generate_instance(cfg);

    const baselines::DcncRun run = baselines::run_dcnc(inst);
    ASSERT_EQ(run.trajectory.horizon(), inst.horizon);
    ASSERT_EQ(run.queue_total.size(), inst.horizon);

    double backlog_check = 0.0;  // independently replayed sum_j Q_j
    std::vector<double> queue(inst.num_tier1(), 0.0);
    for (std::size_t t = 0; t < inst.horizon; ++t) {
      const auto& alloc = run.trajectory.slots[t];
      // Capacity feasibility of the max-weight decision.
      for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
        double used = 0.0;
        for (const std::size_t e : inst.edges_of_tier2[i])
          used += alloc.x[e];
        EXPECT_LE(used, inst.tier2_capacity[i] + 1e-9) << "t=" << t;
      }
      for (std::size_t e = 0; e < inst.num_edges(); ++e) {
        EXPECT_GE(alloc.x[e], -1e-12);
        EXPECT_LE(alloc.y[e], inst.edge_capacity[e] + 1e-9);
        EXPECT_NEAR(alloc.x[e], alloc.y[e], 1e-12);  // x = y = s by design
      }
      // Queue recursion Q <- [Q + lambda - served]^+, served <= Q + lambda.
      for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
        double served = 0.0;
        for (const std::size_t e : inst.edges_of_tier1[j]) {
          double s = std::min(alloc.x[e], alloc.y[e]);
          if (inst.has_tier1()) s = std::min(s, alloc.z[e]);
          served += s;
        }
        const double pressure = queue[j] + inst.demand[t][j];
        EXPECT_LE(served, pressure + 1e-9) << "t=" << t << " j=" << j;
        queue[j] = std::max(pressure - served, 0.0);
        backlog_check += queue[j];
      }
      double qt = 0.0;
      for (const double q : queue) qt += q;
      EXPECT_NEAR(run.queue_total[t], qt, 1e-9) << "t=" << t;
    }
    EXPECT_LE(run.total_served, run.total_demand + 1e-9);
    EXPECT_NEAR(run.mean_backlog,
                inst.horizon > 0
                    ? backlog_check / static_cast<double>(inst.horizon)
                    : 0.0,
                1e-9);
  }
}

TEST(Dcnc, VKnobTradesCostAgainstBacklogOnBurstyTrace) {
  const core::Instance inst =
      small_eval_instance(60, eval::Workload::kWorldCup, 5);

  const baselines::DcncRun eager = baselines::run_dcnc(inst, {.V = 0.05});
  const baselines::DcncRun patient = baselines::run_dcnc(inst, {.V = 20.0});
  ASSERT_EQ(eager.trajectory.horizon(), inst.horizon);
  ASSERT_EQ(patient.trajectory.horizon(), inst.horizon);

  // Small V drains queues greedily; large V waits out price peaks. The
  // documented direction: backlog grows with V, operating (allocation)
  // spend shrinks.
  EXPECT_GE(patient.mean_backlog, eager.mean_backlog);
  EXPECT_LE(patient.cost.allocation, eager.cost.allocation + 1e-9);
  EXPECT_GE(eager.total_served, patient.total_served - 1e-9);
  EXPECT_GT(eager.total_served, 0.0);
}

TEST(Dcnc, RivalryLabReportsAllThreeControllers) {
  eval::Scenario scenario;
  scenario.workload = eval::Workload::kWorldCup;
  eval::EvalScale scale;
  scale.num_tier2 = 3;
  scale.num_tier1 = 6;
  scale.horizon_worldcup = 24;
  eval::LabPolicies policies;
  policies.control.window = 3;

  const eval::RivalryResult result =
      eval::run_rivalry_lab(scenario, scale, 3, policies);
  EXPECT_EQ(result.roa_cost.samples, 3u);
  EXPECT_EQ(result.rfhc_cost.samples, 3u);
  EXPECT_EQ(result.dcnc_cost.samples, 3u);
  EXPECT_EQ(result.dcnc_backlog.samples, 3u);
  EXPECT_GT(result.roa_cost.mean, 0.0);
  EXPECT_GT(result.rfhc_cost.mean, 0.0);
  // DCNC ignores reconfiguration prices, so on a bursty trace with the
  // default heavy reconfig weight it pays more than the smoothed
  // controllers — the structural contrast the rival exists to expose.
  EXPECT_GT(result.dcnc_cost.mean, result.roa_cost.mean);
  EXPECT_GT(result.dcnc_backlog.mean, 0.0);
  // Clean runs: the health-aware sweep must report no degradation.
  EXPECT_TRUE(result.roa_cost.all_healthy());

  // The flattened metric map carries every controller for the golden diff.
  const auto metrics = eval::to_metrics(result);
  EXPECT_EQ(metrics.count("rivalry.roa_cost.mean"), 1u);
  EXPECT_EQ(metrics.count("rivalry.rfhc_cost.mean"), 1u);
  EXPECT_EQ(metrics.count("rivalry.dcnc_cost.mean"), 1u);
  EXPECT_EQ(metrics.count("rivalry.dcnc_backlog.mean"), 1u);
}

}  // namespace
}  // namespace sora::testing
