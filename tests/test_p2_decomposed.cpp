// Unit tests for the block-decomposed P2 path (core/p2_decomposed):
// selection heuristic, forced-ADMM agreement with the monolithic sparse
// pipeline, bitwise determinism of the block fan-out under any thread count,
// and the demotion paths (stall, injected fault) into the monolithic chain.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "cloudnet/instance.hpp"
#include "cloudnet/workload.hpp"
#include "core/p2_decomposed.hpp"
#include "core/resilience.hpp"
#include "core/roa.hpp"
#include "testing/generator.hpp"
#include "testing/invariants.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sora::core {
namespace {

using cloudnet::Instance;
using cloudnet::InstanceConfig;
using cloudnet::WorkloadTrace;

Instance make_instance(std::size_t num_tier2, std::size_t num_tier1,
                       std::size_t sla_k, std::size_t horizon,
                       std::uint64_t seed, bool model_tier1 = false) {
  util::Rng rng(seed);
  WorkloadTrace trace = cloudnet::wikipedia_like(horizon, rng);
  InstanceConfig cfg;
  cfg.num_tier2 = num_tier2;
  cfg.num_tier1 = num_tier1;
  cfg.sla_k = sla_k;
  cfg.reconfig_weight = 10.0;
  cfg.seed = seed;
  cfg.model_tier1 = model_tier1;
  return cloudnet::build_instance(cfg, trace);
}

// Per-tier-2-cloud aggregates X_i = sum_{e in i} x_e of one slot. The
// per-edge x split across an SLA group is not unique on the optimal face
// (ties in price), so decomposed-vs-monolithic agreement is asserted on the
// aggregates that the objective actually sees.
Vec cloud_aggregates(const Instance& inst, const Allocation& a) {
  Vec agg(inst.num_tier2(), 0.0);
  for (std::size_t e = 0; e < inst.num_edges(); ++e) {
    agg[inst.edges[e].tier2] += a.x[e];
  }
  return agg;
}

void expect_trajectories_agree(const Instance& inst, const RoaRun& mono,
                               const RoaRun& dec, double cost_rel_tol,
                               double primal_tol) {
  ASSERT_EQ(mono.trajectory.horizon(), dec.trajectory.horizon());
  const double mono_cost = mono.cost.total();
  EXPECT_NEAR(dec.cost.total(), mono_cost,
              cost_rel_tol * std::max(1.0, std::abs(mono_cost)))
      << "total cost disagrees";
  for (std::size_t t = 0; t < mono.trajectory.horizon(); ++t) {
    const Vec agg_mono = cloud_aggregates(inst, mono.trajectory.slots[t]);
    const Vec agg_dec = cloud_aggregates(inst, dec.trajectory.slots[t]);
    for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
      EXPECT_NEAR(agg_dec[i], agg_mono[i], primal_tol)
          << "X_" << i << " at slot " << t;
    }
    for (std::size_t e = 0; e < inst.num_edges(); ++e) {
      EXPECT_NEAR(dec.trajectory.slots[t].y[e], mono.trajectory.slots[t].y[e],
                  primal_tol)
          << "y_" << e << " at slot " << t;
    }
  }
}

RoaOptions forced_options() {
  RoaOptions opt;
  opt.decomposition.mode = DecompositionOptions::Mode::kForce;
  return opt;
}

// ---------------------------------------------------------------------------
// Selection heuristic.

TEST(DecompositionSelection, ModesAndThresholds) {
  const Instance inst = make_instance(4, 8, 2, 2, 11);

  DecompositionOptions opt;
  opt.mode = DecompositionOptions::Mode::kOff;
  EXPECT_FALSE(decomposition_selected(inst, opt));

  opt.mode = DecompositionOptions::Mode::kForce;
  EXPECT_TRUE(decomposition_selected(inst, opt));

  // kAuto: the default thresholds keep paper-scale instances monolithic...
  opt.mode = DecompositionOptions::Mode::kAuto;
  EXPECT_FALSE(decomposition_selected(inst, opt));

  // ...and trip once the instance clears both size floors.
  opt.min_edges = inst.num_edges();
  opt.min_blocks = inst.num_tier1();
  EXPECT_TRUE(decomposition_selected(inst, opt));

  opt.min_edges = inst.num_edges() + 1;
  EXPECT_FALSE(decomposition_selected(inst, opt));
}

// ---------------------------------------------------------------------------
// Agreement with the monolithic sparse pipeline.

TEST(P2Decomposed, ForcedAdmmMatchesMonolithic) {
  const Instance inst = make_instance(4, 10, 2, 3, 23);
  const RoaRun mono = run_roa(inst, RoaOptions{});
  const RoaRun dec = run_roa(inst, forced_options());

  // Every slot must come from the decomposed backend on the first attempt.
  for (const SlotHealth& h : dec.slot_health) {
    EXPECT_EQ(h.backend, SolveBackend::kDecomposedAdmm) << "slot " << h.slot;
    EXPECT_EQ(h.attempts, 1u) << "slot " << h.slot;
  }
  EXPECT_TRUE(dec.healthy());

  expect_trajectories_agree(inst, mono, dec, 2e-3, 2e-2);

  const auto report =
      testing::check_trajectory(inst, dec.trajectory, {});
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(P2Decomposed, ForcedAdmmWithTier1Term) {
  const Instance inst = make_instance(3, 8, 2, 3, 41, /*model_tier1=*/true);
  const RoaRun mono = run_roa(inst, RoaOptions{});
  const RoaRun dec = run_roa(inst, forced_options());

  for (const SlotHealth& h : dec.slot_health) {
    EXPECT_EQ(h.backend, SolveBackend::kDecomposedAdmm) << "slot " << h.slot;
  }
  expect_trajectories_agree(inst, mono, dec, 2e-3, 2e-2);

  const auto report =
      testing::check_trajectory(inst, dec.trajectory, {});
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Determinism: the block fan-out must not change a bit with the thread
// count. 130 blocks of one dimension make three lockstep chunks (64, 64, 2)
// per round. On the test thread they spread over the shared pool; inside a
// task on a private pool the nested fan-out runs them one after another.

TEST(P2Decomposed, SerialAndPooledBitwiseIdentical) {
  if (util::ThreadPool::shared().thread_count() < 2)
    GTEST_SKIP() << "the shared pool has one thread, so both runs would be "
                    "inline; run with SORA_THREADS >= 2";
  testing::ScaledTopologyConfig cfg;
  cfg.num_tier2 = 20;
  cfg.num_tier1 = 130;
  cfg.sla_k = 2;
  cfg.horizon = 2;
  cfg.seed = 6;
  const Instance inst = testing::generate_scaled_instance(cfg);

  const RoaRun pooled = run_roa(inst, forced_options());
  RoaRun inline_run;
  {
    util::ThreadPool pool(2);
    util::TaskGroup group(pool);
    group.run([&] { inline_run = run_roa(inst, forced_options()); });
    group.wait();
  }

  ASSERT_EQ(pooled.trajectory.horizon(), inline_run.trajectory.horizon());
  for (std::size_t t = 0; t < pooled.trajectory.horizon(); ++t) {
    const Allocation& a = pooled.trajectory.slots[t];
    const Allocation& b = inline_run.trajectory.slots[t];
    EXPECT_EQ(a.x, b.x) << "x at slot " << t;
    EXPECT_EQ(a.y, b.y) << "y at slot " << t;
    EXPECT_EQ(a.z, b.z) << "z at slot " << t;
  }
  EXPECT_EQ(pooled.cost.total(), inline_run.cost.total());
  ASSERT_EQ(pooled.slot_health.size(), inline_run.slot_health.size());
  for (std::size_t t = 0; t < pooled.slot_health.size(); ++t) {
    const SlotHealth& a = pooled.slot_health[t];
    const SlotHealth& b = inline_run.slot_health[t];
    EXPECT_EQ(a.backend, SolveBackend::kDecomposedAdmm) << "slot " << t;
    EXPECT_EQ(a.backend, b.backend) << "slot " << t;
    EXPECT_EQ(a.status, b.status) << "slot " << t;
    EXPECT_EQ(a.attempts, b.attempts) << "slot " << t;
    EXPECT_EQ(a.degraded, b.degraded) << "slot " << t;
    EXPECT_EQ(a.repair_cost_delta, b.repair_cost_delta) << "slot " << t;
  }
}

// ---------------------------------------------------------------------------
// Demotion paths: the decomposed attempt must never take the run down.

TEST(P2Decomposed, StallDemotesToMonolithic) {
  const Instance inst = make_instance(4, 10, 2, 2, 13);
  const RoaRun mono = run_roa(inst, RoaOptions{});

  RoaOptions opt = forced_options();
  opt.decomposition.max_iterations = 1;  // guaranteed ADMM stall
  const RoaRun dec = run_roa(inst, opt);

  // Every slot demotes past the decomposed attempt into the monolithic
  // chain and still solves to optimality there.
  for (const SlotHealth& h : dec.slot_health) {
    EXPECT_NE(h.backend, SolveBackend::kDecomposedAdmm) << "slot " << h.slot;
    EXPECT_GE(h.attempts, 2u) << "slot " << h.slot;
    EXPECT_EQ(h.status, solver::SolveStatus::kOptimal) << "slot " << h.slot;
    EXPECT_FALSE(h.degraded) << "slot " << h.slot;
  }
  expect_trajectories_agree(inst, mono, dec, 1e-6, 1e-4);
}

TEST(P2Decomposed, InjectedFaultFallsBackOnThatSlotOnly) {
  const Instance inst = make_instance(4, 10, 2, 3, 29);

  set_fault_hook([](std::size_t slot, std::size_t attempt) {
    return (slot == 1 && attempt == 0) ? FaultKind::kIterationLimit
                                       : FaultKind::kNone;
  });
  const RoaRun dec = run_roa(inst, forced_options());
  set_fault_hook({});

  ASSERT_EQ(dec.slot_health.size(), inst.horizon);
  for (const SlotHealth& h : dec.slot_health) {
    EXPECT_EQ(h.status, solver::SolveStatus::kOptimal) << "slot " << h.slot;
    if (h.slot == 1) {
      EXPECT_NE(h.backend, SolveBackend::kDecomposedAdmm);
      EXPECT_GE(h.attempts, 2u);
    } else {
      EXPECT_EQ(h.backend, SolveBackend::kDecomposedAdmm) << "slot " << h.slot;
      EXPECT_EQ(h.attempts, 1u) << "slot " << h.slot;
    }
  }

  const auto report =
      testing::check_trajectory(inst, dec.trajectory, {});
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(P2Decomposed, BatchedSolvesDemoteThroughFallbackChain) {
  // An injected fault on the batched block round must still walk the slot
  // down the resilience chain — the batch stages and commits per-block
  // results but never changes the failure routing.
  const Instance inst = make_instance(4, 10, 2, 3, 37);

  set_fault_hook([](std::size_t slot, std::size_t attempt) {
    return (slot == 2 && attempt == 0) ? FaultKind::kIterationLimit
                                       : FaultKind::kNone;
  });
  const RoaRun dec = run_roa(inst, forced_options());
  set_fault_hook({});

  ASSERT_EQ(dec.slot_health.size(), inst.horizon);
  for (const SlotHealth& h : dec.slot_health) {
    EXPECT_EQ(h.status, solver::SolveStatus::kOptimal) << "slot " << h.slot;
    if (h.slot == 2) {
      EXPECT_NE(h.backend, SolveBackend::kDecomposedAdmm);
      EXPECT_GE(h.attempts, 2u);
    } else {
      EXPECT_EQ(h.backend, SolveBackend::kDecomposedAdmm) << "slot " << h.slot;
      EXPECT_EQ(h.attempts, 1u) << "slot " << h.slot;
    }
  }

  const auto report = testing::check_trajectory(inst, dec.trajectory, {});
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Scaled topologies (testing/generator): the instances the decomposed path
// exists for.

TEST(ScaledGenerator, DeterministicValidAndAutoSelected) {
  testing::ScaledTopologyConfig cfg;
  cfg.num_tier2 = 50;
  cfg.num_tier1 = 400;
  cfg.sla_k = 3;
  cfg.horizon = 2;
  cfg.seed = 5;

  const Instance a = testing::generate_scaled_instance(cfg);
  const Instance b = testing::generate_scaled_instance(cfg);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.demand, b.demand);
  EXPECT_EQ(a.tier2_capacity, b.tier2_capacity);
  EXPECT_EQ(a.tier2_price, b.tier2_price);

  EXPECT_EQ(a.num_tier1(), 400u);
  EXPECT_EQ(a.num_tier2(), 50u);
  EXPECT_EQ(a.num_edges(), 400u * 3u);
  EXPECT_TRUE(cloudnet::validate_instance(a).ok);

  // 1200 edges / 400 blocks clears the kAuto floors: this is the scale the
  // decomposed path switches on for by default.
  EXPECT_TRUE(decomposition_selected(a, DecompositionOptions{}));

  // A different seed moves the geography (and hence the demand field).
  cfg.seed = 6;
  const Instance c = testing::generate_scaled_instance(cfg);
  EXPECT_NE(a.demand, c.demand);
}

TEST(ScaledGenerator, DecomposedSolvesScaledInstance) {
  testing::ScaledTopologyConfig cfg;
  cfg.num_tier2 = 20;
  cfg.num_tier1 = 150;
  cfg.sla_k = 2;
  cfg.horizon = 2;
  cfg.seed = 17;
  const Instance inst = testing::generate_scaled_instance(cfg);

  const RoaRun dec = run_roa(inst, forced_options());
  EXPECT_TRUE(dec.healthy());
  for (const SlotHealth& h : dec.slot_health)
    EXPECT_EQ(h.backend, SolveBackend::kDecomposedAdmm) << "slot " << h.slot;

  const auto report =
      testing::check_trajectory(inst, dec.trajectory, {});
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace sora::core
