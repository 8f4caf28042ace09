// Solver micro-benchmarks (google-benchmark): the numerical substrate's hot
// paths — simplex and PDHG on covering LPs, the barrier IPM on a P2
// subproblem, and the core linear-algebra kernels.
#include <benchmark/benchmark.h>

#include "cloudnet/instance.hpp"
#include "core/p1_model.hpp"
#include "core/p2_subproblem.hpp"
#include "core/roa.hpp"
#include "eval/scenarios.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "obs/slo.hpp"
#include "solver/ipm.hpp"
#include "solver/pdhg.hpp"
#include "solver/simplex.hpp"
#include "testing/fault_injection.hpp"
#include "testing/generator.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace sora;

solver::LpModel covering_lp(std::size_t vars, std::size_t rows,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  solver::LpBuilder b;
  for (std::size_t j = 0; j < vars; ++j)
    b.add_variable(0.0, 10.0, rng.uniform(0.5, 2.0));
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<solver::LinTerm> terms;
    double reach = 0.0;
    for (std::size_t j = 0; j < vars; ++j)
      if (rng.uniform() < 0.3) {
        terms.push_back({j, rng.uniform(0.1, 1.0)});
        reach += terms.back().coeff * 10.0;
      }
    if (terms.empty()) {
      terms.push_back({i % vars, 1.0});
      reach = 10.0;
    }
    b.add_ge(terms, rng.uniform(0.0, 0.5 * reach));
  }
  return b.build();
}

void BM_SimplexCoveringLp(benchmark::State& state) {
  const auto model = covering_lp(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    const auto sol = solver::solve_simplex(model);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_SimplexCoveringLp)->Arg(20)->Arg(60)->Arg(150);

void BM_PdhgCoveringLp(benchmark::State& state) {
  const auto model = covering_lp(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(0)), 7);
  solver::PdhgOptions opts;
  opts.eps_rel = 1e-5;
  for (auto _ : state) {
    const auto sol = solver::solve_pdhg(model, opts);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_PdhgCoveringLp)->Arg(20)->Arg(60)->Arg(150);

void BM_P2Subproblem(benchmark::State& state) {
  eval::EvalScale scale;  // reduced
  eval::Scenario sc;
  sc.reconfig_weight = 1e3;
  sc.sla_k = static_cast<std::size_t>(state.range(0));
  const auto inst = eval::build_eval_instance(sc, scale);
  const auto prev = core::Allocation::zeros(inst.num_edges());
  for (auto _ : state) {
    const auto sol = core::solve_p2(inst, core::InputSeries::truth(inst), 0,
                                    prev);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_P2Subproblem)->Arg(1)->Arg(2)->Arg(4);

// ---- P2 solver pipeline: cold vs warm-started workspace solves on the
// reference (Fig. 5) P2 instance. sla_k is the range argument.

core::Instance reference_p2_instance(std::size_t sla_k) {
  eval::EvalScale scale;  // reduced
  eval::Scenario sc;
  sc.reconfig_weight = 1e3;
  sc.sla_k = sla_k;
  return eval::build_eval_instance(sc, scale);
}

void BM_P2SolveSparseCold(benchmark::State& state) {
  const auto inst =
      reference_p2_instance(static_cast<std::size_t>(state.range(0)));
  core::RoaOptions opts;
  opts.warm_start = false;
  core::P2Workspace workspace(inst, opts);
  const auto prev = core::Allocation::zeros(inst.num_edges());
  for (auto _ : state) {
    const auto sol = workspace.solve(core::InputSeries::truth(inst), 1, prev);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_P2SolveSparseCold)->Arg(1)->Arg(2)->Arg(4);

void BM_P2SolveSparseWarm(benchmark::State& state) {
  const auto inst =
      reference_p2_instance(static_cast<std::size_t>(state.range(0)));
  core::P2Workspace workspace(inst, {});
  // Chain setup: solve slot 0 cold so the timed slot-1 solves warm-start
  // from a neighbouring optimum, as in the online loop.
  const auto first = workspace.solve(core::InputSeries::truth(inst), 0,
                                     core::Allocation::zeros(inst.num_edges()));
  for (auto _ : state) {
    const auto sol =
        workspace.solve(core::InputSeries::truth(inst), 1, first.alloc);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_P2SolveSparseWarm)->Arg(1)->Arg(2)->Arg(4);

// ---- End-to-end ROA on the Fig. 5 scenario (Wikipedia-like workload,
// b = 10^3, k = 1, reduced scale) through the default warm-started pipeline.

void BM_RunRoaFig5SparseWarm(benchmark::State& state) {
  const auto inst = reference_p2_instance(1);
  for (auto _ : state) {
    const auto run = core::run_roa(inst);
    benchmark::DoNotOptimize(run.cost);
  }
}
BENCHMARK(BM_RunRoaFig5SparseWarm)->Unit(benchmark::kMillisecond);

void BM_OneShotLp(benchmark::State& state) {
  eval::EvalScale scale;
  eval::Scenario sc;
  sc.sla_k = 2;
  const auto inst = eval::build_eval_instance(sc, scale);
  const auto prev = core::Allocation::zeros(inst.num_edges());
  for (auto _ : state) {
    const auto a =
        core::solve_one_shot(inst, core::InputSeries::truth(inst), 0, prev);
    benchmark::DoNotOptimize(a.x[0]);
  }
}
BENCHMARK(BM_OneShotLp);

void BM_SparseSpmv(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<linalg::Triplet> trip;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = 0; k < 8; ++k)
      trip.push_back({r, rng.uniform_index(n), rng.normal()});
  const auto a = linalg::SparseMatrix::from_triplets(n, n, trip);
  linalg::Vec x(n, 1.0);
  for (auto _ : state) {
    auto y = a.multiply(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nonzeros()));
}
BENCHMARK(BM_SparseSpmv)->Arg(1000)->Arg(10000)->Arg(100000);

// ---- The symbolic-once sparse Cholesky on a banded SPD system (bandwidth
// 8, ~17 nnz/row) shaped like the P2 normal matrices. It times the numeric
// refactor + solve only — the symbolic analysis is hoisted out of the loop,
// matching the per-Newton-step cost the IPM pays after the first solve.

linalg::SymSparse banded_spd(std::size_t n, std::size_t bandwidth,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<linalg::Triplet> trips;
  for (std::size_t r = 0; r < n; ++r) {
    trips.push_back({r, r, 4.0 * static_cast<double>(bandwidth)});
    for (std::size_t c = (r > bandwidth ? r - bandwidth : 0); c < r; ++c)
      trips.push_back({r, c, rng.normal()});
  }
  return linalg::SymSparse::from_lower_triplets(n, std::move(trips));
}

void BM_CholeskySparse(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = banded_spd(n, 8, 11);
  linalg::SparseCholesky chol;
  chol.analyze(a);  // symbolic once, outside the timed loop
  linalg::Vec b(n, 1.0);
  for (auto _ : state) {
    chol.factor_regularized(a, 1e-12, 1e16);
    linalg::Vec x = b;
    chol.solve_in_place(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_CholeskySparse)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// ---- Per-slot latency distribution across the online horizon. The slotted
// loop cares about tail latency, not the mean: one slow slot delays every
// decision behind it. Reports p50/p99 over all slots solved during the
// benchmark for the P2 chain and for the fault-demoted fallback (every
// slot's first barrier attempt forced to fail, so the timed path is the
// failed attempt plus the chain's recovery).

cloudnet::Instance slot_latency_instance() {
  // 512 edges over 256 tier-1 sites: the largest topology where a full
  // fallback sweep stays benchmarkable.
  testing::ScaledTopologyConfig cfg;
  cfg.num_tier2 = 32;
  cfg.num_tier1 = 256;
  cfg.sla_k = 2;
  cfg.horizon = 3;
  cfg.seed = 11;
  return testing::generate_scaled_instance(cfg);
}

void run_slot_latency(benchmark::State& state, const cloudnet::Instance& inst,
                      const core::RoaOptions& opts) {
  // Same streaming digest the production SLO path uses, so the reported
  // quantiles carry the digest's half-octave resolution — what a scrape of
  // sora_slot_latency_seconds would actually show.
  obs::SloDigest digest;
  const auto inputs = core::InputSeries::truth(inst);
  for (auto _ : state) {
    core::P2Workspace workspace(inst, opts);
    auto prev = core::Allocation::zeros(inst.num_edges());
    for (std::size_t t = 0; t < inst.horizon; ++t) {
      util::Timer timer;
      const auto sol = workspace.solve(inputs, t, prev);
      digest.observe(timer.seconds());
      prev = sol.alloc;
      benchmark::DoNotOptimize(sol.objective);
    }
  }
  state.counters["slot_p50_ms"] = digest.quantile(0.50) * 1e3;
  state.counters["slot_p99_ms"] = digest.quantile(0.99) * 1e3;
}

void BM_SlotLatencyMonolithic(benchmark::State& state) {
  run_slot_latency(state, slot_latency_instance(), core::RoaOptions{});
}
BENCHMARK(BM_SlotLatencyMonolithic)->Unit(benchmark::kMillisecond);

void BM_SlotLatencyFallback(benchmark::State& state) {
  testing::FaultPlan plan;
  plan.fault_rate = 1.0;  // every slot: the first barrier attempt fails
  plan.forced_attempts = 1;
  plan.mix_kinds = false;
  testing::FaultInjector injector(plan);
  run_slot_latency(state, slot_latency_instance(), core::RoaOptions{});
}
BENCHMARK(BM_SlotLatencyFallback)->Unit(benchmark::kMillisecond);

// The full 200x2000 scaled topology (6000 edges, 18,000 variables). One
// iteration solves two slots (cold + warm). Heavy by construction —
// excluded from the CI bench-smoke filter; run via bench/run_benchmarks.sh
// for the committed BENCH_solver.json.
void BM_SlotLatencyScaledMonolithic(benchmark::State& state) {
  testing::ScaledTopologyConfig cfg;  // 200 x 2000 / k3 defaults
  cfg.horizon = 2;
  run_slot_latency(state, testing::generate_scaled_instance(cfg),
                   core::RoaOptions{});
}
BENCHMARK(BM_SlotLatencyScaledMonolithic)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

// The JSON context's `library_build_type` describes the google-benchmark
// library, not this code; record our own build type so run_benchmarks.sh can
// refuse numbers from a non-optimized build of the solver itself.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("sora_build_type", "release");
#else
  benchmark::AddCustomContext("sora_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
