// N-tier generalization (Sec. III-E / supplementary).
//
// Tiers 0..N-1: tier 0 holds the edge clouds where workloads arrive, tier
// N-1 the top-tier clouds that process requests; intermediate tiers forward.
// Admissible links connect consecutive tiers (per-node SLA subsets, mirrors
// the two-tier k-nearest construction). Per slot, each tier-0 demand lambda_j
// must be routed as a flow through the layered DAG to top-tier nodes:
//
//   variables: f^j_l  (commodity flow of demand j on link l)
//              x_v    (node resource at every tier >= 1: forwarding at the
//                      intermediate tiers, processing at the top tier)
//              y_l    (link resource)
//   constraints: out-flow of j at its tier-0 node >= lambda_j; conservation
//                of each commodity at intermediate nodes; x_v >= through-flow
//                at v; y_l >= total flow on l; capacities.
//   cost: allocation (time-varying node prices, static link prices) plus
//         [increase]^+ reconfiguration on every x_v and y_l.
//
// The regularized online algorithm applies verbatim: each reconfiguration
// term becomes the entropic term with eta = ln(1 + cap/eps), and the slot
// subproblem is a smooth convex program solved by the barrier IPM. The exact
// N-tier competitive constant lives in the paper's supplementary material;
// this module provides the executable generalization plus the offline and
// greedy baselines for comparison.
//
// The module keeps only the model's own parts (instance, objective, slot
// polyhedron, window/violation/repair LPs, whose routing rows one generator
// writes); the slot chain's bookkeeping is core::SlotChain and the Sec.-IV
// controllers are the loops of control_loop.hpp.
#pragma once

#include <string>
#include <vector>

#include "core/forecast.hpp"
#include "core/resilience.hpp"
#include "linalg/vector_ops.hpp"
#include "solver/ipm.hpp"
#include "solver/lp_solve.hpp"
#include "util/rng.hpp"

namespace sora::core {

struct NTierLink {
  std::size_t tier;  // link goes from tier `tier` to `tier + 1`
  std::size_t from;  // node index within `tier`
  std::size_t to;    // node index within `tier + 1`
};

struct NTierInstance {
  std::size_t num_tiers = 0;
  std::vector<std::size_t> tier_sizes;             // nodes per tier
  std::vector<NTierLink> links;                    // all links, all tiers
  std::vector<std::vector<std::size_t>> out_links; // node key -> link ids

  std::size_t horizon = 0;
  std::vector<std::vector<double>> demand;      // [t][tier0 node]
  std::vector<std::vector<double>> node_price;  // [t][node key], tiers >= 1
  std::vector<double> link_price;               // per link, static
  std::vector<double> node_reconfig;            // b_v (node key)
  std::vector<double> link_reconfig;            // d_l
  std::vector<double> node_capacity;            // C_v (node key)
  std::vector<double> link_capacity;            // B_l

  /// Node key = global node index: tier offsets + index within tier.
  std::size_t node_key(std::size_t tier, std::size_t index) const;
  std::size_t num_nodes() const;
  std::size_t num_links() const { return links.size(); }
  std::size_t num_demands() const { return tier_sizes.empty() ? 0 : tier_sizes[0]; }

  /// Link ids usable by commodity j (reachable from tier-0 node j).
  const std::vector<std::size_t>& admissible_links(std::size_t j) const;

  void finalize();  // builds adjacency and reachability; call after filling
 private:
  std::vector<std::vector<std::size_t>> admissible_;  // per commodity
};

struct NTierConfig {
  std::vector<std::size_t> tier_sizes = {12, 6, 3};  // N = 3 default
  std::size_t sla_k = 2;            // out-degree per node toward next tier
  double capacity_margin = 1.25;
  double reconfig_weight = 1e3;
};

/// Synthetic N-tier instance: ring-adjacent SLA subsets, diurnal demands
/// (peak 1), unit-mean prices, capacities provisioned from the even-spread
/// peak flow times the margin (so the even spread is strictly feasible).
NTierInstance build_ntier_instance(const NTierConfig& config,
                                   const std::vector<double>& demand_trace,
                                   util::Rng& rng);

/// One slot decision: resources only (flows are internal).
struct NTierAllocation {
  linalg::Vec node;  // x_v by node key (tier-0 entries unused, zero)
  linalg::Vec link;  // y_l

  static NTierAllocation zeros(const NTierInstance& inst) {
    return {linalg::Vec(inst.num_nodes(), 0.0),
            linalg::Vec(inst.num_links(), 0.0)};
  }
};

struct NTierTrajectory {
  std::vector<NTierAllocation> slots;
};

struct NTierRoaOptions {
  double eps = 1e-2;
  solver::IpmOptions ipm;
  // Chain configuration: a slot the cold barrier solve cannot produce
  // (including one without a strict interior) holds x_{t-1} + the cheapest
  // coverage repair. resilience.enabled = false restores the fail-fast
  // behaviour.
  ResilienceOptions resilience;
  // Slot-SLO accounting (obs/slo.hpp), as RoaOptions::slo: latency
  // quantiles, and deadline hit/miss when the budget is positive.
  obs::SlotSloOptions slo;
  NTierRoaOptions() { ipm.tol = 1e-7; }
};

/// Total cost (allocation + [increase]^+ reconfiguration, zero initial state).
double ntier_total_cost(const NTierInstance& inst,
                        const NTierTrajectory& traj);

/// Worst constraint violation of slot t's decision (coverage feasibility is
/// checked by re-solving a max-flow style LP; 0 when feasible).
double ntier_slot_violation(const NTierInstance& inst, std::size_t t,
                            const NTierAllocation& alloc);

/// Per-slot solver health of an n-tier ROA run, as RoaRun's.
using NTierRoaHealth = ChainHealth;

/// Regularized online algorithm (per-slot convex subproblems P2-N(t)).
NTierTrajectory run_ntier_roa(const NTierInstance& inst,
                              const NTierRoaOptions& options = {},
                              NTierRoaHealth* health = nullptr);

/// Greedy sequence of one-shot LPs.
NTierTrajectory run_ntier_greedy(const NTierInstance& inst,
                                 const solver::LpSolveOptions& lp = {});

/// Offline optimum (full-horizon LP).
NTierTrajectory run_ntier_offline(const NTierInstance& inst,
                                  const solver::LpSolveOptions& lp = {});

// ---- Predictive control on the N-tier model (Sec. IV generalized) ----
//
// The two-tier controllers' loops (control_loop.hpp, described in
// predictive.hpp) over this model's window LP, P2-N chain and repair. The
// forecast noises the demand and node-price series as make_predictions
// does the two-tier ones (same function, same RNG draw order).

struct NTierControlOptions {
  std::size_t window = 4;
  PredictionModel prediction;  // error_pct == 0 -> exact predictions
  NTierRoaOptions roa;         // regularized inner solves (RFHC/RRHC)
  solver::LpSolveOptions lp;   // window LPs
};

struct NTierControlRun {
  std::string algorithm;
  NTierTrajectory trajectory;
  double cost = 0.0;           // against the true inputs
  std::size_t repairs = 0;     // slots where the repair LP had to add capacity
  // Slots planned by holding the applied decision after a failed window LP.
  std::size_t degraded_slots = 0;
  // Slots whose repair LP failed: the plan was applied unrepaired.
  std::size_t failed_repairs = 0;
  obs::SlotSloReport slo;      // as ControlRun::slo
};

NTierControlRun run_ntier_fhc(const NTierInstance& inst,
                              const NTierControlOptions& options);
NTierControlRun run_ntier_rhc(const NTierInstance& inst,
                              const NTierControlOptions& options);
NTierControlRun run_ntier_rfhc(const NTierInstance& inst,
                               const NTierControlOptions& options);
NTierControlRun run_ntier_rrhc(const NTierInstance& inst,
                               const NTierControlOptions& options);

/// Minimal additive repair: extra (node, link) resources so that a routing
/// of the TRUE demand at slot t fits inside the allocation, the controllers'
/// repair step. Exposed for tests; a failed repair LP throws CheckError.
NTierAllocation ntier_repair(const NTierInstance& inst, std::size_t t,
                             const NTierAllocation& planned,
                             const solver::LpSolveOptions& lp = {},
                             bool* repaired = nullptr);

}  // namespace sora::core
