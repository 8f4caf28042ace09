#include "core/ntier.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/regularizer.hpp"
#include "core/resilience.hpp"
#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "solver/ipm.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace sora::core {

using linalg::Matrix;
using linalg::Vec;
using solver::kInf;
using solver::LinTerm;
using solver::LpBuilder;

std::size_t NTierInstance::node_key(std::size_t tier, std::size_t index) const {
  SORA_DCHECK(tier < num_tiers && index < tier_sizes[tier]);
  std::size_t key = index;
  for (std::size_t n = 0; n < tier; ++n) key += tier_sizes[n];
  return key;
}

std::size_t NTierInstance::num_nodes() const {
  std::size_t n = 0;
  for (const std::size_t s : tier_sizes) n += s;
  return n;
}

const std::vector<std::size_t>& NTierInstance::admissible_links(
    std::size_t j) const {
  SORA_CHECK(j < admissible_.size());
  return admissible_[j];
}

void NTierInstance::finalize() {
  SORA_CHECK(num_tiers >= 2 && tier_sizes.size() == num_tiers);
  out_links.assign(num_nodes(), {});
  in_links.assign(num_nodes(), {});
  for (std::size_t l = 0; l < links.size(); ++l) {
    const auto& link = links[l];
    out_links[node_key(link.tier, link.from)].push_back(l);
    in_links[node_key(link.tier + 1, link.to)].push_back(l);
  }
  // Per-commodity admissible links: BFS from the tier-0 node.
  admissible_.assign(num_demands(), {});
  for (std::size_t j = 0; j < num_demands(); ++j) {
    std::vector<bool> node_reached(num_nodes(), false);
    node_reached[node_key(0, j)] = true;
    for (std::size_t n = 0; n + 1 < num_tiers; ++n) {
      for (std::size_t l = 0; l < links.size(); ++l) {
        if (links[l].tier != n) continue;
        if (!node_reached[node_key(n, links[l].from)]) continue;
        admissible_[j].push_back(l);
        node_reached[node_key(n + 1, links[l].to)] = true;
      }
    }
  }
}

namespace {

// Even spread of one demand row through the DAG: each node splits its flow
// evenly across its out-links. Returns aggregate per-link flow and per-node
// inflow (tier >= 1).
struct Spread {
  Vec node_inflow;  // by node key
  Vec link_flow;    // by link id
};

Spread even_spread(const NTierInstance& inst, const Vec& demand_row) {
  Spread s;
  s.node_inflow.assign(inst.num_nodes(), 0.0);
  s.link_flow.assign(inst.num_links(), 0.0);
  // Flow currently held at each node, to be pushed tier by tier.
  Vec holding(inst.num_nodes(), 0.0);
  for (std::size_t j = 0; j < inst.num_demands(); ++j)
    holding[inst.node_key(0, j)] = demand_row[j];
  for (std::size_t n = 0; n + 1 < inst.num_tiers; ++n) {
    for (std::size_t v = 0; v < inst.tier_sizes[n]; ++v) {
      const std::size_t key = inst.node_key(n, v);
      const auto& outs = inst.out_links[key];
      if (holding[key] <= 0.0) continue;
      SORA_CHECK_MSG(!outs.empty(), "dead-end node with positive flow");
      const double share = holding[key] / static_cast<double>(outs.size());
      for (const std::size_t l : outs) {
        s.link_flow[l] += share;
        const std::size_t to_key =
            inst.node_key(inst.links[l].tier + 1, inst.links[l].to);
        s.node_inflow[to_key] += share;
        holding[to_key] += share;
      }
      holding[key] = 0.0;
    }
  }
  return s;
}

}  // namespace

NTierInstance build_ntier_instance(const NTierConfig& config,
                                   const std::vector<double>& demand_trace,
                                   util::Rng& rng) {
  SORA_CHECK(config.tier_sizes.size() >= 2);
  SORA_CHECK(!demand_trace.empty());
  NTierInstance inst;
  inst.num_tiers = config.tier_sizes.size();
  inst.tier_sizes = config.tier_sizes;
  inst.horizon = demand_trace.size();

  // Ring-adjacent SLA: node v of tier n connects to k consecutive nodes of
  // tier n+1 starting at the proportionally mapped position.
  for (std::size_t n = 0; n + 1 < inst.num_tiers; ++n) {
    const std::size_t from_size = inst.tier_sizes[n];
    const std::size_t to_size = inst.tier_sizes[n + 1];
    const std::size_t k = std::min(config.sla_k, to_size);
    for (std::size_t v = 0; v < from_size; ++v) {
      const std::size_t base = (v * to_size) / from_size;
      for (std::size_t m = 0; m < k; ++m)
        inst.links.push_back({n, v, (base + m) % to_size});
    }
  }
  inst.finalize();

  // Demands: the trace replicated across tier-0 nodes (peak 1 assumed).
  inst.demand.assign(inst.horizon, Vec(inst.num_demands(), 0.0));
  for (std::size_t t = 0; t < inst.horizon; ++t)
    for (std::size_t j = 0; j < inst.num_demands(); ++j)
      inst.demand[t][j] = demand_trace[t];

  // Prices: per-node hourly series around 1 (tiers >= 1), static link prices.
  inst.node_price.assign(inst.horizon, Vec(inst.num_nodes(), 0.0));
  for (std::size_t n = 1; n < inst.num_tiers; ++n) {
    for (std::size_t v = 0; v < inst.tier_sizes[n]; ++v) {
      const std::size_t key = inst.node_key(n, v);
      const double mean = rng.uniform(0.7, 1.3);
      const double sd = rng.uniform(0.05, 0.35);
      for (std::size_t t = 0; t < inst.horizon; ++t)
        inst.node_price[t][key] = std::max(0.05, rng.normal(mean, sd));
    }
  }
  inst.link_price.resize(inst.num_links());
  for (double& p : inst.link_price) p = rng.uniform(0.7, 1.3);

  inst.node_reconfig.assign(inst.num_nodes(), config.reconfig_weight);
  inst.link_reconfig.assign(inst.num_links(), config.reconfig_weight);

  // Capacities: margin times the even-spread peak.
  Vec peak_node(inst.num_nodes(), 0.0), peak_link(inst.num_links(), 0.0);
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    const Spread s = even_spread(inst, inst.demand[t]);
    for (std::size_t v = 0; v < inst.num_nodes(); ++v)
      peak_node[v] = std::max(peak_node[v], s.node_inflow[v]);
    for (std::size_t l = 0; l < inst.num_links(); ++l)
      peak_link[l] = std::max(peak_link[l], s.link_flow[l]);
  }
  inst.node_capacity.resize(inst.num_nodes());
  inst.link_capacity.resize(inst.num_links());
  for (std::size_t v = 0; v < inst.num_nodes(); ++v)
    inst.node_capacity[v] = config.capacity_margin * peak_node[v];
  for (std::size_t l = 0; l < inst.num_links(); ++l)
    inst.link_capacity[l] = config.capacity_margin * peak_link[l];

  return inst;
}

double ntier_total_cost(const NTierInstance& inst,
                        const NTierTrajectory& traj) {
  SORA_CHECK(traj.slots.size() <= inst.horizon);
  double cost = 0.0;
  NTierAllocation prev{Vec(inst.num_nodes(), 0.0), Vec(inst.num_links(), 0.0)};
  for (std::size_t t = 0; t < traj.slots.size(); ++t) {
    const auto& a = traj.slots[t];
    for (std::size_t v = 0; v < inst.num_nodes(); ++v) {
      cost += inst.node_price[t][v] * a.node[v];
      const double inc = a.node[v] - prev.node[v];
      if (inc > 0.0) cost += inst.node_reconfig[v] * inc;
    }
    for (std::size_t l = 0; l < inst.num_links(); ++l) {
      cost += inst.link_price[l] * a.link[l];
      const double inc = a.link[l] - prev.link[l];
      if (inc > 0.0) cost += inst.link_reconfig[l] * inc;
    }
    prev = a;
  }
  return cost;
}

namespace {

// Commodity-flow variable indexing: per commodity j, only its admissible
// links get variables.
struct FlowIndex {
  std::vector<std::vector<std::size_t>> offset;  // [j][pos] -> flat id
  std::vector<std::vector<std::size_t>> link_of; // [j][pos] -> link id
  std::size_t count = 0;

  explicit FlowIndex(const NTierInstance& inst) {
    offset.resize(inst.num_demands());
    link_of.resize(inst.num_demands());
    for (std::size_t j = 0; j < inst.num_demands(); ++j) {
      for (const std::size_t l : inst.admissible_links(j)) {
        offset[j].push_back(count++);
        link_of[j].push_back(l);
      }
    }
  }
};

// Append the flow/routing constraints for one slot to an LpBuilder, with
// variable index translators supplied by the caller.
template <typename FlowVar, typename NodeVar, typename LinkVar>
void add_routing_rows(const NTierInstance& inst, const Vec& demand_row,
                      LpBuilder& b, const FlowIndex& fidx, FlowVar fvar,
                      NodeVar xvar, LinkVar yvar) {
  // Coverage: commodity j's tier-0 out-flow >= lambda_j.
  for (std::size_t j = 0; j < inst.num_demands(); ++j) {
    std::vector<LinTerm> terms;
    for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
      const auto& link = inst.links[fidx.link_of[j][pos]];
      if (link.tier == 0 && link.from == j)
        terms.push_back({fvar(j, pos), 1.0});
    }
    b.add_ge(terms, demand_row[j]);
  }
  // Conservation (no-vanish): at each intermediate node, out >= in.
  for (std::size_t j = 0; j < inst.num_demands(); ++j) {
    for (std::size_t n = 1; n + 1 < inst.num_tiers; ++n) {
      for (std::size_t v = 0; v < inst.tier_sizes[n]; ++v) {
        std::vector<LinTerm> terms;
        for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
          const auto& link = inst.links[fidx.link_of[j][pos]];
          if (link.tier == n && link.from == v)
            terms.push_back({fvar(j, pos), 1.0});
          else if (link.tier + 1 == n && link.to == v)
            terms.push_back({fvar(j, pos), -1.0});
        }
        if (!terms.empty()) b.add_ge(terms, 0.0);
      }
    }
  }
  // Node resource covers inflow; link resource covers total flow.
  for (std::size_t n = 1; n < inst.num_tiers; ++n) {
    for (std::size_t v = 0; v < inst.tier_sizes[n]; ++v) {
      std::vector<LinTerm> terms{{xvar(inst.node_key(n, v)), 1.0}};
      for (std::size_t j = 0; j < inst.num_demands(); ++j)
        for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
          const auto& link = inst.links[fidx.link_of[j][pos]];
          if (link.tier + 1 == n && link.to == v)
            terms.push_back({fvar(j, pos), -1.0});
        }
      b.add_ge(terms, 0.0);
    }
  }
  for (std::size_t l = 0; l < inst.num_links(); ++l) {
    std::vector<LinTerm> terms{{yvar(l), 1.0}};
    for (std::size_t j = 0; j < inst.num_demands(); ++j)
      for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos)
        if (fidx.link_of[j][pos] == l) terms.push_back({fvar(j, pos), -1.0});
    b.add_ge(terms, 0.0);
  }
}

// Resolved input series: the instance's own or a forecast override.
struct InputsView {
  const NTierInstance& inst;
  const NTierInputs* inputs;
  double lambda(std::size_t t, std::size_t j) const {
    return inputs != nullptr && inputs->demand != nullptr
               ? (*inputs->demand)[t][j]
               : inst.demand[t][j];
  }
  double price(std::size_t t, std::size_t v) const {
    return inputs != nullptr && inputs->node_price != nullptr
               ? (*inputs->node_price)[t][v]
               : inst.node_price[t][v];
  }
  Vec demand_row(std::size_t t) const {
    Vec row(inst.num_demands());
    for (std::size_t j = 0; j < row.size(); ++j) row[j] = lambda(t, j);
    return row;
  }
};

// A commodity with positive demand but no admissible links (a dead-end
// tier-0 node, or one cut off from the top tier) makes every formulation
// infeasible; fail with a structural message instead of a solver error.
// Mirrors the two-tier empty-SLA-group guard in p2_subproblem.cpp.
void check_demand_reachable(const NTierInstance& inst, const Vec& demand_row,
                            std::size_t t) {
  for (std::size_t j = 0; j < inst.num_demands(); ++j) {
    SORA_CHECK_MSG(
        demand_row[j] <= 0.0 || !inst.admissible_links(j).empty(),
        "tier-0 node " + std::to_string(j) +
            " has no admissible links but positive demand at t=" +
            std::to_string(t) + ": the n-tier problem is infeasible");
  }
}

// Window LP over [t0, t1). Layout per slot: [f | x | y | u | w]. When
// `terminal` is set, the final slot's resources are pinned to it.
//
// Failure handling: the LP is retried on the alternate backend by
// solve_lp_with_fallback. If both fail and `window_ok` is null, a
// recoverable CheckError is thrown; otherwise *window_ok is cleared and the
// window degrades to holding `prev` (the applier's repair step restores
// coverage slot by slot).
NTierTrajectory solve_ntier_window(const NTierInstance& inst,
                                   const InputsView& view, std::size_t t0,
                                   std::size_t t1,
                                   const NTierAllocation& prev,
                                   const NTierAllocation* terminal,
                                   const solver::LpSolveOptions& lp,
                                   bool* window_ok = nullptr) {
  const FlowIndex fidx(inst);
  const std::size_t V = inst.num_nodes();
  const std::size_t L = inst.num_links();
  const std::size_t stride = fidx.count + 2 * V + 2 * L;
  const std::size_t window = t1 - t0;
  for (std::size_t t = t0; t < t1; ++t)
    check_demand_reachable(inst, view.demand_row(t), t);

  LpBuilder b;
  for (std::size_t rel = 0; rel < window; ++rel) {
    const std::size_t t = t0 + rel;
    const bool pinned = terminal != nullptr && rel == window - 1;
    for (std::size_t f = 0; f < fidx.count; ++f)
      b.add_variable(0.0, kInf, 0.0);
    for (std::size_t v = 0; v < V; ++v) {
      const double fix = pinned ? terminal->node[v] : -1.0;
      b.add_variable(pinned ? fix : 0.0,
                     pinned ? fix : inst.node_capacity[v],
                     view.price(t, v));
    }
    for (std::size_t l = 0; l < L; ++l) {
      const double fix = pinned ? terminal->link[l] : -1.0;
      b.add_variable(pinned ? fix : 0.0,
                     pinned ? fix : inst.link_capacity[l],
                     inst.link_price[l]);
    }
    for (std::size_t v = 0; v < V; ++v)
      b.add_variable(0.0, kInf, inst.node_reconfig[v]);  // u
    for (std::size_t l = 0; l < L; ++l)
      b.add_variable(0.0, kInf, inst.link_reconfig[l]);  // w
  }
  auto fvar_at = [&](std::size_t rel) {
    return [&fidx, rel, stride](std::size_t j, std::size_t pos) {
      return rel * stride + fidx.offset[j][pos];
    };
  };
  auto xvar_at = [&](std::size_t rel) {
    return [&fidx, rel, stride](std::size_t v) {
      return rel * stride + fidx.count + v;
    };
  };
  auto yvar_at = [&](std::size_t rel) {
    return [&fidx, rel, stride, V](std::size_t l) {
      return rel * stride + fidx.count + V + l;
    };
  };
  auto uvar = [&](std::size_t rel, std::size_t v) {
    return rel * stride + fidx.count + V + L + v;
  };
  auto wvar = [&](std::size_t rel, std::size_t l) {
    return rel * stride + fidx.count + 2 * V + L + l;
  };

  for (std::size_t rel = 0; rel < window; ++rel) {
    const std::size_t t = t0 + rel;
    add_routing_rows(inst, view.demand_row(t), b, fidx, fvar_at(rel),
                     xvar_at(rel), yvar_at(rel));
    for (std::size_t v = 0; v < V; ++v) {
      std::vector<LinTerm> terms{{uvar(rel, v), 1.0},
                                 {xvar_at(rel)(v), -1.0}};
      if (rel > 0) terms.push_back({xvar_at(rel - 1)(v), 1.0});
      b.add_ge(terms, rel > 0 ? 0.0 : -prev.node[v]);
    }
    for (std::size_t l = 0; l < L; ++l) {
      std::vector<LinTerm> terms{{wvar(rel, l), 1.0},
                                 {yvar_at(rel)(l), -1.0}};
      if (rel > 0) terms.push_back({yvar_at(rel - 1)(l), 1.0});
      b.add_ge(terms, rel > 0 ? 0.0 : -prev.link[l]);
    }
  }

  const solver::LpModel model = b.build();
  // Same treatment as solve_p1_window: big multi-slot window LPs stall PDHG
  // at the default budget (and simplex at this size is a hang, not a
  // rescue), so scale the first-order budget with the model. Small windows
  // keep the caller's options untouched.
  solver::LpSolveOptions opts = lp;
  const std::size_t size = model.num_rows() + model.num_vars();
  if (size > opts.simplex_size_limit)
    opts.pdhg.max_iterations =
        std::max<std::size_t>(opts.pdhg.max_iterations, 120 * size);
  util::Timer lp_timer;
  SolveOutcome lp_outcome;
  const auto sol = solve_lp_with_fallback(model, opts, &lp_outcome);
  if (lp_outcome.fell_back() || !lp_outcome.ok())
    record_flight("ntier_window", t0, lp_outcome, lp_timer.seconds(),
                  "window[" + std::to_string(t0) + "," + std::to_string(t1) +
                      ") size=" + std::to_string(size));
  if (!sol.ok()) {
    if (window_ok != nullptr) {
      *window_ok = false;
      SORA_LOG_WARN << "ntier: window LP failed over [" << t0 << ", " << t1
                    << ") (" << solver::to_string(sol.status)
                    << "); holding the previous allocation";
      NTierTrajectory held;
      held.slots.assign(window, prev);
      return held;
    }
    SORA_CHECK_MSG(false, "n-tier window LP failed: " + sol.detail);
  }
  if (window_ok != nullptr) *window_ok = true;

  NTierTrajectory traj;
  for (std::size_t rel = 0; rel < window; ++rel) {
    NTierAllocation a{Vec(V, 0.0), Vec(L, 0.0)};
    for (std::size_t v = 0; v < V; ++v)
      a.node[v] = std::max(0.0, sol.x[xvar_at(rel)(v)]);
    for (std::size_t l = 0; l < L; ++l)
      a.link[l] = std::max(0.0, sol.x[yvar_at(rel)(l)]);
    traj.slots.push_back(std::move(a));
  }
  return traj;
}

// The bodies of ntier_slot_violation and ntier_repair, against a given
// demand row / the inputs of `view` instead of the instance's own; defined
// next to them below.
double coverage_violation(const NTierInstance& inst, const Vec& demand_row,
                          std::size_t t, const NTierAllocation& alloc);
NTierAllocation repair_against(const NTierInstance& inst,
                               const InputsView& view, std::size_t t,
                               const NTierAllocation& planned,
                               const solver::LpSolveOptions& lp,
                               bool* repaired, SolveOutcome* outcome);

// P2-N objective: linear prices + per-node/per-link entropic terms.
class NTierP2Objective : public solver::ConvexObjective {
 public:
  NTierP2Objective(const NTierInstance& inst, const Vec& price_row,
                   const NTierAllocation& prev, const NTierRoaOptions& options,
                   std::size_t flow_count)
      : inst_(inst), price_row_(price_row), prev_(prev), options_(options),
        flow_count_(flow_count) {
    node_weight_.resize(inst.num_nodes());
    for (std::size_t v = 0; v < inst.num_nodes(); ++v) {
      const double eta = regularizer_eta(inst.node_capacity[v], options.eps);
      node_weight_[v] = eta > 0.0 ? inst.node_reconfig[v] / eta : 0.0;
    }
    link_weight_.resize(inst.num_links());
    for (std::size_t l = 0; l < inst.num_links(); ++l) {
      const double eta = regularizer_eta(inst.link_capacity[l], options.eps);
      link_weight_[l] = eta > 0.0 ? inst.link_reconfig[l] / eta : 0.0;
    }
  }

  std::size_t xvar(std::size_t v) const { return flow_count_ + v; }
  std::size_t yvar(std::size_t l) const {
    return flow_count_ + inst_.num_nodes() + l;
  }
  std::size_t size() const {
    return flow_count_ + inst_.num_nodes() + inst_.num_links();
  }

  double value(const Vec& z) const override {
    double total = 0.0;
    for (std::size_t v = 0; v < inst_.num_nodes(); ++v) {
      total += price_row_[v] * z[xvar(v)];
      total += node_weight_[v] *
               entropic_value(z[xvar(v)], prev_.node[v], options_.eps);
    }
    for (std::size_t l = 0; l < inst_.num_links(); ++l) {
      total += inst_.link_price[l] * z[yvar(l)];
      total += link_weight_[l] *
               entropic_value(z[yvar(l)], prev_.link[l], options_.eps);
    }
    return total;
  }

  Vec gradient(const Vec& z) const override {
    Vec g(size(), 0.0);
    for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
      g[xvar(v)] = price_row_[v] +
                   node_weight_[v] * entropic_gradient(
                                         z[xvar(v)], prev_.node[v],
                                         options_.eps);
    for (std::size_t l = 0; l < inst_.num_links(); ++l)
      g[yvar(l)] = inst_.link_price[l] +
                   link_weight_[l] * entropic_gradient(
                                         z[yvar(l)], prev_.link[l],
                                         options_.eps);
    return g;
  }

  Matrix hessian(const Vec& z) const override {
    Matrix h(size(), size(), 0.0);
    hessian_into(z, h);
    return h;
  }

  void gradient_into(const Vec& z, Vec& g) const override {
    std::fill(g.begin(), g.end(), 0.0);
    for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
      g[xvar(v)] = price_row_[v] +
                   node_weight_[v] * entropic_gradient(
                                         z[xvar(v)], prev_.node[v],
                                         options_.eps);
    for (std::size_t l = 0; l < inst_.num_links(); ++l)
      g[yvar(l)] = inst_.link_price[l] +
                   link_weight_[l] * entropic_gradient(
                                         z[yvar(l)], prev_.link[l],
                                         options_.eps);
  }

  void hessian_into(const Vec& z, Matrix& h) const override {
    for (std::size_t r = 0; r < h.rows(); ++r) {
      double* row = h.row_ptr(r);
      std::fill(row, row + h.cols(), 0.0);
    }
    for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
      h(xvar(v), xvar(v)) =
          node_weight_[v] * entropic_hessian(z[xvar(v)], options_.eps);
    for (std::size_t l = 0; l < inst_.num_links(); ++l)
      h(yvar(l), yvar(l)) =
          link_weight_[l] * entropic_hessian(z[yvar(l)], options_.eps);
  }

  // The n-tier objective has curvature only on the node/link aggregate
  // variables (flow variables are linear), so the sparse-Hessian pattern is
  // a partial diagonal.
  bool hessian_lower_structure(
      std::vector<linalg::Triplet>& pattern) const override {
    for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
      pattern.push_back({xvar(v), xvar(v), 0.0});
    for (std::size_t l = 0; l < inst_.num_links(); ++l)
      pattern.push_back({yvar(l), yvar(l), 0.0});
    return true;
  }

  void hessian_lower_values_into(const Vec& z, Vec& values) const override {
    std::size_t k = 0;
    for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
      values[k++] =
          node_weight_[v] * entropic_hessian(z[xvar(v)], options_.eps);
    for (std::size_t l = 0; l < inst_.num_links(); ++l)
      values[k++] =
          link_weight_[l] * entropic_hessian(z[yvar(l)], options_.eps);
  }

 private:
  const NTierInstance& inst_;
  Vec price_row_;
  const NTierAllocation& prev_;
  NTierRoaOptions options_;
  std::size_t flow_count_;
  Vec node_weight_, link_weight_;
};

double coverage_violation(const NTierInstance& inst, const Vec& demand_row,
                          std::size_t t, const NTierAllocation& alloc) {
  double worst = 0.0;
  for (std::size_t v = 0; v < inst.num_nodes(); ++v) {
    worst = std::max(worst, alloc.node[v] - inst.node_capacity[v]);
    worst = std::max(worst, -alloc.node[v]);
  }
  for (std::size_t l = 0; l < inst.num_links(); ++l) {
    worst = std::max(worst, alloc.link[l] - inst.link_capacity[l]);
    worst = std::max(worst, -alloc.link[l]);
  }
  // Coverage: minimize total shortage of a routing within (x, y).
  const FlowIndex fidx(inst);
  LpBuilder b;
  for (std::size_t f = 0; f < fidx.count; ++f) b.add_variable(0.0, kInf, 0.0);
  std::vector<std::size_t> shortage(inst.num_demands());
  for (std::size_t j = 0; j < inst.num_demands(); ++j)
    shortage[j] = b.add_variable(0.0, kInf, 1.0);
  auto fvar = [&fidx](std::size_t j, std::size_t pos) {
    return fidx.offset[j][pos];
  };
  // Coverage with shortage slack.
  for (std::size_t j = 0; j < inst.num_demands(); ++j) {
    std::vector<LinTerm> terms{{shortage[j], 1.0}};
    for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
      const auto& link = inst.links[fidx.link_of[j][pos]];
      if (link.tier == 0 && link.from == j)
        terms.push_back({fvar(j, pos), 1.0});
    }
    b.add_ge(terms, demand_row[j]);
  }
  // Conservation out >= in.
  for (std::size_t j = 0; j < inst.num_demands(); ++j) {
    for (std::size_t n = 1; n + 1 < inst.num_tiers; ++n) {
      for (std::size_t v = 0; v < inst.tier_sizes[n]; ++v) {
        std::vector<LinTerm> terms;
        for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
          const auto& link = inst.links[fidx.link_of[j][pos]];
          if (link.tier == n && link.from == v)
            terms.push_back({fvar(j, pos), 1.0});
          else if (link.tier + 1 == n && link.to == v)
            terms.push_back({fvar(j, pos), -1.0});
        }
        if (!terms.empty()) b.add_ge(terms, 0.0);
      }
    }
  }
  // Resource limits from the given allocation.
  for (std::size_t n = 1; n < inst.num_tiers; ++n)
    for (std::size_t v = 0; v < inst.tier_sizes[n]; ++v) {
      std::vector<LinTerm> terms;
      for (std::size_t j = 0; j < inst.num_demands(); ++j)
        for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
          const auto& link = inst.links[fidx.link_of[j][pos]];
          if (link.tier + 1 == n && link.to == v)
            terms.push_back({fvar(j, pos), 1.0});
        }
      if (!terms.empty())
        b.add_le(terms, std::max(0.0, alloc.node[inst.node_key(n, v)]));
    }
  for (std::size_t l = 0; l < inst.num_links(); ++l) {
    std::vector<LinTerm> terms;
    for (std::size_t j = 0; j < inst.num_demands(); ++j)
      for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos)
        if (fidx.link_of[j][pos] == l) terms.push_back({fvar(j, pos), 1.0});
    if (!terms.empty()) b.add_le(terms, std::max(0.0, alloc.link[l]));
  }
  SolveOutcome lp_outcome;
  const auto sol =
      solve_lp_with_fallback(b.build(), solver::LpSolveOptions{}, &lp_outcome);
  if (!sol.ok()) {
    // Can't prove feasibility: report "maximally violated" so the caller's
    // repair step runs (it solves an independent LP) instead of aborting.
    SORA_LOG_WARN << "ntier: violation LP failed at t=" << t << " ("
                  << solver::to_string(sol.status)
                  << "); treating the slot as violated";
    return kInf;
  }
  return std::max(worst, sol.objective);
}

}  // namespace

double ntier_slot_violation(const NTierInstance& inst, std::size_t t,
                            const NTierAllocation& alloc) {
  return coverage_violation(inst, inst.demand[t], t, alloc);
}

namespace {

// Per-run solver for the regularized slot subproblems P2-N(t). The routing
// polyhedron's structure depends only on the network, so the CSR constraint
// matrix is assembled ONCE; each slot patches the coverage right-hand sides
// and re-runs the sparse barrier IPM with reused scratch buffers.
class NTierSlotSolver {
 public:
  NTierSlotSolver(const NTierInstance& inst, const NTierRoaOptions& options)
      : inst_(inst), options_(options), fidx_(inst) {
    build_constraints();
  }

  NTierAllocation solve(const InputsView& view, std::size_t t,
                        const NTierAllocation& prev,
                        SolveOutcome* outcome_out = nullptr) {
    SORA_TRACE_SPAN("ntier/slot");
    util::Timer timer;
    const Vec demand_row = view.demand_row(t);
    check_demand_reachable(inst_, demand_row, t);
    for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
      price_row_[v] = view.price(t, v);
    for (std::size_t j = 0; j < inst_.num_demands(); ++j)
      // A linkless commodity's coverage row has no flow variables, so
      // "0 >= 0" would leave the barrier without a strict interior. Its
      // demand is zero (check_demand_reachable above); relax the empty row.
      h_[coverage_h_[j]] =
          fidx_.link_of[j].empty() ? 1.0 : -demand_row[j];

    const NTierP2Objective objective(inst_, price_row_, prev, options_,
                                     fidx_.count);

    // Strictly feasible start: even spread with tier-increasing inflation so
    // every "out >= in" row is strictly slack.
    Vec z(num_vars(), 1e-7);
    for (std::size_t j = 0; j < inst_.num_demands(); ++j) {
      // Push commodity j's demand through its admissible links evenly,
      // inflating by 1% per tier.
      Vec holding(inst_.num_nodes(), 0.0);
      holding[inst_.node_key(0, j)] = demand_row[j] * 1.01 + 1e-6;
      for (std::size_t tier = 0; tier + 1 < inst_.num_tiers; ++tier) {
        for (std::size_t v = 0; v < inst_.tier_sizes[tier]; ++v) {
          const std::size_t key = inst_.node_key(tier, v);
          if (holding[key] <= 0.0) continue;
          // Out-links admissible for j at this node.
          std::vector<std::size_t> outs;
          for (std::size_t pos = 0; pos < fidx_.link_of[j].size(); ++pos) {
            const auto& link = inst_.links[fidx_.link_of[j][pos]];
            if (link.tier == tier && link.from == v) outs.push_back(pos);
          }
          if (outs.empty()) continue;
          const double share =
              holding[key] * 1.01 / static_cast<double>(outs.size());
          for (const std::size_t pos : outs) {
            z[fidx_.offset[j][pos]] += share;
            const auto& link = inst_.links[fidx_.link_of[j][pos]];
            holding[inst_.node_key(link.tier + 1, link.to)] += share;
          }
          holding[key] = 0.0;
        }
      }
    }
    // Resources strictly above the implied flows.
    for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
      z[objective.xvar(v)] = 0.0;
    for (std::size_t l = 0; l < inst_.num_links(); ++l)
      z[objective.yvar(l)] = 0.0;
    for (std::size_t j = 0; j < inst_.num_demands(); ++j)
      for (std::size_t pos = 0; pos < fidx_.link_of[j].size(); ++pos) {
        const double f = z[fidx_.offset[j][pos]];
        const auto& link = inst_.links[fidx_.link_of[j][pos]];
        z[objective.yvar(fidx_.link_of[j][pos])] += f;
        z[objective.xvar(inst_.node_key(link.tier + 1, link.to))] += f;
      }
    for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
      z[objective.xvar(v)] = z[objective.xvar(v)] * 1.01 + 1e-6;
    for (std::size_t l = 0; l < inst_.num_links(); ++l)
      z[objective.yvar(l)] = z[objective.yvar(l)] * 1.01 + 1e-6;

    // The chain: the even spread, else phase-I; one cold barrier solve when
    // the polyhedron has a strict interior; then hold x_{t-1} + repair.
    SolveOutcome outcome;
    outcome.backend = SolveBackend::kColdIpm;
    std::size_t attempt = 0;
    bool solved = false;
    NTierAllocation a{Vec(inst_.num_nodes(), 0.0),
                      Vec(inst_.num_links(), 0.0)};
    g_.multiply_into(z, slack_);
    double min_slack = kInf;
    for (std::size_t r = 0; r < h_.size(); ++r)
      min_slack = std::min(min_slack, h_[r] - slack_[r]);
    const solver::StrictStart start =
        min_slack > 0.0
            ? solver::StrictStart{solver::SolveStatus::kOptimal, std::move(z),
                                  {}}
            : solver::phase1_feasible_point(g_, h_);
    if (start.ok()) {
      solver::IpmResult result = solver::solve_barrier(
          objective, g_, h_, start.x, options_.ipm, &scratch_);
      apply_fault(consult_fault_hook(t, attempt), result.status, result.x);
      if (result.ok() && !all_finite(result.x)) {
        result.status = solver::SolveStatus::kNumericalError;
        result.detail += result.detail.empty() ? "non-finite solution"
                                               : " [non-finite solution]";
      }
      outcome.status = result.status;
      solved = result.ok();
      if (solved) {
        for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
          a.node[v] = inst_.node_capacity[v] > 0.0
                          ? std::max(0.0, result.x[objective.xvar(v)])
                          : 0.0;
        for (std::size_t l = 0; l < inst_.num_links(); ++l)
          a.link[l] = inst_.link_capacity[l] > 0.0
                          ? std::max(0.0, result.x[objective.yvar(l)])
                          : 0.0;
      } else {
        append_failure(outcome.detail, to_string(SolveBackend::kColdIpm),
                       result.status, result.detail);
      }
    } else {
      outcome.status = start.status;
      append_failure(outcome.detail, to_string(SolveBackend::kColdIpm),
                     start.status, start.detail);
    }
    ++attempt;
    SORA_CHECK_MSG(solved || options_.resilience.enabled,
                   "n-tier P2 failed at t=" + std::to_string(t) + ": " +
                       outcome.detail);
    if (!solved) {
      // Terminal stage, never fault-injected: hold x_{t-1} and repair
      // coverage of the demand this chain plans with (a forecast under
      // RFHC/RRHC; the controllers repair their applied decisions against
      // the truth). A failed repair publishes x_{t-1}.
      SORA_LOG_WARN << "ntier: P2 barrier failed at t=" << t << " ("
                    << outcome.detail << "); holding x_{t-1}";
      ++attempt;
      SolveOutcome rep;
      a = repair_against(inst_, view, t, prev, solver::LpSolveOptions{},
                         nullptr, &rep);
      outcome.backend = SolveBackend::kHoldRepair;
      outcome.status = rep.status;
      if (rep.ok()) {
        outcome.degraded = true;
        outcome.repair_cost_delta = rep.repair_cost_delta;
      } else {
        append_failure(outcome.detail, to_string(SolveBackend::kHoldRepair),
                       rep.status, rep.detail);
      }
    }
    outcome.attempts = attempt;
    observe_outcome(outcome);
    record_flight("ntier_slot", t, outcome, timer.seconds());
    if (outcome_out != nullptr) *outcome_out = outcome;
    return a;
  }

 private:
  std::size_t num_vars() const {
    return fidx_.count + inst_.num_nodes() + inst_.num_links();
  }

  void build_constraints() {
    // Constraint polyhedron via an LpBuilder (reusing the routing rows) with
    // placeholder zero demands, then converted to CSR G z <= h. Coverage
    // rows are the first num_demands() >= rows; their right-hand sides are
    // the only slot-dependent part, patched in solve().
    // Zero-capacity resources (tier-0 nodes, unreachable links) have an
    // empty strict interior at [0, 0]; give them a tiny slack bound for the
    // barrier and zero them on extraction.
    constexpr double kTinyBound = 1e-4;
    const std::size_t n = num_vars();
    LpBuilder b;
    for (std::size_t f = 0; f < fidx_.count; ++f)
      b.add_variable(0.0, kInf, 0.0);
    for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
      b.add_variable(0.0, std::max(inst_.node_capacity[v], kTinyBound), 0.0);
    for (std::size_t l = 0; l < inst_.num_links(); ++l)
      b.add_variable(0.0, std::max(inst_.link_capacity[l], kTinyBound), 0.0);
    const std::size_t V = inst_.num_nodes();
    add_routing_rows(
        inst_, Vec(inst_.num_demands(), 0.0), b, fidx_,
        [this](std::size_t j, std::size_t pos) {
          return fidx_.offset[j][pos];
        },
        [this](std::size_t v) { return fidx_.count + v; },
        [this, V](std::size_t l) { return fidx_.count + V + l; });
    const solver::LpModel cons = b.build();

    std::vector<linalg::Triplet> trips;
    std::size_t r = 0;
    coverage_h_.assign(inst_.num_demands(), static_cast<std::size_t>(-1));
    const auto& offs = cons.a.row_offsets();
    const auto& cidx = cons.a.col_indices();
    const auto& cval = cons.a.values();
    for (std::size_t lp_r = 0; lp_r < cons.num_rows(); ++lp_r) {
      if (std::isfinite(cons.row_lower[lp_r])) {  // a z >= l  ->  -a z <= -l
        for (std::size_t kk = offs[lp_r]; kk < offs[lp_r + 1]; ++kk)
          trips.push_back({r, cidx[kk], -cval[kk]});
        h_.push_back(-cons.row_lower[lp_r]);
        if (lp_r < inst_.num_demands()) coverage_h_[lp_r] = r;
        ++r;
      }
      if (std::isfinite(cons.row_upper[lp_r])) {
        for (std::size_t kk = offs[lp_r]; kk < offs[lp_r + 1]; ++kk)
          trips.push_back({r, cidx[kk], cval[kk]});
        h_.push_back(cons.row_upper[lp_r]);
        ++r;
      }
    }
    for (std::size_t c2 = 0; c2 < n; ++c2) {
      if (std::isfinite(cons.var_lower[c2])) {
        trips.push_back({r, c2, -1.0});
        h_.push_back(-cons.var_lower[c2]);
        ++r;
      }
      if (std::isfinite(cons.var_upper[c2])) {
        trips.push_back({r, c2, 1.0});
        h_.push_back(cons.var_upper[c2]);
        ++r;
      }
    }
    g_ = linalg::SparseMatrix::from_triplets(r, n, std::move(trips));
    slack_.assign(r, 0.0);
    price_row_.assign(inst_.num_nodes(), 0.0);
  }

  const NTierInstance& inst_;
  NTierRoaOptions options_;
  FlowIndex fidx_;
  linalg::SparseMatrix g_;
  Vec h_;
  std::vector<std::size_t> coverage_h_;  // h index of commodity j's coverage
  Vec price_row_;
  Vec slack_;  // G z scratch for the start's strict-interior test
  solver::IpmScratch scratch_;
};

}  // namespace

NTierTrajectory run_ntier_roa(const NTierInstance& inst,
                              const NTierRoaOptions& options,
                              const NTierInputs* inputs,
                              NTierRoaHealth* health) {
  SORA_TRACE_SPAN("ntier/run");
  const InputsView view{inst, inputs};
  NTierSlotSolver solver(inst, options);
  NTierTrajectory traj;
  NTierAllocation prev{Vec(inst.num_nodes(), 0.0), Vec(inst.num_links(), 0.0)};
  obs::SlotSloTracker slo(options.slo);
  static obs::Counter* slots = &obs::Registry::global().counter(
      "sora_ntier_slots_total", "N-tier ROA slots solved");
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    SolveOutcome outcome;
    util::Timer slot_timer;
    prev = solver.solve(view, t, prev, &outcome);
    const double slot_seconds = slot_timer.seconds();
    slo.record(to_slot_sample(outcome, slot_seconds));
    traj.slots.push_back(prev);
    if (health != nullptr) {
      health->slot_health.push_back(SlotHealth{t, outcome.status,
                                               outcome.backend,
                                               outcome.attempts,
                                               outcome.degraded,
                                               outcome.repair_cost_delta});
      if (outcome.fell_back()) ++health->fallback_slots;
      if (outcome.degraded) ++health->degraded_slots;
      health->repair_cost_delta += outcome.repair_cost_delta;
    }
    if (obs::metrics_enabled()) slots->inc();
  }
  if (health != nullptr) health->slo = slo.report();
  return traj;
}

NTierTrajectory run_ntier_greedy(const NTierInstance& inst,
                                 const solver::LpSolveOptions& lp) {
  const InputsView view{inst, nullptr};
  NTierTrajectory traj;
  NTierAllocation prev{Vec(inst.num_nodes(), 0.0), Vec(inst.num_links(), 0.0)};
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    NTierTrajectory slot =
        solve_ntier_window(inst, view, t, t + 1, prev, nullptr, lp);
    prev = slot.slots[0];
    traj.slots.push_back(std::move(slot.slots[0]));
  }
  return traj;
}

NTierTrajectory run_ntier_offline(const NTierInstance& inst,
                                  const solver::LpSolveOptions& lp) {
  const InputsView view{inst, nullptr};
  const NTierAllocation zero{Vec(inst.num_nodes(), 0.0),
                             Vec(inst.num_links(), 0.0)};
  return solve_ntier_window(inst, view, 0, inst.horizon, zero, nullptr, lp);
}

namespace {

NTierAllocation repair_against(const NTierInstance& inst,
                               const InputsView& view, std::size_t t,
                               const NTierAllocation& planned,
                               const solver::LpSolveOptions& lp,
                               bool* repaired, SolveOutcome* outcome) {
  if (repaired != nullptr) *repaired = false;
  if (outcome != nullptr) {
    *outcome = SolveOutcome{};
    outcome->status = solver::SolveStatus::kOptimal;
    outcome->backend = SolveBackend::kHoldRepair;
  }
  const Vec demand_row = view.demand_row(t);
  if (coverage_violation(inst, demand_row, t, planned) <= 1e-7)
    return planned;
  if (repaired != nullptr) *repaired = true;

  // Minimal additive buy: route the demand with resources planned +
  // (dx, dy), paying allocation + reconfiguration on the deltas.
  const FlowIndex fidx(inst);
  const std::size_t V = inst.num_nodes();
  const std::size_t L = inst.num_links();
  LpBuilder b;
  for (std::size_t f = 0; f < fidx.count; ++f) b.add_variable(0.0, kInf, 0.0);
  for (std::size_t v = 0; v < V; ++v) {
    const double headroom =
        std::max(0.0, inst.node_capacity[v] - planned.node[v]);
    b.add_variable(0.0, headroom, view.price(t, v) + inst.node_reconfig[v]);
  }
  for (std::size_t l = 0; l < L; ++l) {
    const double headroom =
        std::max(0.0, inst.link_capacity[l] - planned.link[l]);
    b.add_variable(0.0, headroom,
                   inst.link_price[l] + inst.link_reconfig[l]);
  }
  // Routing rows against the EFFECTIVE resources planned + delta: the node
  // and link rows become x_planned + dx >= inflow, i.e. dx >= inflow - plan.
  // add_routing_rows writes "resource - inflow >= 0" with the resource
  // variable's coefficient +1, so shifting the rhs is equivalent; we emulate
  // it by passing delta vars and then correcting the rows' rhs via extra
  // constant terms — easiest done by building the rows manually here.
  auto fvar = [&fidx](std::size_t j, std::size_t pos) {
    return fidx.offset[j][pos];
  };
  auto dxvar = [&fidx](std::size_t v) { return fidx.count + v; };
  auto dyvar = [&fidx, V](std::size_t l) { return fidx.count + V + l; };

  for (std::size_t j = 0; j < inst.num_demands(); ++j) {
    std::vector<LinTerm> terms;
    for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
      const auto& link = inst.links[fidx.link_of[j][pos]];
      if (link.tier == 0 && link.from == j)
        terms.push_back({fvar(j, pos), 1.0});
    }
    b.add_ge(terms, demand_row[j]);
  }
  for (std::size_t j = 0; j < inst.num_demands(); ++j)
    for (std::size_t n = 1; n + 1 < inst.num_tiers; ++n)
      for (std::size_t v = 0; v < inst.tier_sizes[n]; ++v) {
        std::vector<LinTerm> terms;
        for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
          const auto& link = inst.links[fidx.link_of[j][pos]];
          if (link.tier == n && link.from == v)
            terms.push_back({fvar(j, pos), 1.0});
          else if (link.tier + 1 == n && link.to == v)
            terms.push_back({fvar(j, pos), -1.0});
        }
        if (!terms.empty()) b.add_ge(terms, 0.0);
      }
  for (std::size_t n = 1; n < inst.num_tiers; ++n)
    for (std::size_t v = 0; v < inst.tier_sizes[n]; ++v) {
      const std::size_t key = inst.node_key(n, v);
      std::vector<LinTerm> terms{{dxvar(key), 1.0}};
      for (std::size_t j = 0; j < inst.num_demands(); ++j)
        for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
          const auto& link = inst.links[fidx.link_of[j][pos]];
          if (link.tier + 1 == n && link.to == v)
            terms.push_back({fvar(j, pos), -1.0});
        }
      b.add_ge(terms, -planned.node[key]);
    }
  for (std::size_t l = 0; l < L; ++l) {
    std::vector<LinTerm> terms{{dyvar(l), 1.0}};
    for (std::size_t j = 0; j < inst.num_demands(); ++j)
      for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos)
        if (fidx.link_of[j][pos] == l) terms.push_back({fvar(j, pos), -1.0});
    b.add_ge(terms, -planned.link[l]);
  }

  SolveOutcome lp_outcome;
  const auto sol = solve_lp_with_fallback(b.build(), lp, &lp_outcome);
  if (!sol.ok()) {
    if (outcome != nullptr) {
      *outcome = lp_outcome;
      SORA_LOG_ERROR << "ntier: repair LP failed at t=" << t << " ("
                     << solver::to_string(sol.status)
                     << "); returning the planned allocation unrepaired";
      return planned;
    }
    SORA_CHECK_MSG(false, "n-tier repair LP failed at t=" +
                              std::to_string(t) + ": " + sol.detail);
  }
  if (outcome != nullptr) {
    *outcome = lp_outcome;
    outcome->backend = SolveBackend::kHoldRepair;
    outcome->repair_cost_delta = sol.objective;
  }
  NTierAllocation out = planned;
  for (std::size_t v = 0; v < V; ++v)
    out.node[v] += std::max(0.0, sol.x[dxvar(v)]);
  for (std::size_t l = 0; l < L; ++l)
    out.link[l] += std::max(0.0, sol.x[dyvar(l)]);
  return out;
}

}  // namespace

NTierAllocation ntier_repair(const NTierInstance& inst, std::size_t t,
                             const NTierAllocation& planned,
                             const solver::LpSolveOptions& lp,
                             bool* repaired, SolveOutcome* outcome) {
  return repair_against(inst, InputsView{inst, nullptr}, t, planned, lp,
                        repaired, outcome);
}

namespace {

// Forecast series for the N-tier controllers (zero-mean Gaussian noise,
// sd = error_pct * temporal mean, mirroring the two-tier model).
struct NTierForecast {
  std::vector<std::vector<double>> demand;
  std::vector<std::vector<double>> node_price;

  NTierForecast(const NTierInstance& inst, double error_pct,
                std::uint64_t seed)
      : demand(inst.demand), node_price(inst.node_price) {
    if (error_pct <= 0.0) return;
    util::Rng rng(seed);
    for (std::size_t j = 0; j < inst.num_demands(); ++j) {
      double mean = 0.0;
      for (std::size_t t = 0; t < inst.horizon; ++t) mean += inst.demand[t][j];
      mean /= static_cast<double>(inst.horizon);
      for (std::size_t t = 0; t < inst.horizon; ++t)
        demand[t][j] = std::max(
            0.0, demand[t][j] + rng.normal(0.0, error_pct * mean));
    }
    for (std::size_t v = 0; v < inst.num_nodes(); ++v) {
      double mean = 0.0;
      for (std::size_t t = 0; t < inst.horizon; ++t)
        mean += inst.node_price[t][v];
      mean /= static_cast<double>(inst.horizon);
      for (std::size_t t = 0; t < inst.horizon; ++t)
        node_price[t][v] = std::max(
            1e-3, node_price[t][v] + rng.normal(0.0, error_pct * mean));
    }
  }

  void observe(const NTierInstance& inst, std::size_t t) {
    demand[t] = inst.demand[t];
    node_price[t] = inst.node_price[t];
  }

  NTierInputs inputs() const { return {&demand, &node_price}; }
};

struct NTierApplier {
  const NTierInstance& inst;
  const solver::LpSolveOptions& lp;
  NTierControlRun run;
  NTierAllocation prev;

  NTierApplier(const NTierInstance& inst_, const solver::LpSolveOptions& lp_,
               std::string name)
      : inst(inst_), lp(lp_),
        prev{Vec(inst_.num_nodes(), 0.0), Vec(inst_.num_links(), 0.0)} {
    run.algorithm = std::move(name);
  }

  void apply(std::size_t t, const NTierAllocation& planned) {
    bool repaired = false;
    SolveOutcome rep;
    NTierAllocation final_alloc =
        ntier_repair(inst, t, planned, lp, &repaired, &rep);
    if (repaired) ++run.repairs;
    if (!rep.ok()) {
      // A failed repair must not kill the run: apply the planned decision
      // unrepaired and account the slot as a failed repair.
      ++run.failed_repairs;
    }
    prev = final_alloc;
    run.trajectory.slots.push_back(std::move(final_alloc));
  }

  NTierControlRun finish() {
    run.cost = ntier_total_cost(inst, run.trajectory);
    return std::move(run);
  }
};

}  // namespace

NTierControlRun run_ntier_fhc(const NTierInstance& inst,
                              const NTierControlOptions& options) {
  SORA_CHECK(options.window >= 1);
  NTierForecast forecast(inst, options.error_pct, options.noise_seed);
  NTierApplier applier(inst, options.lp, "FHC");
  for (std::size_t t0 = 0; t0 < inst.horizon; t0 += options.window) {
    const std::size_t t1 = std::min(inst.horizon, t0 + options.window);
    forecast.observe(inst, t0);
    const NTierInputs in = forecast.inputs();
    const InputsView view{inst, &in};
    bool window_ok = true;
    const NTierTrajectory block =
        solve_ntier_window(inst, view, t0, t1, applier.prev, nullptr,
                           options.lp, &window_ok);
    if (!window_ok) applier.run.degraded_slots += block.slots.size();
    for (std::size_t rel = 0; rel < block.slots.size(); ++rel)
      applier.apply(t0 + rel, block.slots[rel]);
  }
  return applier.finish();
}

NTierControlRun run_ntier_rhc(const NTierInstance& inst,
                              const NTierControlOptions& options) {
  SORA_CHECK(options.window >= 1);
  NTierForecast forecast(inst, options.error_pct, options.noise_seed);
  NTierApplier applier(inst, options.lp, "RHC");
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    const std::size_t t1 = std::min(inst.horizon, t + options.window);
    forecast.observe(inst, t);
    const NTierInputs in = forecast.inputs();
    const InputsView view{inst, &in};
    bool window_ok = true;
    const NTierTrajectory window =
        solve_ntier_window(inst, view, t, t1, applier.prev, nullptr,
                           options.lp, &window_ok);
    if (!window_ok) ++applier.run.degraded_slots;
    applier.apply(t, window.slots[0]);
  }
  return applier.finish();
}

NTierControlRun run_ntier_rfhc(const NTierInstance& inst,
                               const NTierControlOptions& options) {
  SORA_CHECK(options.window >= 1);
  NTierForecast forecast(inst, options.error_pct, options.noise_seed);
  NTierApplier applier(inst, options.lp, "RFHC");
  NTierSlotSolver slot_solver(inst, options.roa);
  for (std::size_t t0 = 0; t0 < inst.horizon; t0 += options.window) {
    const std::size_t t1 = std::min(inst.horizon, t0 + options.window);
    forecast.observe(inst, t0);
    const NTierInputs in = forecast.inputs();
    const InputsView view{inst, &in};
    // Regularized chain across the block.
    std::vector<NTierAllocation> chain;
    NTierAllocation chain_prev = applier.prev;
    for (std::size_t t = t0; t < t1; ++t) {
      SolveOutcome oc;
      chain_prev = slot_solver.solve(view, t, chain_prev, &oc);
      if (oc.degraded) ++applier.run.degraded_slots;
      chain.push_back(chain_prev);
    }
    if (t1 - t0 == 1) {
      applier.apply(t0, chain[0]);
      continue;
    }
    bool window_ok = true;
    const NTierTrajectory block = solve_ntier_window(
        inst, view, t0, t1, applier.prev, &chain.back(), options.lp,
        &window_ok);
    if (!window_ok) applier.run.degraded_slots += block.slots.size();
    for (std::size_t rel = 0; rel < block.slots.size(); ++rel)
      applier.apply(t0 + rel, block.slots[rel]);
  }
  return applier.finish();
}

NTierControlRun run_ntier_rrhc(const NTierInstance& inst,
                               const NTierControlOptions& options) {
  SORA_CHECK(options.window >= 1);
  const std::size_t w = options.window;
  NTierForecast forecast(inst, options.error_pct, options.noise_seed);
  forecast.observe(inst, 0);

  std::vector<NTierAllocation> chain;
  NTierAllocation chain_prev{Vec(inst.num_nodes(), 0.0),
                             Vec(inst.num_links(), 0.0)};
  NTierApplier applier(inst, options.lp, "RRHC");
  NTierSlotSolver slot_solver(inst, options.roa);
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    forecast.observe(inst, t);
    const NTierInputs in = forecast.inputs();
    const InputsView view{inst, &in};
    const std::size_t t1 = std::min(inst.horizon, t + w);
    while (chain.size() < t1) {
      SolveOutcome oc;
      chain_prev = slot_solver.solve(view, chain.size(), chain_prev, &oc);
      if (oc.degraded) ++applier.run.degraded_slots;
      chain.push_back(chain_prev);
    }
    if (t1 - t == 1) {
      applier.apply(t, chain[t]);
      continue;
    }
    bool window_ok = true;
    const NTierTrajectory window = solve_ntier_window(
        inst, view, t, t1, applier.prev, &chain[t1 - 1], options.lp,
        &window_ok);
    if (!window_ok) ++applier.run.degraded_slots;
    applier.apply(t, window.slots[0]);
  }
  return applier.finish();
}

}  // namespace sora::core
