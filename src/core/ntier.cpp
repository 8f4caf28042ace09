#include "core/ntier.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/control_loop.hpp"
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
  for (std::size_t l = 0; l < links.size(); ++l)
    out_links[node_key(links[l].tier, links[l].from)].push_back(l);
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
  NTierAllocation prev = NTierAllocation::zeros(inst);
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

// A [t][entity] input series: the instance's own or a forecast.
using Series = std::vector<std::vector<double>>;

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

constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

// Where one slot's variables sit in an LP: commodity j's flow on its pos-th
// admissible link is column flow + offset[j][pos], node v's resource
// node + v, link l's resource link + l, commodity j's coverage shortage
// shortage + j. kNoColumn leaves that term out of the rows.
struct RoutingColumns {
  std::size_t flow = 0;
  std::size_t node = kNoColumn;
  std::size_t link = kNoColumn;
  std::size_t shortage = kNoColumn;
};

// The routing rows of one slot, for the slot polyhedron, the window LP, the
// violation LP and the repair LP:
//   coverage      [short_j] + j's out-flow at its tier-0 node >= lambda_j
//   conservation  j's out-flow - in-flow at each intermediate node >= 0
//   node          [x_v] - inflow at v        >= -held.node[v]
//   link          [y_l] - total flow on l    >= -held.link[l]
// `held` (null: none) is a resource level already in place. A row left with
// no term is dropped, except a coverage row.
void add_routing_rows(const NTierInstance& inst, const Vec& demand_row,
                      const NTierAllocation* held, const FlowIndex& fidx,
                      const RoutingColumns& cols, LpBuilder& b) {
  const auto flow = [&](std::size_t j, std::size_t pos) {
    return cols.flow + fidx.offset[j][pos];
  };
  const auto add_row = [&](const std::vector<LinTerm>& terms, double rhs) {
    if (!terms.empty()) b.add_ge(terms, rhs);
  };
  for (std::size_t j = 0; j < inst.num_demands(); ++j) {
    std::vector<LinTerm> terms;
    if (cols.shortage != kNoColumn) terms.push_back({cols.shortage + j, 1.0});
    for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
      const auto& link = inst.links[fidx.link_of[j][pos]];
      if (link.tier == 0 && link.from == j)
        terms.push_back({flow(j, pos), 1.0});
    }
    b.add_ge(terms, demand_row[j]);
  }
  for (std::size_t j = 0; j < inst.num_demands(); ++j) {
    for (std::size_t n = 1; n + 1 < inst.num_tiers; ++n) {
      for (std::size_t v = 0; v < inst.tier_sizes[n]; ++v) {
        std::vector<LinTerm> terms;
        for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
          const auto& link = inst.links[fidx.link_of[j][pos]];
          if (link.tier == n && link.from == v)
            terms.push_back({flow(j, pos), 1.0});
          else if (link.tier + 1 == n && link.to == v)
            terms.push_back({flow(j, pos), -1.0});
        }
        add_row(terms, 0.0);
      }
    }
  }
  for (std::size_t n = 1; n < inst.num_tiers; ++n) {
    for (std::size_t v = 0; v < inst.tier_sizes[n]; ++v) {
      const std::size_t key = inst.node_key(n, v);
      std::vector<LinTerm> terms;
      if (cols.node != kNoColumn) terms.push_back({cols.node + key, 1.0});
      for (std::size_t j = 0; j < inst.num_demands(); ++j)
        for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos) {
          const auto& link = inst.links[fidx.link_of[j][pos]];
          if (link.tier + 1 == n && link.to == v)
            terms.push_back({flow(j, pos), -1.0});
        }
      add_row(terms, held != nullptr ? -held->node[key] : 0.0);
    }
  }
  for (std::size_t l = 0; l < inst.num_links(); ++l) {
    std::vector<LinTerm> terms;
    if (cols.link != kNoColumn) terms.push_back({cols.link + l, 1.0});
    for (std::size_t j = 0; j < inst.num_demands(); ++j)
      for (std::size_t pos = 0; pos < fidx.link_of[j].size(); ++pos)
        if (fidx.link_of[j][pos] == l) terms.push_back({flow(j, pos), -1.0});
    add_row(terms, held != nullptr ? -held->link[l] : 0.0);
  }
}

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

// Window LP over [t0, t1) on the given demand/node-price series. Layout per
// slot: [f | x | y | u | w]. When `terminal` is set, the final slot's
// resources are pinned to it. nullopt when the LP fails on both backends
// (e.g. a forecast no allocation can cover).
std::optional<NTierTrajectory> solve_ntier_window(
    const NTierInstance& inst, const Series& demand, const Series& price,
    std::size_t t0, std::size_t t1, const NTierAllocation& prev,
    const NTierAllocation* terminal, const solver::LpSolveOptions& lp) {
  const FlowIndex fidx(inst);
  const std::size_t V = inst.num_nodes();
  const std::size_t L = inst.num_links();
  const std::size_t stride = fidx.count + 2 * V + 2 * L;
  const std::size_t window = t1 - t0;
  for (std::size_t t = t0; t < t1; ++t)
    check_demand_reachable(inst, demand[t], t);

  LpBuilder b;
  for (std::size_t rel = 0; rel < window; ++rel) {
    const std::size_t t = t0 + rel;
    const bool pinned = terminal != nullptr && rel == window - 1;
    for (std::size_t f = 0; f < fidx.count; ++f)
      b.add_variable(0.0, kInf, 0.0);
    for (std::size_t v = 0; v < V; ++v) {
      const double fix = pinned ? terminal->node[v] : -1.0;
      b.add_variable(pinned ? fix : 0.0,
                     pinned ? fix : inst.node_capacity[v], price[t][v]);
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
  // Slot rel's columns past its flows: x_v at v, y_l at V + l, u_v at
  // V + L + v, w_l at 2V + L + l.
  const auto col = [&](std::size_t rel, std::size_t offset) {
    return rel * stride + fidx.count + offset;
  };

  for (std::size_t rel = 0; rel < window; ++rel) {
    add_routing_rows(inst, demand[t0 + rel], nullptr, fidx,
                     {rel * stride, col(rel, 0), col(rel, V)}, b);
    for (std::size_t v = 0; v < V; ++v) {  // u >= [x_t - x_{t-1}]^+
      std::vector<LinTerm> terms{{col(rel, V + L + v), 1.0},
                                 {col(rel, v), -1.0}};
      if (rel > 0) terms.push_back({col(rel - 1, v), 1.0});
      b.add_ge(terms, rel > 0 ? 0.0 : -prev.node[v]);
    }
    for (std::size_t l = 0; l < L; ++l) {  // w >= [y_t - y_{t-1}]^+
      std::vector<LinTerm> terms{{col(rel, 2 * V + L + l), 1.0},
                                 {col(rel, V + l), -1.0}};
      if (rel > 0) terms.push_back({col(rel - 1, V + l), 1.0});
      b.add_ge(terms, rel > 0 ? 0.0 : -prev.link[l]);
    }
  }

  const solver::LpModel model = b.build();
  const std::size_t size = model.num_rows() + model.num_vars();
  util::Timer lp_timer;
  SolveOutcome lp_outcome;
  const auto sol = solve_lp_with_fallback(
      model, window_lp_options(model, lp), &lp_outcome);
  if (lp_outcome.fell_back())
    record_flight("ntier_window", t0, lp_outcome, lp_timer.seconds(),
                  "window[" + std::to_string(t0) + "," + std::to_string(t1) +
                      ") size=" + std::to_string(size));
  if (!sol.ok()) {
    SORA_LOG_WARN << "ntier: window LP failed over [" << t0 << ", " << t1
                  << ") (" << solver::to_string(sol.status) << " "
                  << sol.detail << ")";
    return std::nullopt;
  }

  NTierTrajectory traj;
  for (std::size_t rel = 0; rel < window; ++rel) {
    NTierAllocation a = NTierAllocation::zeros(inst);
    for (std::size_t v = 0; v < V; ++v)
      a.node[v] = std::max(0.0, sol.x[col(rel, v)]);
    for (std::size_t l = 0; l < L; ++l)
      a.link[l] = std::max(0.0, sol.x[col(rel, V + l)]);
    traj.slots.push_back(std::move(a));
  }
  return traj;
}

// The worst violation of `alloc` against slot t's capacities and the
// coverage of `demand_row`: the least total shortage of a routing inside
// the (x, y) resources, by LP.
double coverage_violation(const NTierInstance& inst, const Vec& demand_row,
                          std::size_t t, const NTierAllocation& alloc) {
  double worst = 0.0;
  NTierAllocation held = alloc;
  for (std::size_t v = 0; v < inst.num_nodes(); ++v) {
    worst = std::max(worst, alloc.node[v] - inst.node_capacity[v]);
    worst = std::max(worst, -alloc.node[v]);
    held.node[v] = std::max(0.0, alloc.node[v]);
  }
  for (std::size_t l = 0; l < inst.num_links(); ++l) {
    worst = std::max(worst, alloc.link[l] - inst.link_capacity[l]);
    worst = std::max(worst, -alloc.link[l]);
    held.link[l] = std::max(0.0, alloc.link[l]);
  }
  const FlowIndex fidx(inst);
  LpBuilder b;
  for (std::size_t f = 0; f < fidx.count; ++f) b.add_variable(0.0, kInf, 0.0);
  for (std::size_t j = 0; j < inst.num_demands(); ++j)
    b.add_variable(0.0, kInf, 1.0);  // shortage
  RoutingColumns cols;
  cols.shortage = fidx.count;
  add_routing_rows(inst, demand_row, &held, fidx, cols, b);
  const auto sol = solve_lp_with_fallback(b.build(), solver::LpSolveOptions{});
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

// The body of ntier_repair against the given demand/node-price rows: the
// cheapest additive (dx, dy) that lets a routing of `demand_row` fit inside
// planned + (dx, dy), paying allocation + reconfiguration on the push. A
// failed LP leaves `planned` in place and reports it in the outcome.
AppliedSlot<NTierAllocation> repair_against(const NTierInstance& inst,
                                            const Vec& demand_row,
                                            const Vec& price_row,
                                            std::size_t t,
                                            const NTierAllocation& planned,
                                            const solver::LpSolveOptions& lp) {
  AppliedSlot<NTierAllocation> rep{planned, false, {}};
  rep.outcome.status = solver::SolveStatus::kOptimal;
  rep.outcome.backend = SolveBackend::kHoldRepair;
  if (coverage_violation(inst, demand_row, t, planned) <= 1e-7) return rep;
  rep.repaired = true;

  const FlowIndex fidx(inst);
  const std::size_t V = inst.num_nodes();
  const std::size_t L = inst.num_links();
  LpBuilder b;
  for (std::size_t f = 0; f < fidx.count; ++f) b.add_variable(0.0, kInf, 0.0);
  for (std::size_t v = 0; v < V; ++v)
    b.add_variable(0.0, std::max(0.0, inst.node_capacity[v] - planned.node[v]),
                   price_row[v] + inst.node_reconfig[v]);
  for (std::size_t l = 0; l < L; ++l)
    b.add_variable(0.0, std::max(0.0, inst.link_capacity[l] - planned.link[l]),
                   inst.link_price[l] + inst.link_reconfig[l]);
  add_routing_rows(inst, demand_row, &planned, fidx,
                   {0, fidx.count, fidx.count + V}, b);

  const auto sol = solve_lp_with_fallback(b.build(), lp, &rep.outcome);
  rep.outcome.backend = SolveBackend::kHoldRepair;
  if (!sol.ok()) return rep;
  rep.outcome.repair_cost_delta = sol.objective;
  for (std::size_t v = 0; v < V; ++v)
    rep.alloc.node[v] += std::max(0.0, sol.x[fidx.count + v]);
  for (std::size_t l = 0; l < L; ++l)
    rep.alloc.link[l] += std::max(0.0, sol.x[fidx.count + V + l]);
  return rep;
}

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

  // Slot t through the chain on the given demand/node-price rows: the even
  // spread, else phase-I; one cold barrier solve when the polyhedron has a
  // strict interior; then hold x_{t-1} + repair.
  NTierAllocation solve(const Vec& demand_row, const Vec& price_row,
                        std::size_t t, const NTierAllocation& prev,
                        SolveOutcome* outcome_out = nullptr) {
    SORA_TRACE_SPAN("ntier/slot");
    util::Timer timer;
    check_demand_reachable(inst_, demand_row, t);
    for (std::size_t j = 0; j < inst_.num_demands(); ++j)
      // A linkless commodity's coverage row has no flow variables, so
      // "0 >= 0" would leave the barrier without a strict interior. Its
      // demand is zero (check_demand_reachable above); relax the empty row.
      h_[j] = fidx_.link_of[j].empty() ? 1.0 : -demand_row[j];

    const NTierP2Objective objective(inst_, price_row, prev, options_,
                                     fidx_.count);

    // Strictly feasible start: even spread with tier-increasing inflation so
    // every "out >= in" row is strictly slack.
    Vec z(fidx_.count, 1e-7);
    z.resize(fidx_.count + inst_.num_nodes() + inst_.num_links(), 0.0);
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

    SlotChain chain("ntier", t, options_.resilience);
    NTierAllocation a = NTierAllocation::zeros(inst_);
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
      if (chain.barrier(SolveBackend::kColdIpm, result)) {
        for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
          a.node[v] = inst_.node_capacity[v] > 0.0
                          ? std::max(0.0, result.x[objective.xvar(v)])
                          : 0.0;
        for (std::size_t l = 0; l < inst_.num_links(); ++l)
          a.link[l] = inst_.link_capacity[l] > 0.0
                          ? std::max(0.0, result.x[objective.yvar(l)])
                          : 0.0;
      }
    } else {
      chain.no_start(SolveBackend::kColdIpm, start);
    }
    if (!chain.solved()) {
      // Hold x_{t-1} and repair coverage of the demand this chain plans
      // with (a forecast under RFHC/RRHC; the controllers repair their
      // applied decisions against the truth). A failed repair publishes
      // x_{t-1}.
      AppliedSlot<NTierAllocation> rep =
          repair_against(inst_, demand_row, price_row, t, prev, {});
      a = std::move(rep.alloc);
      chain.hold_and_repair(rep.outcome);
    }
    const SolveOutcome outcome = chain.finish();
    record_flight("ntier_slot", t, outcome, timer.seconds());
    if (outcome_out != nullptr) *outcome_out = outcome;
    return a;
  }

 private:
  void build_constraints() {
    // Constraint polyhedron via an LpBuilder (reusing the routing rows) with
    // placeholder zero demands, then converted to CSR G z <= h. Coverage
    // rows are the first num_demands() rows; their right-hand sides are the
    // only slot-dependent part, patched in solve().
    // Zero-capacity resources (tier-0 nodes, unreachable links) have an
    // empty strict interior at [0, 0]; give them a tiny slack bound for the
    // barrier and zero them on extraction.
    constexpr double kTinyBound = 1e-4;
    const std::size_t n = fidx_.count + inst_.num_nodes() + inst_.num_links();
    LpBuilder b;
    for (std::size_t f = 0; f < fidx_.count; ++f)
      b.add_variable(0.0, kInf, 0.0);
    for (std::size_t v = 0; v < inst_.num_nodes(); ++v)
      b.add_variable(0.0, std::max(inst_.node_capacity[v], kTinyBound), 0.0);
    for (std::size_t l = 0; l < inst_.num_links(); ++l)
      b.add_variable(0.0, std::max(inst_.link_capacity[l], kTinyBound), 0.0);
    add_routing_rows(inst_, Vec(inst_.num_demands(), 0.0), nullptr, fidx_,
                     {0, fidx_.count, fidx_.count + inst_.num_nodes()}, b);
    const solver::LpModel cons = b.build();

    // Every routing row is a >= row: a z >= l becomes -a z <= -l.
    std::vector<linalg::Triplet> trips;
    std::size_t r = 0;
    const auto& offs = cons.a.row_offsets();
    const auto& cidx = cons.a.col_indices();
    const auto& cval = cons.a.values();
    for (; r < cons.num_rows(); ++r) {
      for (std::size_t kk = offs[r]; kk < offs[r + 1]; ++kk)
        trips.push_back({r, cidx[kk], -cval[kk]});
      h_.push_back(-cons.row_lower[r]);
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
  }

  const NTierInstance& inst_;
  NTierRoaOptions options_;
  FlowIndex fidx_;
  linalg::SparseMatrix g_;
  Vec h_;
  Vec slack_;  // G z scratch for the start's strict-interior test
  solver::IpmScratch scratch_;
};

// The n-tier model's pieces for the Sec.-IV loops (control_loop.hpp): the
// forecast series, the window LP, the slot chain and the repair.
class NTierModel {
 public:
  using Alloc = NTierAllocation;
  using Plan = NTierTrajectory;
  using Run = NTierControlRun;

  NTierModel(const NTierInstance& inst, const NTierControlOptions& options)
      : inst_(inst), options_(options), demand_(inst.demand),
        price_(inst.node_price) {
    add_forecast_noise(options.prediction, demand_, price_);
  }

  std::size_t horizon() const { return inst_.horizon; }
  NTierAllocation zeros() const { return NTierAllocation::zeros(inst_); }
  void observe(std::size_t t) {
    demand_[t] = inst_.demand[t];
    price_[t] = inst_.node_price[t];
  }

  std::optional<NTierTrajectory> window(std::size_t t0, std::size_t t1,
                                        const NTierAllocation& prev,
                                        const NTierAllocation* pin) const {
    return solve_ntier_window(inst_, demand_, price_, t0, t1, prev, pin,
                              options_.lp);
  }

  NTierAllocation chain_step(std::size_t t, const NTierAllocation& prev) {
    if (!slot_solver_) slot_solver_.emplace(inst_, options_.roa);
    return slot_solver_->solve(demand_[t], price_[t], t, prev);
  }

  AppliedSlot<NTierAllocation> apply(std::size_t t,
                                     const NTierAllocation& planned) const {
    return repair_against(inst_, inst_.demand[t], inst_.node_price[t], t,
                          planned, options_.lp);
  }

  void finish(NTierControlRun& run) const {
    run.cost = ntier_total_cost(inst_, run.trajectory);
  }

 private:
  const NTierInstance& inst_;
  const NTierControlOptions& options_;
  Series demand_, price_;
  std::optional<NTierSlotSolver> slot_solver_;
};

}  // namespace

double ntier_slot_violation(const NTierInstance& inst, std::size_t t,
                            const NTierAllocation& alloc) {
  return coverage_violation(inst, inst.demand[t], t, alloc);
}

NTierAllocation ntier_repair(const NTierInstance& inst, std::size_t t,
                             const NTierAllocation& planned,
                             const solver::LpSolveOptions& lp,
                             bool* repaired) {
  AppliedSlot<NTierAllocation> rep = repair_against(
      inst, inst.demand[t], inst.node_price[t], t, planned, lp);
  SORA_CHECK_MSG(rep.outcome.ok(), "n-tier repair LP failed at t=" +
                                       std::to_string(t) + ": " +
                                       rep.outcome.detail);
  if (repaired != nullptr) *repaired = rep.repaired;
  return std::move(rep.alloc);
}

NTierTrajectory run_ntier_roa(const NTierInstance& inst,
                              const NTierRoaOptions& options,
                              NTierRoaHealth* health) {
  SORA_TRACE_SPAN("ntier/run");
  NTierSlotSolver solver(inst, options);
  NTierTrajectory traj;
  NTierAllocation prev = NTierAllocation::zeros(inst);
  obs::SlotSloTracker slo(options.slo);
  static obs::Counter* slots = &obs::Registry::global().counter(
      "sora_ntier_slots_total", "N-tier ROA slots solved");
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    SolveOutcome outcome;
    util::Timer slot_timer;
    prev = solver.solve(inst.demand[t], inst.node_price[t], t, prev, &outcome);
    slo.record(slot_timer.seconds());
    traj.slots.push_back(prev);
    if (health != nullptr) health->record(t, outcome);
    if (obs::metrics_enabled()) slots->inc();
  }
  if (health != nullptr) health->slo = slo.report();
  return traj;
}

NTierTrajectory run_ntier_greedy(const NTierInstance& inst,
                                 const solver::LpSolveOptions& lp) {
  NTierTrajectory traj;
  NTierAllocation prev = NTierAllocation::zeros(inst);
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    std::optional<NTierTrajectory> slot = solve_ntier_window(
        inst, inst.demand, inst.node_price, t, t + 1, prev, nullptr, lp);
    SORA_CHECK_MSG(slot.has_value(),
                   "n-tier one-shot LP failed at t=" + std::to_string(t));
    prev = slot->slots[0];
    traj.slots.push_back(std::move(slot->slots[0]));
  }
  return traj;
}

NTierTrajectory run_ntier_offline(const NTierInstance& inst,
                                  const solver::LpSolveOptions& lp) {
  std::optional<NTierTrajectory> traj =
      solve_ntier_window(inst, inst.demand, inst.node_price, 0, inst.horizon,
                         NTierAllocation::zeros(inst), nullptr, lp);
  SORA_CHECK_MSG(traj.has_value(), "n-tier offline LP failed");
  return std::move(*traj);
}

NTierControlRun run_ntier_fhc(const NTierInstance& inst,
                              const NTierControlOptions& options) {
  NTierModel model(inst, options);
  return run_window_loop(model, "FHC", options.window, options.window,
                         options.roa.slo);
}

NTierControlRun run_ntier_rhc(const NTierInstance& inst,
                              const NTierControlOptions& options) {
  NTierModel model(inst, options);
  return run_window_loop(model, "RHC", options.window, 1, options.roa.slo);
}

NTierControlRun run_ntier_rfhc(const NTierInstance& inst,
                               const NTierControlOptions& options) {
  NTierModel model(inst, options);
  return run_rfhc_loop(model, options.window, options.roa.slo);
}

NTierControlRun run_ntier_rrhc(const NTierInstance& inst,
                               const NTierControlOptions& options) {
  NTierModel model(inst, options);
  return run_rrhc_loop(model, options.window, options.roa.slo);
}

}  // namespace sora::core
