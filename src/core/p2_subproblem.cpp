#include "core/p2_subproblem.hpp"

#include <algorithm>
#include <cmath>

#include "core/cost.hpp"
#include "core/regularizer.hpp"
#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace sora::core {
namespace {

using linalg::Matrix;
using linalg::SparseMatrix;
using solver::kInf;

// Warm-start blend weights, tried in order: the previous optimum v is
// pulled to (1 - a) v + a * anchor until the blend is strictly interior.
constexpr double kWarmStartBlends[] = {0.05, 0.25, 0.5};

// Handles resolved once; see Registry docs for the naming scheme.
struct P2Metrics {
  obs::Histogram* build_seconds;
  obs::Histogram* barrier_seconds;
  obs::Counter* warm_starts;
  obs::Counter* cold_starts;
};

const P2Metrics& p2_metrics() {
  static const P2Metrics metrics = [] {
    auto& reg = obs::Registry::global();
    auto seconds_buckets = [] { return obs::exponential_buckets(1e-6, 4.0, 14); };
    return P2Metrics{
        &reg.histogram("sora_p2_build_seconds", "seconds",
                       "P2 model build time per slot", seconds_buckets()),
        &reg.histogram("sora_p2_barrier_seconds", "seconds",
                       "P2 barrier solve time per slot", seconds_buckets()),
        &reg.counter("sora_p2_warm_starts_total",
                     "P2 solves started from the previous slot's optimum"),
        &reg.counter("sora_p2_cold_starts_total",
                     "P2 solves started from scratch"),
    };
  }();
  return metrics;
}

void observe_p2_timing(const P2Timing& timing) {
  if (!obs::metrics_enabled()) return;
  const P2Metrics& metrics = p2_metrics();
  metrics.build_seconds->observe(timing.build_seconds);
  metrics.barrier_seconds->observe(timing.solve_seconds);
  (timing.warm_started ? metrics.warm_starts : metrics.cold_starts)->inc();
}

// Variable layout: [x_e (E) | y_e (E) | s_e (E)] (+ [z_e (E)] with F_1).
struct Layout {
  std::size_t num_edges;
  bool with_z;
  std::size_t x(std::size_t e) const { return e; }
  std::size_t y(std::size_t e) const { return num_edges + e; }
  std::size_t s(std::size_t e) const { return 2 * num_edges + e; }
  std::size_t z(std::size_t e) const {
    SORA_DCHECK(with_z);
    return 3 * num_edges + e;
  }
  std::size_t size() const { return (with_z ? 4 : 3) * num_edges; }
};

Layout layout_for(const Instance& inst) {
  return Layout{inst.num_edges(), inst.has_tier1()};
}

// The even-split start inflated by small margins: s covers demand strictly,
// x, y (and z) strictly dominate s, capacities keep 25% headroom by
// provisioning. Tier-1 clouds with no admissible edges are skipped —
// dividing by |I_j| = 0 would poison the whole vector with NaN; positive
// demand there is structurally infeasible.
void even_split_start_into(const Instance& inst, const SlotInputs& in,
                           const Layout& layout, Vec& v) {
  v.assign(layout.size(), 0.0);
  for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
    const auto& ids = inst.edges_of_tier1[j];
    if (ids.empty()) {
      SORA_CHECK_MSG(in.lambda(j) <= 0.0,
                     "tier-1 cloud " + std::to_string(j) +
                         " has no admissible edges but positive demand at t=" +
                         std::to_string(in.slot) + ": P2 is infeasible");
      continue;
    }
    const double split = in.lambda(j) / static_cast<double>(ids.size());
    for (const std::size_t e : ids) {
      v[layout.s(e)] = split * 1.01 + 1e-7;
      v[layout.x(e)] = split * 1.02 + 2e-7;
      v[layout.y(e)] = split * 1.02 + 2e-7;
      if (layout.with_z) v[layout.z(e)] = split * 1.02 + 2e-7;
    }
  }
}

// The P2 objective with structure-once weights and per-slot state, plus
// allocation-free gradient/Hessian evaluation for the Newton loop: dense
// (hessian_into) and sparse lower-triangle (hessian_lower_values_into).
class P2Objective final : public solver::ConvexObjective {
 public:
  P2Objective(const Instance& inst, const RoaOptions& options)
      : inst_(inst), layout_(layout_for(inst)), options_(options) {
    const std::size_t E = layout_.num_edges;
    x_weight_.resize(inst.num_tier2());
    for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
      const double eta = regularizer_eta(inst.tier2_capacity[i], options.eps);
      x_weight_[i] = eta > 0.0 ? inst.tier2_reconfig[i] / eta : 0.0;
    }
    y_weight_.resize(E);
    price_y_.resize(E);
    for (std::size_t e = 0; e < E; ++e) {
      const double eta =
          regularizer_eta(inst.edge_capacity[e], options.eps_prime);
      y_weight_[e] = eta > 0.0 ? inst.edge_reconfig[e] / eta : 0.0;
      price_y_[e] = inst.edge_price[e];
    }
    price_x_.assign(E, 0.0);
    prev_totals_.assign(inst.num_tier2(), 0.0);
    prev_y_.assign(E, 0.0);
    totals_.assign(inst.num_tier2(), 0.0);
    if (layout_.with_z) {
      z_weight_.resize(inst.num_tier1());
      for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
        const double eta =
            regularizer_eta(inst.tier1_capacity[j], options.eps);
        z_weight_[j] = eta > 0.0 ? inst.tier1_reconfig[j] / eta : 0.0;
      }
      price_z_.assign(E, 0.0);
      prev_t1_totals_.assign(inst.num_tier1(), 0.0);
      t1_totals_.assign(inst.num_tier1(), 0.0);
    }
  }

  /// Patch the per-slot state (prices and the previous decision) in place.
  void begin_slot(const SlotInputs& in, const Allocation& prev) {
    const std::size_t E = layout_.num_edges;
    for (std::size_t e = 0; e < E; ++e)
      price_x_[e] = in.price(inst_.edges[e].tier2);
    std::fill(prev_totals_.begin(), prev_totals_.end(), 0.0);
    for (std::size_t e = 0; e < E; ++e)
      prev_totals_[inst_.edges[e].tier2] += prev.x[e];
    prev_y_ = prev.y;
    if (layout_.with_z) {
      for (std::size_t e = 0; e < E; ++e)
        price_z_[e] = in.t1_price(inst_.edges[e].tier1);
      std::fill(prev_t1_totals_.begin(), prev_t1_totals_.end(), 0.0);
      for (std::size_t e = 0; e < E; ++e)
        prev_t1_totals_[inst_.edges[e].tier1] += prev.z[e];
    }
  }

  double value(const Vec& v) const override {
    double total = 0.0;
    x_totals_into(v);
    for (std::size_t e = 0; e < layout_.num_edges; ++e) {
      total += price_x_[e] * v[layout_.x(e)];
      total += price_y_[e] * v[layout_.y(e)];
      total += y_weight_[e] * entropic_value(v[layout_.y(e)], prev_y_[e],
                                             options_.eps_prime);
    }
    for (std::size_t i = 0; i < totals_.size(); ++i)
      total += x_weight_[i] *
               entropic_value(totals_[i], prev_totals_[i], options_.eps);
    if (layout_.with_z) {
      z_totals_into(v);
      for (std::size_t e = 0; e < layout_.num_edges; ++e)
        total += price_z_[e] * v[layout_.z(e)];
      for (std::size_t j = 0; j < t1_totals_.size(); ++j)
        total += z_weight_[j] *
                 entropic_value(t1_totals_[j], prev_t1_totals_[j],
                                options_.eps);
    }
    return total;
  }

  void gradient_into(const Vec& v, Vec& g) const override {
    x_totals_into(v);
    for (std::size_t e = 0; e < layout_.num_edges; ++e) {
      const std::size_t i = inst_.edges[e].tier2;
      g[layout_.x(e)] =
          price_x_[e] + x_weight_[i] * entropic_gradient(totals_[i],
                                                         prev_totals_[i],
                                                         options_.eps);
      g[layout_.y(e)] =
          price_y_[e] + y_weight_[e] * entropic_gradient(v[layout_.y(e)],
                                                         prev_y_[e],
                                                         options_.eps_prime);
      g[layout_.s(e)] = 0.0;  // s does not appear in the objective
    }
    if (layout_.with_z) {
      z_totals_into(v);
      for (std::size_t e = 0; e < layout_.num_edges; ++e) {
        const std::size_t j = inst_.edges[e].tier1;
        g[layout_.z(e)] =
            price_z_[e] + z_weight_[j] * entropic_gradient(
                                             t1_totals_[j],
                                             prev_t1_totals_[j],
                                             options_.eps);
      }
    }
  }

  void hessian_into(const Vec& v, Matrix& h) const override {
    for (std::size_t r = 0; r < h.rows(); ++r) {
      double* row = h.row_ptr(r);
      std::fill(row, row + h.cols(), 0.0);
    }
    x_totals_into(v);
    for (std::size_t i = 0; i < inst_.num_tier2(); ++i) {
      const double curvature =
          x_weight_[i] * entropic_hessian(totals_[i], options_.eps);
      const auto& ids = inst_.edges_of_tier2[i];
      for (const std::size_t e1 : ids)
        for (const std::size_t e2 : ids)
          h(layout_.x(e1), layout_.x(e2)) = curvature;
    }
    for (std::size_t e = 0; e < layout_.num_edges; ++e)
      h(layout_.y(e), layout_.y(e)) =
          y_weight_[e] * entropic_hessian(v[layout_.y(e)], options_.eps_prime);
    if (layout_.with_z) {
      z_totals_into(v);
      for (std::size_t j = 0; j < inst_.num_tier1(); ++j) {
        const double curvature =
            z_weight_[j] * entropic_hessian(t1_totals_[j], options_.eps);
        const auto& ids = inst_.edges_of_tier1[j];
        for (const std::size_t e1 : ids)
          for (const std::size_t e2 : ids)
            h(layout_.z(e1), layout_.z(e2)) = curvature;
      }
    }
  }

  // Sparse-Hessian interface for the IPM's sparse normal-equations path:
  // one dense lower block per tier-2 cloud over its x variables, the y
  // diagonal, and (with a tier-1 term) one block per tier-1 site over its z
  // variables. The pattern is fixed; begin_slot() only moves values.
  bool hessian_lower_structure(
      std::vector<linalg::Triplet>& pattern) const override {
    for (std::size_t i = 0; i < inst_.num_tier2(); ++i) {
      const auto& ids = inst_.edges_of_tier2[i];
      for (std::size_t a = 0; a < ids.size(); ++a)
        for (std::size_t b = 0; b <= a; ++b)
          pattern.push_back({layout_.x(ids[a]), layout_.x(ids[b]), 0.0});
    }
    for (std::size_t e = 0; e < layout_.num_edges; ++e)
      pattern.push_back({layout_.y(e), layout_.y(e), 0.0});
    if (layout_.with_z) {
      for (std::size_t j = 0; j < inst_.num_tier1(); ++j) {
        const auto& ids = inst_.edges_of_tier1[j];
        for (std::size_t a = 0; a < ids.size(); ++a)
          for (std::size_t b = 0; b <= a; ++b)
            pattern.push_back({layout_.z(ids[a]), layout_.z(ids[b]), 0.0});
      }
    }
    return true;
  }

  void hessian_lower_values_into(const Vec& v, Vec& values) const override {
    std::size_t k = 0;
    x_totals_into(v);
    for (std::size_t i = 0; i < inst_.num_tier2(); ++i) {
      const double curvature =
          x_weight_[i] * entropic_hessian(totals_[i], options_.eps);
      const std::size_t block = inst_.edges_of_tier2[i].size();
      for (std::size_t p = 0; p < block * (block + 1) / 2; ++p)
        values[k++] = curvature;
    }
    for (std::size_t e = 0; e < layout_.num_edges; ++e)
      values[k++] =
          y_weight_[e] * entropic_hessian(v[layout_.y(e)], options_.eps_prime);
    if (layout_.with_z) {
      z_totals_into(v);
      for (std::size_t j = 0; j < inst_.num_tier1(); ++j) {
        const double curvature =
            z_weight_[j] * entropic_hessian(t1_totals_[j], options_.eps);
        const std::size_t block = inst_.edges_of_tier1[j].size();
        for (std::size_t p = 0; p < block * (block + 1) / 2; ++p)
          values[k++] = curvature;
      }
    }
    SORA_DCHECK(k == values.size());
  }

 private:
  void x_totals_into(const Vec& v) const {
    std::fill(totals_.begin(), totals_.end(), 0.0);
    for (std::size_t e = 0; e < layout_.num_edges; ++e)
      totals_[inst_.edges[e].tier2] += v[layout_.x(e)];
  }

  void z_totals_into(const Vec& v) const {
    std::fill(t1_totals_.begin(), t1_totals_.end(), 0.0);
    for (std::size_t e = 0; e < layout_.num_edges; ++e)
      t1_totals_[inst_.edges[e].tier1] += v[layout_.z(e)];
  }

  const Instance& inst_;
  Layout layout_;
  RoaOptions options_;
  Vec x_weight_, y_weight_, z_weight_;
  Vec price_x_, price_y_, price_z_;
  // Per-slot previous-decision aggregates and evaluation scratch.
  Vec prev_totals_, prev_y_, prev_t1_totals_;
  mutable Vec totals_, t1_totals_;
};

// The constraint polyhedron G v <= h of P2(t) in CSR form, with the rows of
// the paper's named constraints tracked for dual recovery. G is fixed for
// an instance; a slot only rewrites the coverage right-hand sides, so the
// Newton pattern (and its symbolic analysis) never changes.
struct P2Polyhedron {
  const Instance& inst;
  SparseMatrix g;
  Vec h_static;  // slot-independent right-hand sides (coverage rows hold 0)
  Vec h;         // per-slot patched copy
  std::vector<std::size_t> rho_row, phi_row, gamma_row, sigma_row;
  Vec slack_buf;

  P2Polyhedron(const Instance& inst_, const Layout& layout) : inst(inst_) {
    build_pattern(layout);
    h = h_static;
    slack_buf.assign(g.rows(), 0.0);
  }

  void build_pattern(const Layout& layout) {
    const std::size_t E = layout.num_edges;
    const std::size_t I = inst.num_tier2();
    const std::size_t J = inst.num_tier1();

    std::vector<linalg::Triplet> trips;
    std::size_t r = 0;
    rho_row.resize(E);
    phi_row.resize(E);
    gamma_row.resize(J);
    if (layout.with_z) sigma_row.resize(E);

    for (std::size_t e = 0; e < E; ++e) {
      rho_row[e] = r;
      trips.push_back({r, layout.s(e), 1.0});
      trips.push_back({r, layout.x(e), -1.0});
      h_static.push_back(0.0);
      ++r;
      phi_row[e] = r;
      trips.push_back({r, layout.s(e), 1.0});
      trips.push_back({r, layout.y(e), -1.0});
      h_static.push_back(0.0);
      ++r;
    }
    for (std::size_t j = 0; j < J; ++j) {  // (3c), h patched per slot
      gamma_row[j] = r;
      for (const std::size_t e : inst.edges_of_tier1[j])
        trips.push_back({r, layout.s(e), -1.0});
      h_static.push_back(0.0);
      ++r;
    }
    for (std::size_t e = 0; e < E; ++e) {  // (3f) + edge capacity (1c)
      trips.push_back({r, layout.x(e), -1.0});
      h_static.push_back(0.0);
      ++r;
      trips.push_back({r, layout.y(e), -1.0});
      h_static.push_back(0.0);
      ++r;
      trips.push_back({r, layout.s(e), -1.0});
      h_static.push_back(0.0);
      ++r;
      trips.push_back({r, layout.y(e), 1.0});
      h_static.push_back(inst.edge_capacity[e]);
      ++r;
    }
    for (std::size_t i = 0; i < I; ++i) {  // tier-2 capacity (1b)
      if (inst.edges_of_tier2[i].empty()) continue;
      for (const std::size_t e : inst.edges_of_tier2[i])
        trips.push_back({r, layout.x(e), 1.0});
      h_static.push_back(inst.tier2_capacity[i]);
      ++r;
    }
    if (layout.with_z) {
      for (std::size_t e = 0; e < E; ++e) {
        sigma_row[e] = r;
        trips.push_back({r, layout.s(e), 1.0});
        trips.push_back({r, layout.z(e), -1.0});
        h_static.push_back(0.0);
        ++r;
        trips.push_back({r, layout.z(e), -1.0});
        h_static.push_back(0.0);
        ++r;
      }
      for (std::size_t j = 0; j < J; ++j) {  // tier-1 capacity (1d)
        for (const std::size_t e : inst.edges_of_tier1[j])
          trips.push_back({r, layout.z(e), 1.0});
        h_static.push_back(inst.tier1_capacity[j]);
        ++r;
      }
    }

    g = SparseMatrix::from_triplets(r, layout.size(), std::move(trips));
  }

  void patch_slot(const SlotInputs& in) {
    h = h_static;
    for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
      const double lambda = in.lambda(j);
      // An edgeless cloud's (3c) row is empty; with zero demand pad it to
      // the inert 0 <= 1 (a vacuous 0 <= 0 has no strict interior), with
      // positive demand keep 0 <= -lambda so infeasibility surfaces.
      h[gamma_row[j]] =
          inst.edges_of_tier1[j].empty() && lambda <= 0.0 ? 1.0 : -lambda;
    }
  }

  double min_slack(const Vec& v) {
    g.multiply_into(v, slack_buf);
    double m = kInf;
    for (std::size_t r = 0; r < h.size(); ++r)
      m = std::min(m, h[r] - slack_buf[r]);
    return m;
  }

  // A strictly interior point of the patched polyhedron: `anchor` (the
  // even split) when it is one, else the phase-I LP's; !ok() when the
  // polyhedron has no strict interior.
  solver::StrictStart strict_point(const Vec& anchor) {
    if (min_slack(anchor) > 0.0)
      return {solver::SolveStatus::kOptimal, anchor, {}};
    SORA_LOG_DEBUG << "p2: even-split start infeasible; falling back to "
                      "phase-I LP";
    return solver::phase1_feasible_point(g, h);
  }
};

// Unpack a barrier optimum into the solution, clamped to the nonnegative
// orthant.
void extract_primal(const Layout& layout, const solver::IpmResult& result,
                    P2Solution& out) {
  out.alloc = Allocation::zeros(layout.num_edges);
  out.s.assign(layout.num_edges, 0.0);
  for (std::size_t e = 0; e < layout.num_edges; ++e) {
    out.alloc.x[e] = std::max(0.0, result.x[layout.x(e)]);
    out.alloc.y[e] = std::max(0.0, result.x[layout.y(e)]);
    if (layout.with_z) out.alloc.z[e] = std::max(0.0, result.x[layout.z(e)]);
    out.s[e] = std::max(0.0, result.x[layout.s(e)]);
  }
  out.objective = result.objective;
  out.newton_steps = result.newton_steps;
}

}  // namespace

CoverageRepair repair_coverage(const Instance& inst, const SlotInputs& in,
                               const Allocation& held,
                               const solver::LpSolveOptions& lp) {
  SORA_TRACE_SPAN("p2/repair");
  SORA_CHECK(held.x.size() == inst.num_edges());
  const std::size_t E = inst.num_edges();
  const bool with_z = inst.has_tier1();
  CoverageRepair rep;
  rep.outcome.status = solver::SolveStatus::kOptimal;
  rep.outcome.backend = SolveBackend::kHoldRepair;
  // `held` clamped to the nonnegative orthant, with s as large as (3a)/(3b)
  // (and z >= s) allow.
  Allocation& a = rep.alloc;
  a = Allocation::zeros(E);
  rep.s.assign(E, 0.0);
  for (std::size_t e = 0; e < E; ++e) {
    a.x[e] = std::max(0.0, held.x[e]);
    a.y[e] = std::max(0.0, held.y[e]);
    if (with_z) a.z[e] = std::max(0.0, held.z[e]);
    rep.s[e] = with_z ? std::min({a.x[e], a.y[e], a.z[e]})
                      : std::min(a.x[e], a.y[e]);
  }
  Vec residual(inst.num_tier1(), 0.0);
  for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
    double served = 0.0;
    for (const std::size_t e : inst.edges_of_tier1[j]) served += rep.s[e];
    residual[j] = std::max(0.0, in.lambda(j) - served);
    rep.repaired = rep.repaired || residual[j] > 1e-12;
  }
  if (!rep.repaired) return rep;

  // Additive repair LP in the deltas, one (dx, dy, ds[, dz]) column group
  // per edge; increases pay allocation plus reconfiguration, capacities
  // bound the push.
  solver::LpBuilder b;
  std::vector<std::size_t> dx(E), dy(E), ds(E), dz(with_z ? E : 0);
  for (std::size_t e = 0; e < E; ++e) {
    const std::size_t i = inst.edges[e].tier2;
    dx[e] = b.add_variable(0.0, kInf, in.price(i) + inst.tier2_reconfig[i]);
    dy[e] = b.add_variable(0.0, std::max(0.0, inst.edge_capacity[e] - a.y[e]),
                           inst.edge_price[e] + inst.edge_reconfig[e]);
    ds[e] = b.add_variable(0.0, kInf, 0.0);
    if (with_z) {
      const std::size_t j = inst.edges[e].tier1;
      dz[e] = b.add_variable(0.0, kInf,
                             in.t1_price(j) + inst.tier1_reconfig[j]);
    }
  }
  for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
    if (residual[j] <= 1e-12) continue;
    std::vector<solver::LinTerm> terms;
    for (const std::size_t e : inst.edges_of_tier1[j])
      terms.push_back({ds[e], 1.0});
    b.add_ge(terms, residual[j]);
  }
  for (std::size_t e = 0; e < E; ++e) {
    // s + ds must stay under each of x + dx, y + dy (and z + dz).
    b.add_le({{ds[e], 1.0}, {dx[e], -1.0}}, a.x[e] - rep.s[e]);
    b.add_le({{ds[e], 1.0}, {dy[e], -1.0}}, a.y[e] - rep.s[e]);
    if (with_z) b.add_le({{ds[e], 1.0}, {dz[e], -1.0}}, a.z[e] - rep.s[e]);
  }
  const Vec x_totals = tier2_totals(inst, a.x);
  for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
    if (inst.edges_of_tier2[i].empty()) continue;
    std::vector<solver::LinTerm> terms;
    for (const std::size_t e : inst.edges_of_tier2[i])
      terms.push_back({dx[e], 1.0});
    b.add_le(terms, std::max(0.0, inst.tier2_capacity[i] - x_totals[i]));
  }
  if (with_z) {
    const Vec z_totals = tier1_totals(inst, a.z);
    for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
      if (inst.edges_of_tier1[j].empty()) continue;
      std::vector<solver::LinTerm> terms;
      for (const std::size_t e : inst.edges_of_tier1[j])
        terms.push_back({dz[e], 1.0});
      b.add_le(terms, std::max(0.0, inst.tier1_capacity[j] - z_totals[j]));
    }
  }

  SolveOutcome lp_outcome;
  const solver::LpSolution sol =
      solve_lp_with_fallback(b.build(), lp, &lp_outcome);
  rep.outcome.attempts = lp_outcome.attempts;
  rep.outcome.iterations = lp_outcome.iterations;
  if (!sol.ok()) {
    rep.outcome.status = sol.status;
    rep.outcome.detail = lp_outcome.detail;
    return rep;
  }
  for (std::size_t e = 0; e < E; ++e) {
    a.x[e] = std::max(0.0, a.x[e] + sol.x[dx[e]]);
    a.y[e] = std::max(0.0, a.y[e] + sol.x[dy[e]]);
    rep.s[e] = std::max(0.0, rep.s[e] + sol.x[ds[e]]);
    if (with_z) a.z[e] = std::max(0.0, a.z[e] + sol.x[dz[e]]);
  }
  rep.outcome.repair_cost_delta = sol.objective;
  return rep;
}

// ---------------------------------------------------------------------------
// P2Workspace: structure-once CSR constraints + warm-started solves.

struct P2Workspace::Impl {
  const Instance& inst;
  RoaOptions options;
  Layout layout;
  P2Objective objective;
  P2Polyhedron poly;

  // Warm-start state: the packed [x|y|s|z] optimum of the previous solve.
  Vec last_opt;
  bool has_last = false;

  // Preallocated buffers (reused across slots).
  solver::IpmScratch scratch;
  Vec start, anchor;

  Impl(const Instance& inst_, const RoaOptions& options_)
      : inst(inst_), options(options_), layout(layout_for(inst_)),
        objective(inst_, options_), poly(inst_, layout) {}

  // The previous optimum pulled into the strict interior by a blend with
  // the even-split `anchor`; false when warm starting is off, the workspace
  // is cold, or no blend is strictly interior.
  bool warm_start_into(Vec& point) {
    if (!options.warm_start || !has_last) return false;
    // Slack is affine, so slack(blend) = (1-a) slack(last) + a
    // slack(anchor): escalating a trades proximity for interior margin.
    for (const double a : kWarmStartBlends) {
      point.resize(layout.size());
      for (std::size_t k = 0; k < layout.size(); ++k)
        point[k] = (1.0 - a) * last_opt[k] + a * anchor[k];
      if (poly.min_slack(point) > 1e-9) return true;
    }
    return false;
  }

  // Terminal stage: hold x_{t-1} and repair coverage (repair_coverage).
  // The held-and-repaired point — x_{t-1} itself when the repair LP fails,
  // which the returned outcome reports — becomes the next warm-start seed.
  SolveOutcome hold(const SlotInputs& in, const Allocation& prev,
                    P2Solution& out) {
    CoverageRepair rep = repair_coverage(inst, in, prev);
    Vec point(layout.size(), 0.0);
    for (std::size_t e = 0; e < layout.num_edges; ++e) {
      point[layout.x(e)] = rep.alloc.x[e];
      point[layout.y(e)] = rep.alloc.y[e];
      point[layout.s(e)] = rep.s[e];
      if (layout.with_z) point[layout.z(e)] = rep.alloc.z[e];
    }
    out.alloc = std::move(rep.alloc);
    out.s = std::move(rep.s);
    out.objective = objective.value(point);
    out.newton_steps = 0;
    last_opt = std::move(point);
    has_last = true;
    return rep.outcome;
  }

  // One slot through the chain: a barrier solve per start the slot has
  // (warm, then cold; a slot without a strict interior has none), then
  // hold + repair. `solve` false is the deadline path: straight to the
  // terminal stage. Throws only on structural errors (positive demand at an
  // edgeless cloud) and, with resilience disabled, on the first failed
  // stage.
  P2Solution step(const SlotInputs& in, const Allocation& prev, bool solve) {
    SORA_CHECK(prev.x.size() == inst.num_edges());
    SORA_CHECK(in.demand != nullptr && in.demand->size() == inst.num_tier1());
    SORA_CHECK(in.tier2_price != nullptr &&
               in.tier2_price->size() == inst.num_tier2());
    SORA_CHECK(!layout.with_z || (in.tier1_price != nullptr &&
                                  in.tier1_price->size() == inst.num_tier1()));

    double build_seconds = 0.0;
    double solve_seconds = 0.0;
    {
      SORA_TRACE_SPAN("p2/build");
      util::ScopedTimer build_timer(&build_seconds);
      poly.patch_slot(in);
      objective.begin_slot(in, prev);
    }

    SlotChain chain("p2", in.slot, options.resilience);
    solver::IpmResult result;
    P2Solution out;
    bool warm = false;
    const auto barrier = [&](const Vec& x0, const solver::IpmOptions& o,
                             SolveBackend backend) {
      {
        SORA_TRACE_SPAN("p2/barrier");
        util::ScopedTimer solve_timer(&solve_seconds);
        result =
            solver::solve_barrier(objective, poly.g, poly.h, x0, o, &scratch);
      }
      chain.barrier(backend, result);
    };

    if (solve) {
      {
        SORA_TRACE_SPAN("p2/start");
        util::ScopedTimer build_timer(&build_seconds);
        even_split_start_into(inst, in, layout, anchor);
        warm = warm_start_into(start);
      }
      if (warm) {
        // Near-optimal starts waste outer iterations re-centering at small
        // t: jump the barrier multiplier so the first center is already
        // within a modest gap of the warm point.
        solver::IpmOptions ipm = options.ipm;
        ipm.t0 = std::max(ipm.t0, static_cast<double>(poly.g.rows()) / 1e-2);
        barrier(start, ipm, SolveBackend::kWarmIpm);
      }
      if (!chain.solved()) {
        solver::StrictStart cold;
        {
          SORA_TRACE_SPAN("p2/start");
          util::ScopedTimer build_timer(&build_seconds);
          cold = poly.strict_point(anchor);
        }
        if (cold.ok())
          barrier(cold.x, options.ipm, SolveBackend::kColdIpm);
        else
          chain.no_start(SolveBackend::kColdIpm, cold);
      }
    }

    // Named KKT multipliers: zero after hold + repair, which produces no
    // KKT certificate for P2, and on an edgeless cloud's padded (3c) row.
    const std::size_t E = layout.num_edges;
    out.rho.assign(E, 0.0);
    out.phi.assign(E, 0.0);
    out.sigma.assign(E, 0.0);
    out.gamma.assign(inst.num_tier1(), 0.0);
    if (chain.solved()) {
      extract_primal(layout, result, out);
      for (std::size_t e = 0; e < E; ++e) {
        out.rho[e] = result.ineq_dual[poly.rho_row[e]];
        out.phi[e] = result.ineq_dual[poly.phi_row[e]];
        if (layout.with_z) out.sigma[e] = result.ineq_dual[poly.sigma_row[e]];
      }
      for (std::size_t j = 0; j < inst.num_tier1(); ++j)
        if (!inst.edges_of_tier1[j].empty())
          out.gamma[j] = result.ineq_dual[poly.gamma_row[j]];

      last_opt = result.x;
      has_last = true;
    } else {
      SORA_TRACE_SPAN("p2/degrade");
      util::ScopedTimer repair_timer(&solve_seconds);
      chain.hold_and_repair(hold(in, prev, out));
    }

    out.outcome = chain.finish();
    out.timing.build_seconds = build_seconds;
    out.timing.solve_seconds = solve_seconds;
    out.timing.warm_started = warm;
    observe_p2_timing(out.timing);
    return out;
  }
};

P2Workspace::P2Workspace(const Instance& inst, const RoaOptions& options)
    : impl_(std::make_unique<Impl>(inst, options)) {}

P2Workspace::~P2Workspace() = default;

P2Solution P2Workspace::solve(const InputSeries& inputs, std::size_t t,
                              const Allocation& prev) {
  SORA_CHECK(t < impl_->inst.horizon);
  return step(SlotInputs::at(impl_->inst, inputs, t), prev);
}

P2Solution P2Workspace::step(const SlotInputs& in, const Allocation& prev) {
  return impl_->step(in, prev, /*solve=*/true);
}

P2Solution P2Workspace::degrade(const SlotInputs& in, const Allocation& prev) {
  return impl_->step(in, prev, /*solve=*/false);
}

void P2Workspace::reset_warm_start() { impl_->has_last = false; }

bool P2Workspace::export_warm_start(Vec& out) const {
  if (!impl_->has_last) return false;
  out = impl_->last_opt;
  return true;
}

bool P2Workspace::import_warm_start(const Vec& state) {
  if (state.size() != impl_->layout.size()) {
    reset_warm_start();
    return false;
  }
  impl_->last_opt = state;
  impl_->has_last = true;
  return true;
}

const RoaOptions& P2Workspace::options() const { return impl_->options; }

Vec p2_strictly_feasible_point(const Instance& inst, const InputSeries& inputs,
                               std::size_t t) {
  const SlotInputs in = SlotInputs::at(inst, inputs, t);
  const Layout layout = layout_for(inst);
  P2Polyhedron poly(inst, layout);
  poly.patch_slot(in);
  Vec anchor;
  even_split_start_into(inst, in, layout, anchor);
  solver::StrictStart point = poly.strict_point(anchor);
  SORA_CHECK_MSG(point.ok(), "P2(t=" + std::to_string(t) + ") has " +
                                 point.detail);
  return std::move(point.x);
}

std::unique_ptr<solver::ConvexObjective> make_p2_objective(
    const Instance& inst, const RoaOptions& options, const SlotInputs& in,
    const Allocation& prev) {
  auto objective = std::make_unique<P2Objective>(inst, options);
  objective->begin_slot(in, prev);
  return objective;
}

P2Solution solve_p2(const Instance& inst, const InputSeries& inputs,
                    std::size_t t, const Allocation& prev,
                    const RoaOptions& options) {
  SORA_CHECK(t < inst.horizon);
  P2Workspace workspace(inst, options);
  P2Solution sol = workspace.solve(inputs, t, prev);
  SORA_CHECK_MSG(sol.outcome.ok(), "P2 infeasible at t=" + std::to_string(t) +
                                       ": " + sol.outcome.detail);
  return sol;
}

}  // namespace sora::core
