#include "core/p2_subproblem.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/cost.hpp"
#include "core/regularizer.hpp"
#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "solver/simplex.hpp"
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

  Vec gradient(const Vec& v) const override {
    Vec g(layout_.size(), 0.0);
    gradient_into(v, g);
    return g;
  }

  Matrix hessian(const Vec& v) const override {
    Matrix h(layout_.size(), layout_.size(), 0.0);
    hessian_into(v, h);
    return h;
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

// G v <= h row by row into an LP whose first g.cols() variables are v. With
// a margin column (phase-I) every row carries + margin; without one, a row
// with no terms (an edgeless zero-demand cloud's padded (3c), 0 <= 1) is
// dropped.
void add_polyhedron_rows(const SparseMatrix& g, const Vec& h,
                         std::optional<std::size_t> margin,
                         solver::LpBuilder& b) {
  for (std::size_t r = 0; r < g.rows(); ++r) {
    std::vector<solver::LinTerm> terms;
    const auto row = g.row(r);
    for (std::size_t k = 0; k < row.size; ++k)
      if (row.vals[k] != 0.0) terms.push_back({row.cols[k], row.vals[k]});
    if (margin) terms.push_back({*margin, 1.0});
    if (!terms.empty()) b.add_le(terms, h[r]);
  }
}

// Phase-I LP: maximize the margin m with G v + m <= h, 0 <= m <= 1.
Vec phase1_feasible_point(const SparseMatrix& g, const Vec& h) {
  solver::LpBuilder b;
  const std::size_t n = g.cols();
  for (std::size_t j = 0; j < n; ++j) b.add_variable(-kInf, kInf, 0.0);
  const std::size_t margin = b.add_variable(0.0, 1.0, -1.0, "margin");
  add_polyhedron_rows(g, h, margin, b);
  const auto sol = solver::solve_simplex(b.build());
  SORA_CHECK_MSG(sol.ok(), "P2 phase-I LP failed");
  SORA_CHECK_MSG(sol.x[margin] > 1e-9,
                 "P2 subproblem has no strictly feasible point");
  return Vec(sol.x.begin(), sol.x.begin() + static_cast<std::ptrdiff_t>(n));
}

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
  // even split) when it is one, else the phase-I LP's.
  void strict_point_into(const Vec& anchor, Vec& point) {
    if (min_slack(anchor) > 0.0) {
      point = anchor;
      return;
    }
    SORA_LOG_DEBUG << "p2: even-split start infeasible; falling back to "
                      "phase-I LP";
    point = phase1_feasible_point(g, h);
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

  // Choose the starting point: the previous optimum pulled into the strict
  // interior when warm starting, else the even-split anchor, else phase-I.
  bool compute_start(const SlotInputs& in) {
    even_split_start_into(inst, in, layout, anchor);
    if (options.warm_start && has_last) {
      // Slack is affine, so slack(blend) = (1-a) slack(last) + a
      // slack(anchor): escalating a trades proximity for interior margin.
      for (const double a : kWarmStartBlends) {
        start.resize(layout.size());
        for (std::size_t k = 0; k < layout.size(); ++k)
          start[k] = (1.0 - a) * last_opt[k] + a * anchor[k];
        if (poly.min_slack(start) > 1e-9) return true;
      }
    }
    poly.strict_point_into(anchor, start);
    return false;
  }

  // A cold start for a fallback attempt. `anchor` was filled by
  // compute_start.
  const Vec& cold_start_point() {
    poly.strict_point_into(anchor, start);
    return start;
  }

  // Zero-fill the named multipliers: fallback backends (LP surrogate,
  // hold + repair) produce no meaningful KKT certificate for P2.
  void zero_duals(P2Solution& out) const {
    out.rho.assign(layout.num_edges, 0.0);
    out.phi.assign(layout.num_edges, 0.0);
    out.sigma.assign(layout.num_edges, 0.0);
    out.gamma.assign(inst.num_tier1(), 0.0);
  }

  // Unpack a [x|y|s|z] point into the solution, clamped to the nonnegative
  // orthant, and evaluate the true (regularized) P2 objective there.
  void fill_from_point(const Vec& v, P2Solution& out) {
    out.alloc = Allocation::zeros(layout.num_edges);
    out.s.assign(layout.num_edges, 0.0);
    Vec clamped(layout.size(), 0.0);
    for (std::size_t k = 0; k < layout.size(); ++k)
      clamped[k] = std::max(0.0, v[k]);
    for (std::size_t e = 0; e < layout.num_edges; ++e) {
      out.alloc.x[e] = clamped[layout.x(e)];
      out.alloc.y[e] = clamped[layout.y(e)];
      if (layout.with_z) out.alloc.z[e] = clamped[layout.z(e)];
      out.s[e] = clamped[layout.s(e)];
    }
    out.objective = objective.value(clamped);
    last_opt = std::move(clamped);
    has_last = true;
  }

  // LP fallback: minimize the linear part of P2's objective plus a linear
  // surrogate of the reconfiguration cost (u >= increase of the regularized
  // aggregates) over the SAME patched polyhedron G v <= h. Keeps the slot
  // decision near-optimal for P1 even though the entropic terms are dropped.
  bool solve_lp_surrogate(const SlotInputs& in, const Allocation& prev,
                          P2Solution& out, SolveOutcome& outcome,
                          std::size_t& attempt) {
    const std::size_t E = layout.num_edges;
    solver::LpBuilder b;
    for (std::size_t e = 0; e < E; ++e)
      b.add_variable(0.0, kInf, in.price(inst.edges[e].tier2));
    for (std::size_t e = 0; e < E; ++e)
      b.add_variable(0.0, kInf, inst.edge_price[e]);
    for (std::size_t e = 0; e < E; ++e) b.add_variable(0.0, kInf, 0.0);
    if (layout.with_z)
      for (std::size_t e = 0; e < E; ++e)
        b.add_variable(0.0, kInf, in.t1_price(inst.edges[e].tier1));
    // Reconfiguration surrogate: u >= (new aggregate) - (previous aggregate),
    // charged at the paper's switching prices b_i / d_e / b'_j.
    const Vec prev_x_totals = tier2_totals(inst, prev.x);
    for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
      const std::size_t u =
          b.add_variable(0.0, kInf, inst.tier2_reconfig[i]);
      std::vector<solver::LinTerm> terms{{u, 1.0}};
      for (const std::size_t e : inst.edges_of_tier2[i])
        terms.push_back({layout.x(e), -1.0});
      b.add_ge(terms, -prev_x_totals[i]);
    }
    for (std::size_t e = 0; e < E; ++e) {
      const std::size_t w = b.add_variable(0.0, kInf, inst.edge_reconfig[e]);
      b.add_ge({{w, 1.0}, {layout.y(e), -1.0}}, -prev.y[e]);
    }
    if (layout.with_z) {
      const Vec prev_z_totals = tier1_totals(inst, prev.z);
      for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
        const std::size_t u =
            b.add_variable(0.0, kInf, inst.tier1_reconfig[j]);
        std::vector<solver::LinTerm> terms{{u, 1.0}};
        for (const std::size_t e : inst.edges_of_tier1[j])
          terms.push_back({layout.z(e), -1.0});
        b.add_ge(terms, -prev_z_totals[j]);
      }
    }
    // The patched CSR polyhedron. Empty gamma rows (inert 0 <= 1) were
    // validated by even_split_start_into and are dropped.
    add_polyhedron_rows(poly.g, poly.h, std::nullopt, b);

    SolveOutcome lp_outcome;
    const solver::LpSolution sol = solve_lp_with_fallback(
        b.build(), solver::LpSolveOptions{}, &lp_outcome, in.slot, attempt);
    attempt += lp_outcome.attempts;
    if (!lp_outcome.detail.empty()) {
      if (!outcome.detail.empty()) outcome.detail += "; ";
      outcome.detail += lp_outcome.detail;
    }
    outcome.backend = lp_outcome.backend;
    outcome.status = sol.status;
    if (!sol.ok()) return false;

    Vec v(sol.x.begin(),
          sol.x.begin() + static_cast<std::ptrdiff_t>(layout.size()));
    fill_from_point(v, out);
    zero_duals(out);
    out.newton_steps = 0;
    return true;
  }

  // Graceful degradation: hold x_{t-1} and, when coverage (3c) is short,
  // push the cheapest additive repair (dx, dy, ds[, dz] >= 0) that keeps
  // (3a)/(3b) and the capacities (1b)-(1d). Never fault-injected: this is
  // the terminal stage of the chain. A failed repair still adopts x_{t-1}
  // verbatim (the next warm-start seed; coverage may be short, which the
  // !ok() status reports) before returning false.
  bool hold_and_repair(const SlotInputs& in, const Allocation& prev,
                       P2Solution& out, SolveOutcome& outcome,
                       std::size_t& attempt) {
    const std::size_t E = layout.num_edges;
    ++attempt;
    // x_{t-1} clamped to the nonnegative orthant, with s as large as
    // (3a)/(3b) (and z >= s) allow.
    Vec held(layout.size(), 0.0);
    for (std::size_t e = 0; e < E; ++e) {
      held[layout.x(e)] = std::max(0.0, prev.x[e]);
      held[layout.y(e)] = std::max(0.0, prev.y[e]);
      if (layout.with_z) held[layout.z(e)] = std::max(0.0, prev.z[e]);
      double s = std::min(held[layout.x(e)], held[layout.y(e)]);
      if (layout.with_z) s = std::min(s, held[layout.z(e)]);
      held[layout.s(e)] = s;
    }
    Vec residual(inst.num_tier1(), 0.0);
    bool needs_repair = false;
    for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
      double served = 0.0;
      for (const std::size_t e : inst.edges_of_tier1[j])
        served += held[layout.s(e)];
      residual[j] = std::max(0.0, in.lambda(j) - served);
      needs_repair = needs_repair || residual[j] > 1e-12;
    }

    double repair_cost = 0.0;
    if (needs_repair) {
      // Additive repair LP in the deltas; capacities bound the push.
      solver::LpBuilder b;
      std::vector<std::size_t> dx(E), dy(E), ds(E), dz(layout.with_z ? E : 0);
      for (std::size_t e = 0; e < E; ++e) {
        const std::size_t i = inst.edges[e].tier2;
        dx[e] = b.add_variable(
            0.0, kInf,
            in.price(i) + inst.tier2_reconfig[i]);
        dy[e] = b.add_variable(
            0.0, std::max(0.0, inst.edge_capacity[e] - held[layout.y(e)]),
            inst.edge_price[e] + inst.edge_reconfig[e]);
        ds[e] = b.add_variable(0.0, kInf, 0.0);
        if (layout.with_z) {
          const std::size_t j = inst.edges[e].tier1;
          dz[e] = b.add_variable(
              0.0, kInf,
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
        const double s0 = held[layout.s(e)];
        b.add_le({{ds[e], 1.0}, {dx[e], -1.0}}, held[layout.x(e)] - s0);
        b.add_le({{ds[e], 1.0}, {dy[e], -1.0}}, held[layout.y(e)] - s0);
        if (layout.with_z)
          b.add_le({{ds[e], 1.0}, {dz[e], -1.0}}, held[layout.z(e)] - s0);
      }
      const Vec prev_x_totals = tier2_totals(inst, prev.x);
      for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
        if (inst.edges_of_tier2[i].empty()) continue;
        std::vector<solver::LinTerm> terms;
        for (const std::size_t e : inst.edges_of_tier2[i])
          terms.push_back({dx[e], 1.0});
        b.add_le(terms,
                 std::max(0.0, inst.tier2_capacity[i] - prev_x_totals[i]));
      }
      if (layout.with_z) {
        const Vec prev_z_totals = tier1_totals(inst, prev.z);
        for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
          if (inst.edges_of_tier1[j].empty()) continue;
          std::vector<solver::LinTerm> terms;
          for (const std::size_t e : inst.edges_of_tier1[j])
            terms.push_back({dz[e], 1.0});
          b.add_le(terms,
                   std::max(0.0, inst.tier1_capacity[j] - prev_z_totals[j]));
        }
      }

      SolveOutcome lp_outcome;
      const solver::LpSolution sol =
          solve_lp_with_fallback(b.build(), solver::LpSolveOptions{},
                                 &lp_outcome, kNoFaultSlot);
      if (!sol.ok()) {
        append_failure(outcome.detail, to_string(SolveBackend::kHoldRepair),
                       sol.status, lp_outcome.detail);
        outcome.status = sol.status;
        outcome.backend = SolveBackend::kHoldRepair;
        fill_from_point(held, out);
        zero_duals(out);
        out.newton_steps = 0;
        return false;
      }
      for (std::size_t e = 0; e < E; ++e) {
        held[layout.x(e)] += sol.x[dx[e]];
        held[layout.y(e)] += sol.x[dy[e]];
        held[layout.s(e)] += sol.x[ds[e]];
        if (layout.with_z) held[layout.z(e)] += sol.x[dz[e]];
      }
      repair_cost = sol.objective;
    }

    fill_from_point(held, out);
    zero_duals(out);
    out.newton_steps = 0;
    outcome.status = solver::SolveStatus::kOptimal;
    outcome.backend = SolveBackend::kHoldRepair;
    outcome.degraded = true;
    outcome.repair_cost_delta = repair_cost;
    return true;
  }

  P2Solution step(const SlotInputs& in, const Allocation& prev) {
    SORA_CHECK(prev.x.size() == inst.num_edges());
    SORA_CHECK(in.demand != nullptr && in.demand->size() == inst.num_tier1());
    SORA_CHECK(in.tier2_price != nullptr &&
               in.tier2_price->size() == inst.num_tier2());
    SORA_CHECK(!layout.with_z || (in.tier1_price != nullptr &&
                                  in.tier1_price->size() == inst.num_tier1()));

    double build_seconds = 0.0;
    double barrier_seconds = 0.0;
    bool warm = false;
    solver::IpmOptions ipm = options.ipm;
    {
      SORA_TRACE_SPAN("p2/build");
      util::ScopedTimer build_timer(&build_seconds);
      poly.patch_slot(in);
      objective.begin_slot(in, prev);
    }

    SolveOutcome outcome;
    std::size_t attempt = 0;
    solver::IpmResult result;
    P2Solution out;

    {
      SORA_TRACE_SPAN("p2/start");
      util::ScopedTimer build_timer(&build_seconds);
      warm = compute_start(in);
      if (warm) {
        // Near-optimal starts waste outer iterations re-centering at small
        // t: jump the barrier multiplier so the first center is already
        // within a modest gap of the warm point.
        ipm.t0 = std::max(ipm.t0, static_cast<double>(poly.g.rows()) / 1e-2);
      }
    }

    // One barrier attempt: solve, let the fault hook interfere, demote
    // non-finite "optimal" answers, and record the failure trail.
    const auto barrier_attempt = [&](const Vec& x0,
                                     const solver::IpmOptions& o,
                                     SolveBackend backend) {
      {
        SORA_TRACE_SPAN("p2/barrier");
        util::ScopedTimer solve_timer(&barrier_seconds);
        result =
            solver::solve_barrier(objective, poly.g, poly.h, x0, o, &scratch);
      }
      apply_fault(consult_fault_hook(in.slot, attempt), result.status,
                  result.x);
      if (result.ok() && !all_finite(result.x)) {
        result.status = solver::SolveStatus::kNumericalError;
        result.detail += result.detail.empty() ? "non-finite solution"
                                               : " [non-finite solution]";
      }
      ++attempt;
      outcome.backend = backend;
      outcome.status = result.status;
      if (!result.ok())
        append_failure(outcome.detail, to_string(backend), result.status,
                       result.detail);
      return result.ok();
    };

    bool solved =
        barrier_attempt(start, ipm, warm ? SolveBackend::kWarmIpm
                                         : SolveBackend::kColdIpm);

    if (!solved && !options.resilience.enabled)
      SORA_CHECK_MSG(false, "P2 barrier solve failed at t=" +
                                std::to_string(in.slot) + ": " +
                                outcome.detail);

    if (!solved) {
      SORA_LOG_WARN << "p2: barrier failed at t=" << in.slot << " ("
                    << outcome.detail << "); entering fallback chain";
      if (warm)
        solved = barrier_attempt(cold_start_point(), options.ipm,
                                 SolveBackend::kColdIpm);
      if (!solved)
        solved = barrier_attempt(cold_start_point(),
                                 tightened_ipm_options(options.ipm),
                                 SolveBackend::kTightenedIpm);
    }

    if (solved) {
      extract_primal(layout, result, out);

      // Named KKT multipliers; an edgeless cloud's padded (3c) row reports
      // zero.
      const std::size_t E = layout.num_edges;
      out.rho.assign(E, 0.0);
      out.phi.assign(E, 0.0);
      out.sigma.assign(E, 0.0);
      out.gamma.assign(inst.num_tier1(), 0.0);
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
      util::ScopedTimer fallback_timer(&barrier_seconds);
      solved = solve_lp_surrogate(in, prev, out, outcome, attempt) ||
               hold_and_repair(in, prev, out, outcome, attempt);
    }

    outcome.attempts = attempt;
    out.outcome = outcome;
    observe_outcome(outcome);

    // Chain exhausted: hold_and_repair left x_{t-1} as the next warm-start
    // seed, and the slot fails loudly.
    if (!solved)
      SORA_CHECK_MSG(false, "P2 fallback chain exhausted at t=" +
                                std::to_string(in.slot) + ": " +
                                outcome.detail);

    out.timing.build_seconds = build_seconds;
    out.timing.solve_seconds = barrier_seconds;
    out.timing.newton_steps = out.newton_steps;
    out.timing.warm_started = warm;
    observe_p2_timing(out.timing);
    return out;
  }

  // Deadline-miss entry: skip every solve stage and go straight to the
  // terminal hold-and-repair degradation. Used by the serving daemon when a
  // slot's solve lands after the budget — the late answer is discarded and
  // the held (repaired) decision published instead. Never throws: a failed
  // repair falls back to holding x_{t-1} verbatim with a failure outcome.
  P2Solution degrade(const SlotInputs& in, const Allocation& prev) {
    SORA_CHECK(prev.x.size() == inst.num_edges());
    double build_seconds = 0.0;
    double repair_seconds = 0.0;
    P2Solution out;
    SolveOutcome outcome;
    std::size_t attempt = 0;
    {
      SORA_TRACE_SPAN("p2/build");
      util::ScopedTimer build_timer(&build_seconds);
      poly.patch_slot(in);
      objective.begin_slot(in, prev);
    }
    bool solved;
    {
      SORA_TRACE_SPAN("p2/degrade");
      util::ScopedTimer repair_timer(&repair_seconds);
      solved = hold_and_repair(in, prev, out, outcome, attempt);
    }
    if (!solved)
      SORA_LOG_ERROR << "p2: degrade repair failed at t=" << in.slot << " ("
                     << outcome.detail << "); holding previous decision";
    outcome.attempts = attempt;
    out.outcome = outcome;
    observe_outcome(outcome);
    out.timing.build_seconds = build_seconds;
    out.timing.solve_seconds = repair_seconds;
    out.timing.newton_steps = 0;
    out.timing.warm_started = false;
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
  return impl_->step(SlotInputs::at(impl_->inst, inputs, t), prev);
}

P2Solution P2Workspace::step(const SlotInputs& in, const Allocation& prev) {
  return impl_->step(in, prev);
}

P2Solution P2Workspace::degrade(const SlotInputs& in, const Allocation& prev) {
  return impl_->degrade(in, prev);
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
  Vec anchor, point;
  even_split_start_into(inst, in, layout, anchor);
  poly.strict_point_into(anchor, point);
  return point;
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
  return workspace.solve(inputs, t, prev);
}

}  // namespace sora::core
