#include "core/certificate.hpp"

#include <algorithm>
#include <cmath>

#include "core/competitive.hpp"
#include "core/cost.hpp"
#include "core/p2_subproblem.hpp"
#include "core/regularizer.hpp"
#include "solver/lp.hpp"
#include "util/check.hpp"

namespace sora::core {
namespace {

using solver::kInf;
using solver::LinTerm;
using solver::LpBuilder;

// Row bookkeeping for P3 over the whole horizon: all constraints are ">="
// rows, so LP duality reads: y >= 0, A^T y <= c, D = rhs^T y.
struct P3Rows {
  // [t][...] row ids.
  std::vector<std::vector<std::size_t>> rho, phi, sigma;   // per edge
  std::vector<std::vector<std::size_t>> gamma;             // per tier-1
  std::vector<std::vector<std::size_t>> alpha;             // per tier-2
  std::vector<std::vector<std::size_t>> beta;              // per edge
  std::vector<std::vector<std::size_t>> alpha_z;           // per tier-1
};

// Variable layout of P3 per slot: [x | y | s | v | w] (+ [z | vz]).
struct P3Layout {
  std::size_t E, I, J;
  bool with_z;
  std::size_t stride() const {
    return 3 * E + I + E + (with_z ? E + J : 0);
  }
  std::size_t x(std::size_t t, std::size_t e) const { return t * stride() + e; }
  std::size_t y(std::size_t t, std::size_t e) const {
    return t * stride() + E + e;
  }
  std::size_t s(std::size_t t, std::size_t e) const {
    return t * stride() + 2 * E + e;
  }
  std::size_t v(std::size_t t, std::size_t i) const {
    return t * stride() + 3 * E + i;
  }
  std::size_t w(std::size_t t, std::size_t e) const {
    return t * stride() + 3 * E + I + e;
  }
  std::size_t z(std::size_t t, std::size_t e) const {
    return t * stride() + 4 * E + I + e;
  }
  std::size_t vz(std::size_t t, std::size_t j) const {
    return t * stride() + 5 * E + I + j;
  }
};

}  // namespace

CertificateReport verify_competitive_certificate(const Instance& inst,
                                                 const RoaOptions& options) {
  const std::size_t E = inst.num_edges();
  const std::size_t I = inst.num_tier2();
  const std::size_t J = inst.num_tier1();
  const std::size_t T = inst.horizon;
  const bool with_z = inst.has_tier1();
  const P3Layout layout{E, I, J, with_z};
  const auto inputs = InputSeries::truth(inst);

  // ---- Run ROA, keeping the per-slot KKT multipliers. One cold-started
  // workspace analyses the Newton pattern once for the whole horizon.
  RoaOptions cold = options;
  cold.warm_start = false;
  P2Workspace workspace(inst, cold);
  std::vector<P2Solution> slots;
  slots.reserve(T);
  Allocation prev = Allocation::zeros(E);
  for (std::size_t t = 0; t < T; ++t) {
    slots.push_back(workspace.solve(inputs, t, prev));
    SORA_CHECK_MSG(slots.back().outcome.ok(),
                   "P2 infeasible at t=" + std::to_string(t) + ": " +
                       slots.back().outcome.detail);
    prev = slots.back().alloc;
  }
  Trajectory traj;
  for (const auto& s : slots) traj.slots.push_back(s.alloc);

  // ---- Build P3 (the relaxation, Step 2.1) as one LP over the horizon.
  LpBuilder b;
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t e = 0; e < E; ++e)
      b.add_variable(0.0, kInf, inputs.price(t, inst.edges[e].tier2));  // x
    for (std::size_t e = 0; e < E; ++e)
      b.add_variable(0.0, kInf, inst.edge_price[e]);  // y
    for (std::size_t e = 0; e < E; ++e) b.add_variable(0.0, kInf, 0.0);  // s
    for (std::size_t i = 0; i < I; ++i)
      b.add_variable(0.0, kInf, inst.tier2_reconfig[i]);  // v
    for (std::size_t e = 0; e < E; ++e)
      b.add_variable(0.0, kInf, inst.edge_reconfig[e]);  // w
    if (with_z) {
      for (std::size_t e = 0; e < E; ++e)
        b.add_variable(0.0, kInf,
                       inst.tier1_price[t][inst.edges[e].tier1]);  // z
      for (std::size_t j = 0; j < J; ++j)
        b.add_variable(0.0, kInf, inst.tier1_reconfig[j]);  // vz
    }
  }

  P3Rows rows;
  rows.rho.assign(T, std::vector<std::size_t>(E));
  rows.phi.assign(T, std::vector<std::size_t>(E));
  rows.gamma.assign(T, std::vector<std::size_t>(J));
  rows.alpha.assign(T, std::vector<std::size_t>(I));
  rows.beta.assign(T, std::vector<std::size_t>(E));
  if (with_z) {
    rows.sigma.assign(T, std::vector<std::size_t>(E));
    rows.alpha_z.assign(T, std::vector<std::size_t>(J));
  }

  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t e = 0; e < E; ++e) {
      rows.rho[t][e] =
          b.add_ge({{layout.x(t, e), 1.0}, {layout.s(t, e), -1.0}}, 0.0);
      rows.phi[t][e] =
          b.add_ge({{layout.y(t, e), 1.0}, {layout.s(t, e), -1.0}}, 0.0);
      if (with_z)
        rows.sigma[t][e] =
            b.add_ge({{layout.z(t, e), 1.0}, {layout.s(t, e), -1.0}}, 0.0);
    }
    for (std::size_t j = 0; j < J; ++j) {
      std::vector<LinTerm> terms;
      for (const std::size_t e : inst.edges_of_tier1[j])
        terms.push_back({layout.s(t, e), 1.0});
      rows.gamma[t][j] = b.add_ge(terms, inputs.lambda(t, j));
    }
    // (7a): v_i - X_i(t) + X_i(t-1) >= 0.
    for (std::size_t i = 0; i < I; ++i) {
      std::vector<LinTerm> terms{{layout.v(t, i), 1.0}};
      for (const std::size_t e : inst.edges_of_tier2[i]) {
        terms.push_back({layout.x(t, e), -1.0});
        if (t > 0) terms.push_back({layout.x(t - 1, e), 1.0});
      }
      rows.alpha[t][i] = b.add_ge(terms, 0.0);
    }
    // (7b): w_e - y_e(t) + y_e(t-1) >= 0.
    for (std::size_t e = 0; e < E; ++e) {
      std::vector<LinTerm> terms{{layout.w(t, e), 1.0},
                                 {layout.y(t, e), -1.0}};
      if (t > 0) terms.push_back({layout.y(t - 1, e), 1.0});
      rows.beta[t][e] = b.add_ge(terms, 0.0);
    }
    // z analogue of (7a).
    if (with_z) {
      for (std::size_t j = 0; j < J; ++j) {
        std::vector<LinTerm> terms{{layout.vz(t, j), 1.0}};
        for (const std::size_t e : inst.edges_of_tier1[j]) {
          terms.push_back({layout.z(t, e), -1.0});
          if (t > 0) terms.push_back({layout.z(t - 1, e), 1.0});
        }
        rows.alpha_z[t][j] = b.add_ge(terms, 0.0);
      }
    }
  }
  const solver::LpModel p3 = b.build();

  // ---- Assemble the dual point (Step 3.2).
  Vec dual(p3.num_rows(), 0.0);
  Allocation prev_alloc = Allocation::zeros(E);
  for (std::size_t t = 0; t < T; ++t) {
    const P2Solution& s = slots[t];
    for (std::size_t e = 0; e < E; ++e) {
      dual[rows.rho[t][e]] = s.rho[e];
      dual[rows.phi[t][e]] = s.phi[e];
      if (with_z) dual[rows.sigma[t][e]] = s.sigma[e];
    }
    for (std::size_t j = 0; j < J; ++j) dual[rows.gamma[t][j]] = s.gamma[j];

    // Closed forms: alpha_it = (b_i/eta_i) ln((C_i+eps)/(X_{i,t-1}+eps)),
    // beta_et = (d_e/eta'_e) ln((B_e+eps')/(y_{e,t-1}+eps')).
    const Vec prev_totals = tier2_totals(inst, prev_alloc.x);
    for (std::size_t i = 0; i < I; ++i) {
      const double eta = regularizer_eta(inst.tier2_capacity[i], options.eps);
      if (eta <= 0.0) continue;
      dual[rows.alpha[t][i]] =
          inst.tier2_reconfig[i] / eta *
          std::log((inst.tier2_capacity[i] + options.eps) /
                   (prev_totals[i] + options.eps));
    }
    for (std::size_t e = 0; e < E; ++e) {
      const double eta =
          regularizer_eta(inst.edge_capacity[e], options.eps_prime);
      if (eta <= 0.0) continue;
      dual[rows.beta[t][e]] =
          inst.edge_reconfig[e] / eta *
          std::log((inst.edge_capacity[e] + options.eps_prime) /
                   (prev_alloc.y[e] + options.eps_prime));
    }
    if (with_z) {
      const Vec prev_t1 = tier1_totals(inst, prev_alloc.z);
      for (std::size_t j = 0; j < J; ++j) {
        const double eta =
            regularizer_eta(inst.tier1_capacity[j], options.eps);
        if (eta <= 0.0) continue;
        dual[rows.alpha_z[t][j]] =
            inst.tier1_reconfig[j] / eta *
            std::log((inst.tier1_capacity[j] + options.eps) /
                     (prev_t1[j] + options.eps));
      }
    }
    prev_alloc = s.alloc;
  }

  // ---- Check dual feasibility: y >= 0 and A^T y <= c. Violations are
  // measured RELATIVE to the local scale so the metric is comparable across
  // reconfiguration weights (the multipliers grow with b).
  CertificateReport report;
  double violation = 0.0;
  for (double v : dual)
    violation = std::max(violation, -v / (1.0 + std::fabs(v)));
  const Vec aty = p3.a.multiply_transpose(dual);
  for (std::size_t col = 0; col < p3.num_vars(); ++col) {
    const double scale =
        1.0 + std::fabs(p3.objective[col]) + std::fabs(aty[col]);
    violation = std::max(violation, (aty[col] - p3.objective[col]) / scale);
  }
  report.max_dual_violation = violation;

  // ---- Weak duality value D = rhs^T y (all rows are >= rows).
  double d_value = 0.0;
  for (std::size_t r = 0; r < p3.num_rows(); ++r)
    d_value += p3.row_lower[r] * dual[r];
  report.dual_objective = d_value;

  report.online_cost = total_cost(inst, traj).total();
  report.certified_ratio =
      d_value > 0.0 ? report.online_cost / d_value : kInf;
  report.theorem1_ratio = theoretical_ratio(inst, options.eps,
                                            options.eps_prime);
  return report;
}

}  // namespace sora::core
