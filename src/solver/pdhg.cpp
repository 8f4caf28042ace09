#include "solver/pdhg.hpp"

#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace sora::solver {
namespace {

using linalg::SparseMatrix;
using linalg::Vec;

constexpr std::size_t kRuizIterations = 10;
// Adaptive primal weight omega, updated at each restart in Pdhg::run:
// log-space smoothing toward the observed dual/primal movement ratio, and
// the range omega is clamped to.
constexpr double kWeightSmoothing = 0.5;
constexpr double kWeightMin = 1e-2;
constexpr double kWeightMax = 1e2;

struct ScaledProblem {
  SparseMatrix a;
  Vec c;
  Vec row_lower, row_upper;
  Vec var_lower, var_upper;
  Vec row_scale;  // D_r: scaled rows were multiplied by this
  Vec col_scale;  // D_c: x = D_c * x_scaled
};

// Ruiz equilibration: iteratively scale rows and columns toward unit
// max-norm. Returns the scaled problem plus the diagonal scalings needed to
// map the solution back.
ScaledProblem ruiz_scale(const LpModel& model, std::size_t iterations) {
  ScaledProblem p;
  p.a = model.a;
  p.c = model.objective;
  p.row_lower = model.row_lower;
  p.row_upper = model.row_upper;
  p.var_lower = model.var_lower;
  p.var_upper = model.var_upper;
  p.row_scale.assign(model.num_rows(), 1.0);
  p.col_scale.assign(model.num_vars(), 1.0);

  for (std::size_t it = 0; it < iterations; ++it) {
    const Vec row_max = p.a.row_abs_sums(0.0);
    const Vec col_max = p.a.col_abs_sums(0.0);
    Vec dr(model.num_rows()), dc(model.num_vars());
    bool changed = false;
    for (std::size_t r = 0; r < dr.size(); ++r) {
      dr[r] = row_max[r] > 0.0 ? 1.0 / std::sqrt(row_max[r]) : 1.0;
      if (std::fabs(dr[r] - 1.0) > 1e-3) changed = true;
    }
    for (std::size_t j = 0; j < dc.size(); ++j) {
      dc[j] = col_max[j] > 0.0 ? 1.0 / std::sqrt(col_max[j]) : 1.0;
      if (std::fabs(dc[j] - 1.0) > 1e-3) changed = true;
    }
    p.a.scale(dr, dc);
    for (std::size_t r = 0; r < dr.size(); ++r) p.row_scale[r] *= dr[r];
    for (std::size_t j = 0; j < dc.size(); ++j) p.col_scale[j] *= dc[j];
    if (!changed) break;
  }

  // Transform the data: scaled rows l,u multiply by D_r; scaled variable
  // bounds divide by D_c; scaled costs multiply by D_c.
  for (std::size_t r = 0; r < p.row_lower.size(); ++r) {
    if (std::isfinite(p.row_lower[r])) p.row_lower[r] *= p.row_scale[r];
    if (std::isfinite(p.row_upper[r])) p.row_upper[r] *= p.row_scale[r];
  }
  for (std::size_t j = 0; j < p.var_lower.size(); ++j) {
    p.c[j] *= p.col_scale[j];
    if (std::isfinite(p.var_lower[j])) p.var_lower[j] /= p.col_scale[j];
    if (std::isfinite(p.var_upper[j])) p.var_upper[j] /= p.col_scale[j];
  }
  return p;
}

double clamp_to(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

struct KktError {
  double primal = 0.0;   // ||row violations||_2
  double dual = 0.0;     // ||unexplainable reduced costs||_2
  double gap = 0.0;      // |primal obj - dual obj|
  double primal_obj = 0.0;
  double dual_obj = 0.0;

  double total() const { return primal + dual + gap; }
};

class Pdhg {
 public:
  Pdhg(const LpModel& model, const PdhgOptions& options)
      : options_(options),
        model_(model),
        scaled_(ruiz_scale(model, kRuizIterations)) {
    n_ = scaled_.c.size();
    m_ = scaled_.row_lower.size();

    // Pock–Chambolle diagonal preconditioning (alpha = 1): per-variable
    // primal steps tau_j = 1 / sum_i |A_ij| and per-row dual steps
    // sigma_r = 1 / sum_j |A_ij| satisfy ||Sigma^(1/2) A Tau^(1/2)|| <= 1
    // by construction, so no spectral-norm estimate is needed and rows or
    // columns the equilibration left heavy (the covering LP's dense
    // coverage rows) get correspondingly gentler steps instead of dragging
    // the single scalar step size down for everyone.
    const Vec row_sums = scaled_.a.row_abs_sums(1.0);
    const Vec col_sums = scaled_.a.col_abs_sums(1.0);
    tau_.assign(n_, 1.0);
    sigma_.assign(m_, 1.0);
    for (std::size_t j = 0; j < n_; ++j)
      if (col_sums[j] > 1e-12) tau_[j] = 1.0 / col_sums[j];
    for (std::size_t r = 0; r < m_; ++r)
      if (row_sums[r] > 1e-12) sigma_[r] = 1.0 / row_sums[r];
    inv_sigma_.assign(m_, 1.0);
    for (std::size_t r = 0; r < m_; ++r) inv_sigma_[r] = 1.0 / sigma_[r];

    // Explicit transpose: A^T y as a row-gather loop over A^T's CSR instead
    // of a scatter over A's. Both matvecs in step() then stream the value
    // and index arrays sequentially.
    at_ = scaled_.a.transpose();

    // Preallocated step buffers: the step loop is allocation-free.
    aty_.assign(n_, 0.0);
    xnew_.assign(n_, 0.0);
    xbar_.assign(n_, 0.0);
    ax_.assign(m_, 0.0);
    kkt_x_.assign(n_, 0.0);
    kkt_aty_.assign(n_, 0.0);
    kkt_y_.assign(m_, 0.0);
    kkt_ax_.assign(m_, 0.0);

    // Termination is measured in the ORIGINAL space (scaled-space residuals
    // can look tiny while the unscaled point is far from optimal).
    c_norm_ = linalg::norm2(model.objective);
    rhs_norm_ = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      if (std::isfinite(model.row_lower[r]))
        rhs_norm_ += model.row_lower[r] * model.row_lower[r];
      else if (std::isfinite(model.row_upper[r]))
        rhs_norm_ += model.row_upper[r] * model.row_upper[r];
    }
    rhs_norm_ = std::sqrt(rhs_norm_);
  }

  LpSolution run() {
    util::Timer timer;
    Vec x(n_, 0.0), y(m_, 0.0);
    project_box(x);

    Vec x_avg = x, y_avg = y;
    Vec x_anchor = x, y_anchor = y;  // iterate at the last restart
    std::size_t avg_count = 0;
    double last_restart_error = kInf;
    double prev_check_error = kInf;
    std::uint64_t restarts = 0;
    std::uint64_t weight_updates = 0;
    double omega = 1.0;
    KktError best_err;
    Vec best_x = x, best_y = y;
    double best_total = kInf;

    std::size_t iter = 0;
    for (; iter < options_.max_iterations; ++iter) {
      step(x, y);

      // Running average (uniform) since the last restart.
      ++avg_count;
      const double a_weight = 1.0 / static_cast<double>(avg_count);
      for (std::size_t j = 0; j < n_; ++j)
        x_avg[j] += (x[j] - x_avg[j]) * a_weight;
      for (std::size_t r = 0; r < m_; ++r)
        y_avg[r] += (y[r] - y_avg[r]) * a_weight;

      if ((iter + 1) % options_.restart_check_interval != 0) continue;

      const KktError err_cur = kkt_error(x, y);
      const KktError err_avg = kkt_error(x_avg, y_avg);
      const bool avg_better = err_avg.total() < err_cur.total();
      const KktError& err = avg_better ? err_avg : err_cur;
      if (err.total() < best_total) {
        best_total = err.total();
        best_err = err;
        best_x = avg_better ? x_avg : x;
        best_y = avg_better ? y_avg : y;
      }

      if (converged(err)) {
        x = avg_better ? x_avg : x;
        y = avg_better ? y_avg : y;
        ++iter;
        break;
      }

      // Adaptive restart (PDLP-style): "sufficient" when the KKT error has
      // dropped well below the last restart's, "necessary" when it made
      // modest progress but is now trending back up (the spiral regime of
      // degenerate LPs, where waiting longer only orbits the solution), and
      // "artificial" when the averaging window has grown stale.
      const bool sufficient = err.total() < 0.42 * last_restart_error;
      const bool necessary = err.total() < 0.9 * last_restart_error &&
                             err.total() > prev_check_error;
      prev_check_error = err.total();
      if (sufficient || necessary || avg_count >= 1000) {
        ++restarts;
        if (avg_better) {
          x = x_avg;
          y = y_avg;
        }
        // Adaptive primal weight: steer the primal/dual step split toward
        // the observed movement ratio over the finished restart epoch. The
        // update happens only at restart boundaries (each restart is a
        // fresh PDHG run, so changing the step diagonals is legal), in log
        // space with smoothing, and clamped — the failure mode of naive
        // per-epoch rebalancing is the weight running away and freezing the
        // side that still has complementarity slack to burn off.
        double dx2 = 0.0, dy2 = 0.0;
        for (std::size_t j = 0; j < n_; ++j) {
          const double d = x[j] - x_anchor[j];
          dx2 += d * d;
        }
        for (std::size_t r = 0; r < m_; ++r) {
          const double d = y[r] - y_anchor[r];
          dy2 += d * d;
        }
        if (dx2 > 1e-24 && dy2 > 1e-24) {
          const double theta = kWeightSmoothing;
          const double target = 0.5 * std::log(dy2 / dx2);
          const double next = clamp_to(
              std::exp(theta * target + (1.0 - theta) * std::log(omega)),
              kWeightMin, kWeightMax);
          if (next != omega) {
            rebalance(next / omega);
            omega = next;
            ++weight_updates;
          }
        }
        x_anchor = x;
        y_anchor = y;
        x_avg = x;
        y_avg = y;
        avg_count = 0;
        last_restart_error = err.total();
        prev_check_error = kInf;
      }
    }

    // Prefer the best recorded iterate if the loop exhausted iterations —
    // but never trade a converged point away for a lower *total* that fails
    // the per-component test (total sums the three residuals, so a point
    // with a smaller sum can still violate one tolerance).
    KktError final_err = kkt_error(x, y);
    if (!converged(final_err) && final_err.total() > best_total) {
      x = best_x;
      y = best_y;
      final_err = best_err;
    }

    LpSolution out;
    out.iterations = iter;
    out.solve_seconds = timer.seconds();
    if (obs::metrics_enabled()) {
      struct PdhgMetrics {
        obs::Histogram* iterations;
        obs::Counter* restarts;
        obs::Counter* weight_updates;
        obs::Gauge* primal_weight;
        obs::Histogram* precond_range;
      };
      static const PdhgMetrics metrics = [] {
        auto& reg = obs::Registry::global();
        return PdhgMetrics{
            &reg.histogram("sora_pdhg_iterations", "iterations",
                           "PDHG iterations per LP solve",
                           obs::exponential_buckets(16.0, 2.0, 16)),
            &reg.counter("sora_pdhg_restarts_total",
                         "Adaptive restarts across all PDHG solves"),
            &reg.counter("sora_pdhg_weight_updates_total",
                         "Adaptive primal-weight rebalances at restarts"),
            &reg.gauge("sora_pdhg_primal_weight",
                       "Final primal weight omega of the last PDHG solve"),
            &reg.histogram(
                "sora_pdhg_precond_range", "ratio",
                "max/min ratio of the diagonal primal step sizes "
                "(preconditioner spread) per solve",
                obs::exponential_buckets(1.0, 2.0, 20)),
        };
      }();
      metrics.iterations->observe(static_cast<double>(iter));
      metrics.restarts->inc(restarts);
      metrics.weight_updates->inc(weight_updates);
      metrics.primal_weight->set(omega);
      double tau_min = kInf, tau_max = 0.0;
      for (std::size_t j = 0; j < n_; ++j) {
        tau_min = std::min(tau_min, tau_[j]);
        tau_max = std::max(tau_max, tau_[j]);
      }
      if (n_ > 0 && tau_min > 0.0)
        metrics.precond_range->observe(tau_max / tau_min);
    }
    const bool accepted =
        converged(final_err) ||
        (final_err.primal <= options_.accept_factor * options_.eps_rel &&
         final_err.dual <= options_.accept_factor * options_.eps_rel &&
         final_err.gap <= options_.accept_factor * options_.eps_rel);
    out.status =
        accepted ? SolveStatus::kOptimal : SolveStatus::kIterationLimit;
    out.detail = "kkt primal " + std::to_string(final_err.primal) + " dual " +
                 std::to_string(final_err.dual) + " gap " +
                 std::to_string(final_err.gap);
    // Unscale.
    out.x.assign(n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) out.x[j] = x[j] * scaled_.col_scale[j];
    out.row_dual.assign(m_, 0.0);
    for (std::size_t r = 0; r < m_; ++r)
      out.row_dual[r] = y[r] * scaled_.row_scale[r];
    return out;
  }

 private:
  void project_box(Vec& x) const {
    for (std::size_t j = 0; j < n_; ++j)
      x[j] = clamp_to(x[j], scaled_.var_lower[j], scaled_.var_upper[j]);
  }

  // One PDHG step: x <- proj(x - T (c + A^T y)); y <- prox(y + S A xbar),
  // with T = diag(tau_) and S = diag(sigma_). The adaptive primal weight is
  // already folded into tau_/sigma_ by rebalance(); both matvecs are
  // row-gather loops (A^T y runs over the explicit transpose at_).
  void step(Vec& x, Vec& y) {
    at_.multiply_into(y, aty_);
    for (std::size_t j = 0; j < n_; ++j) {
      xnew_[j] = clamp_to(x[j] - tau_[j] * (scaled_.c[j] + aty_[j]),
                          scaled_.var_lower[j], scaled_.var_upper[j]);
      xbar_[j] = 2.0 * xnew_[j] - x[j];
    }

    scaled_.a.multiply_into(xbar_, ax_);
    for (std::size_t r = 0; r < m_; ++r) {
      const double v = y[r] + sigma_[r] * ax_[r];
      // prox of the support function of [l, u]: v - sigma * proj_[l,u](v/sigma)
      const double z = clamp_to(v * inv_sigma_[r], scaled_.row_lower[r],
                                scaled_.row_upper[r]);
      y[r] = v - sigma_[r] * z;
    }
    x.swap(xnew_);
  }

  // Fold a primal-weight change into the step diagonals: tau / ratio,
  // sigma * ratio. The product tau_j * sigma_r is invariant, so the
  // Pock–Chambolle bound ||S^1/2 A T^1/2|| <= 1 keeps holding.
  void rebalance(double ratio) {
    const double inv = 1.0 / ratio;
    for (std::size_t j = 0; j < n_; ++j) tau_[j] *= inv;
    for (std::size_t r = 0; r < m_; ++r) {
      sigma_[r] *= ratio;
      inv_sigma_[r] *= inv;
    }
  }

  // KKT residuals of the UNSCALED point corresponding to scaled (x, y).
  // Uses the preallocated kkt_* scratch (checked every
  // restart_check_interval iterations, so it should not allocate).
  KktError kkt_error(const Vec& x_scaled, const Vec& y_scaled) {
    Vec& x = kkt_x_;
    Vec& y = kkt_y_;
    for (std::size_t j = 0; j < n_; ++j)
      x[j] = x_scaled[j] * scaled_.col_scale[j];
    for (std::size_t r = 0; r < m_; ++r)
      y[r] = y_scaled[r] * scaled_.row_scale[r];

    KktError e;
    // Primal: distance of Ax to [l, u].
    model_.a.multiply_into(x, kkt_ax_);
    const Vec& ax = kkt_ax_;
    double p2 = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      double v = 0.0;
      if (std::isfinite(model_.row_lower[r]) && ax[r] < model_.row_lower[r])
        v = model_.row_lower[r] - ax[r];
      else if (std::isfinite(model_.row_upper[r]) &&
               ax[r] > model_.row_upper[r])
        v = ax[r] - model_.row_upper[r];
      p2 += v * v;
    }
    e.primal = std::sqrt(p2) / (1.0 + rhs_norm_);

    // Dual residual and dual objective. d = c + A^T y is the gradient in x;
    // a positive component is explainable iff the variable has a finite
    // lower bound (x sits there), a negative one iff a finite upper bound.
    model_.a.multiply_transpose_into(y, kkt_aty_);
    const Vec& aty = kkt_aty_;
    double d2 = 0.0;
    double bound_term = 0.0;
    for (std::size_t j = 0; j < n_; ++j) {
      const double d = model_.objective[j] + aty[j];
      if (d > 0.0) {
        if (std::isfinite(model_.var_lower[j]))
          bound_term += d * model_.var_lower[j];
        else
          d2 += d * d;
      } else if (d < 0.0) {
        if (std::isfinite(model_.var_upper[j]))
          bound_term += d * model_.var_upper[j];
        else
          d2 += d * d;
      }
    }
    e.dual = std::sqrt(d2) / (1.0 + c_norm_);

    // Support-function value sigma_Z(y) (the prox keeps it finite up to
    // roundoff; clamp tiny wrong-signed components).
    double support = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      if (y[r] > 0.0 && std::isfinite(model_.row_upper[r]))
        support += y[r] * model_.row_upper[r];
      else if (y[r] < 0.0 && std::isfinite(model_.row_lower[r]))
        support += y[r] * model_.row_lower[r];
    }

    e.primal_obj = linalg::dot(model_.objective, x);
    e.dual_obj = bound_term - support;
    e.gap = std::fabs(e.primal_obj - e.dual_obj) /
            (1.0 + std::fabs(e.primal_obj) + std::fabs(e.dual_obj));
    return e;
  }

  bool converged(const KktError& e) const {
    const double tol = options_.eps_rel;
    return e.primal <= tol + options_.eps_abs &&
           e.dual <= tol + options_.eps_abs && e.gap <= tol + options_.eps_abs;
  }

  PdhgOptions options_;
  const LpModel& model_;
  ScaledProblem scaled_;
  SparseMatrix at_;  // explicit transpose of the scaled matrix
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  double c_norm_ = 0.0;
  double rhs_norm_ = 0.0;
  Vec tau_;        // per-variable primal step scale (omega folded in)
  Vec sigma_;      // per-row dual step scale (omega folded in)
  Vec inv_sigma_;  // 1 / sigma_, kept in lockstep by rebalance()
  Vec aty_, xnew_, xbar_, ax_;           // step() scratch, sized once
  Vec kkt_x_, kkt_y_, kkt_ax_, kkt_aty_;  // kkt_error() scratch
};

}  // namespace

LpSolution solve_pdhg(const LpModel& model, const PdhgOptions& options) {
  model.validate();
  Pdhg solver(model, options);
  LpSolution out = solver.run();
  out.objective = model.objective_value(out.x);
  return out;
}

}  // namespace sora::solver
