#include "solver/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace sora::solver {
namespace {

using linalg::Lu;
using linalg::Matrix;
using linalg::Vec;

constexpr double kFeasibilityTol = 1e-7;  // violation accepted as feasible
constexpr double kOptimalityTol = 1e-7;   // reduced-cost threshold
constexpr double kPivotTol = 1e-9;        // smallest acceptable pivot

enum class VarStatus { kBasic, kAtLower, kAtUpper, kFree };

// Column-oriented view of the standardized problem  A x - s (+ artificials) = 0.
struct Columns {
  // cols[j] lists (row, value) entries of column j.
  std::vector<std::vector<std::pair<std::size_t, double>>> cols;
  Vec lower, upper;
  Vec cost;        // phase-2 cost
  std::size_t n_struct = 0;
  std::size_t n_slack = 0;

  std::size_t size() const { return cols.size(); }
};

class SimplexSolver {
 public:
  SimplexSolver(const LpModel& model, const SimplexOptions& options)
      : options_(options), m_(model.num_rows()) {
    build_columns(model);
  }

  LpSolution run() {
    util::Timer timer;
    LpSolution out;
    initialize_basis();

    // ---- Phase 1: minimize the sum of artificial variables.
    if (n_art_ > 0) {
      Vec phase1_cost(cols_.size(), 0.0);
      for (std::size_t j = cols_.size() - n_art_; j < cols_.size(); ++j)
        phase1_cost[j] = 1.0;
      const SolveStatus st = optimize(phase1_cost, /*phase1=*/true);
      const double infeas = phase1_objective(phase1_cost);
      if (st == SolveStatus::kIterationLimit) {
        out.status = SolveStatus::kIterationLimit;
        out.detail = "phase-1 iteration limit";
        finish(out, timer);
        return out;
      }
      if (infeas > kFeasibilityTol * (1.0 + rhs_scale_)) {
        out.status = SolveStatus::kPrimalInfeasible;
        out.detail = "phase-1 optimum " + std::to_string(infeas);
        finish(out, timer);
        return out;
      }
      // Fix artificials at zero for phase 2.
      for (std::size_t j = cols_.size() - n_art_; j < cols_.size(); ++j) {
        cols_.lower[j] = 0.0;
        cols_.upper[j] = 0.0;
        if (status_[j] != VarStatus::kBasic) status_[j] = VarStatus::kAtLower;
      }
    }

    // ---- Phase 2: the real objective.
    const SolveStatus st = optimize(cols_.cost, /*phase1=*/false);
    out.status = st;
    finish(out, timer);
    return out;
  }

 private:
  void build_columns(const LpModel& model) {
    const std::size_t n = model.num_vars();
    cols_.n_struct = n;
    cols_.n_slack = m_;
    cols_.cols.resize(n + m_);
    cols_.lower.resize(n + m_);
    cols_.upper.resize(n + m_);
    cols_.cost.assign(n + m_, 0.0);
    objective_offset_ = model.objective_offset;

    // Structural columns from the CSR rows of A.
    const auto& offsets = model.a.row_offsets();
    const auto& indices = model.a.col_indices();
    const auto& values = model.a.values();
    for (std::size_t r = 0; r < m_; ++r)
      for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
        cols_.cols[indices[k]].push_back({r, values[k]});

    for (std::size_t j = 0; j < n; ++j) {
      cols_.lower[j] = model.var_lower[j];
      cols_.upper[j] = model.var_upper[j];
      cols_.cost[j] = model.objective[j];
    }
    // Slack columns: coefficient -1 on their row; bounds = row bounds.
    rhs_scale_ = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      cols_.cols[n + r].push_back({r, -1.0});
      cols_.lower[n + r] = model.row_lower[r];
      cols_.upper[n + r] = model.row_upper[r];
      if (std::isfinite(model.row_lower[r]))
        rhs_scale_ = std::max(rhs_scale_, std::fabs(model.row_lower[r]));
      if (std::isfinite(model.row_upper[r]))
        rhs_scale_ = std::max(rhs_scale_, std::fabs(model.row_upper[r]));
    }
  }

  // Nonbasic starting value for column j.
  double start_value(std::size_t j) const {
    const double lo = cols_.lower[j];
    const double hi = cols_.upper[j];
    if (std::isfinite(lo) && std::isfinite(hi))
      return std::fabs(lo) <= std::fabs(hi) ? lo : hi;
    if (std::isfinite(lo)) return lo;
    if (std::isfinite(hi)) return hi;
    return 0.0;
  }

  VarStatus start_status(std::size_t j) const {
    const double v = start_value(j);
    if (std::isfinite(cols_.lower[j]) && v == cols_.lower[j])
      return VarStatus::kAtLower;
    if (std::isfinite(cols_.upper[j])) return VarStatus::kAtUpper;
    return VarStatus::kFree;
  }

  void initialize_basis() {
    const std::size_t n = cols_.n_struct;
    status_.assign(cols_.size(), VarStatus::kAtLower);
    value_.assign(cols_.size(), 0.0);
    for (std::size_t j = 0; j < cols_.size(); ++j) {
      status_[j] = start_status(j);
      value_[j] = start_value(j);
    }

    // Required slack value per row given nonbasic structurals: s_r = (A x)_r.
    Vec activity(m_, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double v = value_[j];
      if (v == 0.0) continue;
      for (const auto& [r, a] : cols_.cols[j]) activity[r] += a * v;
    }

    basis_.assign(m_, 0);
    std::vector<std::size_t> art_rows;
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t slack = n + r;
      const double lo = cols_.lower[slack];
      const double hi = cols_.upper[slack];
      if (activity[r] >= lo - kFeasibilityTol &&
          activity[r] <= hi + kFeasibilityTol) {
        // Slack can start basic at the exact activity.
        basis_[r] = slack;
        status_[slack] = VarStatus::kBasic;
        value_[slack] = activity[r];
      } else {
        // Clamp the slack to its nearest bound (nonbasic) and cover the
        // residual with an artificial column of the appropriate sign.
        const double clamped = std::clamp(activity[r], lo, hi);
        status_[slack] = clamped == lo ? VarStatus::kAtLower : VarStatus::kAtUpper;
        value_[slack] = clamped;
        art_rows.push_back(r);
      }
    }

    n_art_ = art_rows.size();
    for (const std::size_t r : art_rows) {
      const std::size_t slack = n + r;
      // Row residual after the clamped slack: activity - s = residual, so the
      // artificial with coefficient +sign carries |residual| >= 0.
      const double residual = activity[r] - value_[slack];
      const std::size_t art = cols_.size();
      cols_.cols.push_back({{r, residual >= 0.0 ? -1.0 : 1.0}});
      cols_.lower.push_back(0.0);
      cols_.upper.push_back(kInf);
      cols_.cost.push_back(0.0);
      status_.push_back(VarStatus::kBasic);
      value_.push_back(std::fabs(residual));
      basis_[r] = art;
    }

    refactorize();
  }

  // Rebuild the dense basis inverse. Fast path: a basis of singleton columns
  // (the slack/artificial start) is a signed permutation whose inverse is
  // written directly; otherwise invert via an LU factorization.
  void refactorize() {
    bool all_singletons = true;
    for (std::size_t i = 0; i < m_; ++i)
      if (cols_.cols[basis_[i]].size() != 1) {
        all_singletons = false;
        break;
      }
    if (all_singletons) {
      binv_ = Matrix(m_, m_);
      std::vector<bool> row_used(m_, false);
      for (std::size_t i = 0; i < m_; ++i) {
        const auto& [r, a] = cols_.cols[basis_[i]][0];
        SORA_CHECK_MSG(std::fabs(a) > kPivotTol && !row_used[r],
                       "singular simplex basis");
        row_used[r] = true;
        binv_(i, r) = 1.0 / a;
      }
    } else {
      Matrix b(m_, m_);
      for (std::size_t i = 0; i < m_; ++i)
        for (const auto& [r, a] : cols_.cols[basis_[i]]) b(r, i) = a;
      auto lu = Lu::factor(b);
      SORA_CHECK_MSG(lu.has_value(), "singular simplex basis");
      binv_ = Matrix(m_, m_);
      Vec e(m_, 0.0);
      for (std::size_t c = 0; c < m_; ++c) {
        e[c] = 1.0;
        const Vec col = lu->solve(e);
        e[c] = 0.0;
        for (std::size_t r2 = 0; r2 < m_; ++r2) binv_(r2, c) = col[r2];
      }
    }
    recompute_basic_values();
    pivots_since_refactor_ = 0;
  }

  // x_B = B^{-1} (0 - A_N x_N)
  void recompute_basic_values() {
    Vec rhs(m_, 0.0);
    for (std::size_t j = 0; j < cols_.size(); ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      const double v = value_[j];
      if (v == 0.0) continue;
      for (const auto& [r, a] : cols_.cols[j]) rhs[r] -= a * v;
    }
    for (std::size_t i = 0; i < m_; ++i) {
      const double* row = binv_.row_ptr(i);
      double acc = 0.0;
      for (std::size_t k = 0; k < m_; ++k) acc += row[k] * rhs[k];
      value_[basis_[i]] = acc;
    }
  }

  // y^T = c_B^T B^{-1}
  Vec compute_duals(const Vec& cost) const {
    Vec y(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = cost[basis_[i]];
      if (cb == 0.0) continue;
      const double* row = binv_.row_ptr(i);
      for (std::size_t k = 0; k < m_; ++k) y[k] += cb * row[k];
    }
    return y;
  }

  double reduced_cost(const Vec& cost, const Vec& y, std::size_t j) const {
    double d = cost[j];
    for (const auto& [r, a] : cols_.cols[j]) d -= y[r] * a;
    return d;
  }

  double phase1_objective(const Vec& phase1_cost) const {
    double s = 0.0;
    for (std::size_t j = 0; j < cols_.size(); ++j)
      if (phase1_cost[j] != 0.0) s += phase1_cost[j] * value_[j];
    return s;
  }

  // Direction of improvement for nonbasic j given reduced cost d (minimize).
  // Returns +1 (increase), -1 (decrease), or 0 (not improving).
  int improving_direction(std::size_t j, double d) const {
    switch (status_[j]) {
      case VarStatus::kAtLower:
        return d < -kOptimalityTol ? +1 : 0;
      case VarStatus::kAtUpper:
        return d > kOptimalityTol ? -1 : 0;
      case VarStatus::kFree:
        if (d < -kOptimalityTol) return +1;
        if (d > kOptimalityTol) return -1;
        return 0;
      case VarStatus::kBasic:
        return 0;
    }
    return 0;
  }

  SolveStatus optimize(const Vec& cost, bool phase1) {
    std::size_t stall = 0;
    double last_objective = kInf;
    for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
      const Vec y = compute_duals(cost);

      // ---- Pricing: Dantzig (most violating reduced cost); Bland (lowest
      // index) once the objective has stalled, to escape cycling.
      const bool bland = stall > 200;
      std::size_t entering = cols_.size();
      int direction = 0;
      double best_score = 0.0;
      for (std::size_t j = 0; j < cols_.size(); ++j) {
        if (status_[j] == VarStatus::kBasic) continue;
        if (cols_.lower[j] == cols_.upper[j]) continue;  // fixed
        const double d = reduced_cost(cost, y, j);
        const int dir = improving_direction(j, d);
        if (dir == 0) continue;
        if (bland) {
          entering = j;
          direction = dir;
          break;
        }
        const double score = std::fabs(d);
        if (score > best_score) {
          best_score = score;
          entering = j;
          direction = dir;
        }
      }
      if (entering == cols_.size())
        return SolveStatus::kOptimal;  // no improving column

      // ---- FTRAN: w = B^{-1} a_entering.
      Vec w(m_, 0.0);
      for (const auto& [r, a] : cols_.cols[entering])
        for (std::size_t i = 0; i < m_; ++i) w[i] += binv_(i, r) * a;

      // ---- Ratio test. Entering moves by t*direction >= 0; basic i changes
      // by -direction * w[i] * t.
      double best_t = kInf;
      std::size_t leaving_pos = m_;   // position in basis
      double leaving_bound = 0.0;     // bound the leaving variable hits
      const double gap = cols_.upper[entering] - cols_.lower[entering];
      if (std::isfinite(gap)) best_t = gap;

      for (std::size_t i = 0; i < m_; ++i) {
        const double rate = -direction * w[i];  // d value_[basis_[i]] / dt
        if (std::fabs(rate) <= kPivotTol) continue;
        const std::size_t bj = basis_[i];
        const double v = value_[bj];
        double t;
        double bound;
        if (rate > 0.0) {
          if (!std::isfinite(cols_.upper[bj])) continue;
          bound = cols_.upper[bj];
          t = (bound - v) / rate;
        } else {
          if (!std::isfinite(cols_.lower[bj])) continue;
          bound = cols_.lower[bj];
          t = (bound - v) / rate;
        }
        t = std::max(t, 0.0);
        // Prefer strictly smaller t; on near-ties keep the larger |pivot|
        // for numerical stability.
        if (t < best_t - 1e-12 ||
            (t < best_t + 1e-12 && leaving_pos < m_ &&
             std::fabs(w[i]) > std::fabs(w[leaving_pos]))) {
          best_t = t;
          leaving_pos = i;
          leaving_bound = bound;
        }
      }

      if (!std::isfinite(best_t)) {
        return phase1 ? SolveStatus::kNumericalError  // phase 1 is bounded
                      : SolveStatus::kDualInfeasible;
      }

      // ---- Apply the step.
      const double t = best_t;
      for (std::size_t i = 0; i < m_; ++i)
        value_[basis_[i]] -= direction * w[i] * t;
      value_[entering] += direction * t;

      if (leaving_pos == m_) {
        // Bound flip: the entering variable hit its opposite bound.
        status_[entering] = direction > 0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
      } else {
        const std::size_t leaving = basis_[leaving_pos];
        value_[leaving] = leaving_bound;  // snap exactly onto the bound
        status_[leaving] = (std::isfinite(cols_.lower[leaving]) &&
                            leaving_bound == cols_.lower[leaving])
                               ? VarStatus::kAtLower
                               : VarStatus::kAtUpper;
        status_[entering] = VarStatus::kBasic;
        basis_[leaving_pos] = entering;
        update_inverse(w, leaving_pos);
        if (++pivots_since_refactor_ >= options_.refactor_interval)
          refactorize();
      }

      // ---- Stall detection for the Bland fallback.
      const double obj = phase1 ? phase1_objective(cost) : current_objective(cost);
      if (obj < last_objective - 1e-12 * (1.0 + std::fabs(last_objective))) {
        stall = 0;
        last_objective = obj;
      } else {
        ++stall;
      }
      iterations_ = iter + 1;
    }
    return SolveStatus::kIterationLimit;
  }

  double current_objective(const Vec& cost) const {
    double s = objective_offset_;
    for (std::size_t j = 0; j < cols_.size(); ++j)
      if (cost[j] != 0.0) s += cost[j] * value_[j];
    return s;
  }

  // Product-form update: basis column at position `pos` replaced; w is the
  // FTRAN vector of the entering column.
  void update_inverse(const Vec& w, std::size_t pos) {
    const double alpha = w[pos];
    SORA_CHECK_MSG(std::fabs(alpha) > kPivotTol, "tiny simplex pivot");
    const double inv_alpha = 1.0 / alpha;
    double* prow = binv_.row_ptr(pos);
    for (std::size_t k = 0; k < m_; ++k) prow[k] *= inv_alpha;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == pos) continue;
      const double wi = w[i];
      if (wi == 0.0) continue;
      double* irow = binv_.row_ptr(i);
      for (std::size_t k = 0; k < m_; ++k) irow[k] -= wi * prow[k];
    }
  }

  void finish(LpSolution& out, const util::Timer& timer) {
    out.x.assign(cols_.n_struct, 0.0);
    for (std::size_t j = 0; j < cols_.n_struct; ++j) out.x[j] = value_[j];
    out.row_dual = compute_duals(cols_.cost);
    out.objective = current_objective(cols_.cost);
    out.iterations = iterations_;
    out.solve_seconds = timer.seconds();
  }

  SimplexOptions options_;
  std::size_t m_;
  Columns cols_;
  double objective_offset_ = 0.0;
  double rhs_scale_ = 0.0;
  std::size_t n_art_ = 0;

  std::vector<VarStatus> status_;
  Vec value_;
  std::vector<std::size_t> basis_;  // basis_[i] = column basic in row slot i
  Matrix binv_;
  std::size_t pivots_since_refactor_ = 0;
  std::size_t iterations_ = 0;
};

}  // namespace

LpSolution solve_simplex(const LpModel& model, const SimplexOptions& options) {
  model.validate();
  SimplexSolver solver(model, options);
  LpSolution out = solver.run();
  if (obs::metrics_enabled()) {
    static obs::Histogram* iterations = &obs::Registry::global().histogram(
        "sora_simplex_iterations", "iterations",
        "Simplex pivots per LP solve", obs::exponential_buckets(1.0, 2.0, 16));
    iterations->observe(static_cast<double>(out.iterations));
  }
  return out;
}

}  // namespace sora::solver
