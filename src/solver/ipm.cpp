#include "solver/ipm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "linalg/cholesky.hpp"
#include "obs/obs.hpp"
#include "solver/lp.hpp"
#include "solver/simplex.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace sora::solver {
namespace {

using linalg::Matrix;
using linalg::SparseMatrix;
using linalg::Vec;

// Barrier multiplier growth per outer step.
constexpr double kMu = 20.0;
// Per-centering cap: the entropic subproblems converge linearly near the
// center (singular objective blocks), so instead of polishing each center
// the inner loop is capped and t advances — a long-step barrier scheme.
constexpr std::size_t kMaxStepsPerCenter = 40;
// Newton decrement^2 / 2 at which a centering is certified.
constexpr double kNewtonTol = 1e-9;
// Armijo sufficient-decrease fraction and backtracking shrink factor.
constexpr double kLineSearchAlpha = 0.25;
constexpr double kLineSearchBeta = 0.5;
// Slack floor shared by derivative assembly AND dual recovery. A slack
// driven to ~1e-14 would otherwise produce ~1e28 Hessian entries, and a
// different floor in dual recovery would make near-active rows report
// inconsistent multipliers to the certificate machinery.
constexpr double kSlackFloor = 1e-12;
// Smallest phase-I margin that counts as a strict interior.
constexpr double kPhase1MinMargin = 1e-9;

double min_slack(const Vec& s) {
  double m = kInf;
  for (double v : s) m = std::min(m, v);
  return m;
}

// phi(x) = -sum log s_i
double barrier_value(const Vec& s) {
  double v = 0.0;
  for (double si : s) v -= std::log(si);
  return v;
}

// The two constraint-matrix representations behind one solver: each adapter
// provides the three G-operations the Newton iteration needs.
struct DenseG {
  const Matrix& g;
  std::size_t rows() const { return g.rows(); }
  std::size_t cols() const { return g.cols(); }
  void multiply_into(const Vec& x, Vec& y) const {
    for (std::size_t r = 0; r < g.rows(); ++r) {
      const double* row = g.row_ptr(r);
      double acc = 0.0;
      for (std::size_t c = 0; c < g.cols(); ++c) acc += row[c] * x[c];
      y[r] = acc;
    }
  }
  void multiply_transpose_into(const Vec& x, Vec& y) const {
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t r = 0; r < g.rows(); ++r) {
      const double xr = x[r];
      if (xr == 0.0) continue;
      const double* row = g.row_ptr(r);
      for (std::size_t c = 0; c < g.cols(); ++c) y[c] += row[c] * xr;
    }
  }
  // hess += G^T diag(w) G (lower-triangle accumulate + mirror; hess must be
  // symmetric on entry, which the Newton assembly guarantees).
  void add_AtDA(const Vec& w, Matrix& hess) const {
    linalg::add_AtDA(g, w, hess);
  }
  // No CSR representation: the sparse normal-equations path stays off.
  const SparseMatrix* csr() const { return nullptr; }
};

struct SparseG {
  const SparseMatrix& g;
  std::size_t rows() const { return g.rows(); }
  std::size_t cols() const { return g.cols(); }
  void multiply_into(const Vec& x, Vec& y) const { g.multiply_into(x, y); }
  void multiply_transpose_into(const Vec& x, Vec& y) const {
    g.multiply_transpose_into(x, y);
  }
  void add_AtDA(const Vec& w, Matrix& hess) const { g.add_AtDA(w, hess); }
  const SparseMatrix* csr() const { return &g; }
};

// Handles resolved once (leaked registry gives stable addresses); the hot
// loop only touches atomics. Non-template so every instantiation of
// BarrierState shares one lookup.
struct IpmMetrics {
  obs::Histogram* newton_steps;
  obs::Histogram* backtracks;
  obs::Histogram* centerings;
  obs::Histogram* cholesky_seconds;
  obs::Histogram* factor_seconds;
  obs::Histogram* solve_seconds;
  obs::Histogram* assembly_seconds;
  obs::Histogram* line_search_seconds;
  obs::Histogram* final_gap;
  obs::Counter* symbolic_builds;
  obs::Counter* symbolic_reuse;
  obs::Gauge* factor_nonzeros;
};

const IpmMetrics& ipm_metrics() {
  static const IpmMetrics metrics = [] {
    auto& reg = obs::Registry::global();
    return IpmMetrics{
        &reg.histogram("sora_ipm_newton_steps", "steps",
                       "Newton steps per barrier solve",
                       obs::exponential_buckets(1.0, 2.0, 12)),
        &reg.histogram("sora_ipm_line_search_backtracks", "backtracks",
                       "Backtracking line-search shrinks per barrier solve",
                       obs::exponential_buckets(1.0, 2.0, 12)),
        &reg.histogram("sora_ipm_centering_iterations", "centerings",
                       "Outer centering phases per barrier solve",
                       obs::linear_buckets(1.0, 2.0, 16)),
        &reg.histogram("sora_ipm_cholesky_seconds", "seconds",
                       "Cholesky factor+solve time per barrier solve",
                       obs::exponential_buckets(1e-6, 4.0, 14)),
        &reg.histogram("sora_ipm_factor_seconds", "seconds",
                       "Newton-system factorization time per barrier solve",
                       obs::exponential_buckets(1e-6, 4.0, 14)),
        &reg.histogram("sora_ipm_solve_seconds", "seconds",
                       "Triangular-solve time per barrier solve",
                       obs::exponential_buckets(1e-6, 4.0, 14)),
        &reg.histogram("sora_ipm_assembly_seconds", "seconds",
                       "Gradient and Newton-matrix assembly time per barrier "
                       "solve",
                       obs::exponential_buckets(1e-6, 4.0, 14)),
        &reg.histogram("sora_ipm_line_search_seconds", "seconds",
                       "Step-to-boundary and backtracking line-search time "
                       "per barrier solve",
                       obs::exponential_buckets(1e-6, 4.0, 14)),
        &reg.histogram("sora_ipm_final_duality_gap", "gap",
                       "Duality gap bound m/t at barrier-solve exit",
                       obs::exponential_buckets(1e-10, 10.0, 12)),
        &reg.counter("sora_ipm_symbolic_builds",
                     "Sparse-Cholesky symbolic analyses (once per constraint "
                     "structure)"),
        &reg.counter("sora_ipm_symbolic_reuse",
                     "Barrier solves that reused a cached symbolic analysis"),
        &reg.gauge("sora_ipm_factor_nonzeros",
                   "Stored nonzeros of the sparse Cholesky factor L at the "
                   "latest symbolic analysis"),
    };
  }();
  return metrics;
}

std::uint64_t fnv64(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ULL;
}

// Decide dense vs sparse for this solve, (re)building the symbolic cache
// when the structure signature changed (a new problem shape; the P2
// workspaces keep one pattern for their lifetime). The signature covers the
// problem shape, the objective's Hessian pattern, and the constraint pattern
// (every row).
bool prepare_sparse_normal(const ConvexObjective& objective,
                           const SparseMatrix* g, std::size_t n,
                           const IpmOptions& options, SparseNormalCache& c) {
  if (g == nullptr || n < options.sparse_min_dim) return false;
  c.obj_pattern.clear();
  if (!objective.hessian_lower_structure(c.obj_pattern)) return false;

  const auto& offsets = g->row_offsets();
  const auto& cols = g->col_indices();
  std::uint64_t sig = 1469598103934665603ULL;
  sig = fnv64(sig, n);
  sig = fnv64(sig, g->rows());
  for (const linalg::Triplet& t : c.obj_pattern) {
    sig = fnv64(sig, t.row);
    sig = fnv64(sig, t.col);
  }
  for (std::size_t r = 0; r < g->rows(); ++r) {
    sig = fnv64(sig, offsets[r + 1] - offsets[r]);
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
      sig = fnv64(sig, cols[k]);
  }

  if (c.valid && sig == c.signature) {
    if (c.use_sparse) ipm_metrics().symbolic_reuse->inc();
    return c.use_sparse;
  }

  // Build the lower-triangle pattern of t*H_f + G^T diag(w) G: the full
  // diagonal (so a structurally empty column still factors under the
  // regularization shift), the objective pattern, and one entry per pair of
  // stored columns in each constraint row.
  std::vector<linalg::Triplet> trips;
  trips.reserve(n + c.obj_pattern.size());
  for (std::size_t j = 0; j < n; ++j) trips.push_back({j, j, 0.0});
  for (const linalg::Triplet& t : c.obj_pattern)
    trips.push_back({t.row, t.col, 0.0});
  for (std::size_t r = 0; r < g->rows(); ++r)
    for (std::size_t k1 = offsets[r]; k1 < offsets[r + 1]; ++k1)
      for (std::size_t k2 = offsets[r]; k2 <= k1; ++k2)
        trips.push_back({cols[k1], cols[k2], 0.0});
  c.normal = linalg::SymSparse::from_lower_triplets(n, std::move(trips));

  c.signature = sig;
  c.valid = true;
  if (c.normal.density() > options.sparse_max_density) {
    c.use_sparse = false;
    return false;
  }

  // Scatter maps: binary-search each source entry's slot in the assembled
  // pattern once, so per-Newton-step assembly is pure indexed adds.
  const auto entry_of = [&c](std::size_t r, std::size_t col) {
    if (col > r) std::swap(r, col);
    const auto begin = c.normal.cols.begin() + c.normal.row_ptr[r];
    const auto end = c.normal.cols.begin() + c.normal.row_ptr[r + 1];
    const auto it = std::lower_bound(begin, end, col);
    SORA_DCHECK(it != end && *it == col);
    return static_cast<std::size_t>(it - c.normal.cols.begin());
  };
  c.obj_target.clear();
  for (const linalg::Triplet& t : c.obj_pattern)
    c.obj_target.push_back(entry_of(t.row, t.col));
  c.pair_target.clear();
  for (std::size_t r = 0; r < g->rows(); ++r)
    for (std::size_t k1 = offsets[r]; k1 < offsets[r + 1]; ++k1)
      for (std::size_t k2 = offsets[r]; k2 <= k1; ++k2)
        c.pair_target.push_back(entry_of(cols[k1], cols[k2]));

  c.chol.analyze(c.normal);
  c.obj_vals.resize(c.obj_pattern.size());
  c.use_sparse = true;
  ipm_metrics().symbolic_builds->inc();
  ipm_metrics().factor_nonzeros->set(
      static_cast<double>(c.chol.factor_nonzeros()));
  return true;
}

// Newton-system values for the sparse path: zero the pattern, scatter the
// t-scaled objective Hessian, then w_r-weighted products of each constraint
// row's stored pairs, through the precomputed index maps.
void assemble_sparse_normal(const ConvexObjective& objective,
                            const SparseMatrix& g, const Vec& x, double t,
                            const Vec& w, SparseNormalCache& c) {
  std::fill(c.normal.values.begin(), c.normal.values.end(), 0.0);
  objective.hessian_lower_values_into(x, c.obj_vals);
  for (std::size_t k = 0; k < c.obj_target.size(); ++k)
    c.normal.values[c.obj_target[k]] += t * c.obj_vals[k];
  const auto& offsets = g.row_offsets();
  const auto& vals = g.values();
  std::size_t pos = 0;
  for (std::size_t r = 0; r < g.rows(); ++r) {
    const double wr = w[r];
    for (std::size_t k1 = offsets[r]; k1 < offsets[r + 1]; ++k1) {
      const double wv = wr * vals[k1];
      for (std::size_t k2 = offsets[r]; k2 <= k1; ++k2)
        c.normal.values[c.pair_target[pos++]] += wv * vals[k2];
    }
  }
}

// One barrier solve: its Newton state and the statements of one iteration.
// A Newton step is begin_step() (centering bookkeeping and assembly), then
// factor() and solve(), then finish_step() (decrement test and line
// search). Closing a centering phase either advances t or finishes the
// solve.
template <class G>
struct BarrierState {
  const ConvexObjective& objective;
  const G gm;
  const Vec& h;
  const IpmOptions& options;
  IpmScratch& ws;
  const bool obs_on;
  const std::size_t n;
  const std::size_t m;
  bool use_sparse = false;
  Vec x;
  double t = options.t0;
  std::size_t newton_budget = options.max_newton_steps;
  std::size_t steps_used = 0;
  std::size_t backtracks_total = 0;
  std::size_t centerings = 0;
  std::size_t steps_this_center = 0;
  double factor_seconds = 0.0;
  double solve_seconds = 0.0;
  double assembly_seconds = 0.0;
  double line_search_seconds = 0.0;
  // Last point where the Newton decrement certified convergence to the
  // central path, with its barrier multiplier. Dual recovery 1/(t*s) is only
  // trustworthy at such points; line-search stalls at extreme t would
  // otherwise poison the multipliers.
  bool have_center = false;
  double centered_t = 0.0;
  bool entering_center = true;  // the next step opens a centering phase
  bool done = false;
  IpmResult result;

  BarrierState(const ConvexObjective& objective_, G gm_, const Vec& h_,
               const Vec& x0, const IpmOptions& options_, IpmScratch& ws_,
               bool obs_on_)
      : objective(objective_), gm(gm_), h(h_), options(options_), ws(ws_),
        obs_on(obs_on_), n(x0.size()), m(gm_.rows()), x(x0) {
    SORA_CHECK(gm.cols() == n && h.size() == m);
    // Size the scratch buffers; no-ops when the caller reuses a scratch
    // across same-shaped solves, which keeps the Newton loop allocation-free.
    ws.s.resize(m);
    ws.inv_s.resize(m);
    ws.hess_w.resize(m);
    ws.s_try.resize(m);
    ws.gdx.resize(m);
    ws.grad.resize(n);
    ws.dx.resize(n);
    ws.x_try.resize(n);
    ws.gt_inv_s.resize(n);
    // Dense vs sparse normal equations (docs/SOLVERS.md): the sparse branch
    // skips the n x n dense buffers entirely.
    use_sparse =
        prepare_sparse_normal(objective, gm.csr(), n, options, ws.normal);
    if (!use_sparse) {
      if (ws.hess.rows() != n || ws.hess.cols() != n)
        ws.hess = Matrix(n, n, 0.0);
      if (ws.chol.rows() != n || ws.chol.cols() != n)
        ws.chol = Matrix(n, n, 0.0);
    }
    slacks_into(x, ws.s);
    if (min_slack(ws.s) <= 0.0) {
      result.status = SolveStatus::kNumericalError;
      result.detail = "starting point not strictly feasible (min slack " +
                      std::to_string(min_slack(ws.s)) + ")";
      result.x = x;
      done = true;
    }
  }

  // Slacks s = h - Gx; all must stay strictly positive.
  void slacks_into(const Vec& point, Vec& s) const {
    gm.multiply_into(point, s);
    for (std::size_t i = 0; i < m; ++i) s[i] = h[i] - s[i];
  }

  // Open the next Newton step at x. Returns false, after closing the
  // centering phase, when the phase's step cap or the total budget is hit;
  // true once the gradient and Newton matrix are assembled.
  bool begin_step() {
    if (entering_center) {
      ++centerings;
      steps_this_center = 0;
      entering_center = false;
    }
    if (newton_budget == 0 ||
        steps_this_center >= kMaxStepsPerCenter) {
      end_center();
      return false;
    }
    ++steps_this_center;
    util::ScopedTimer timer(obs_on ? &assembly_seconds : nullptr);
    slacks_into(x, ws.s);
    // Gradient of t f + phi: t grad f + G^T (1/s).
    objective.gradient_into(x, ws.grad);
    linalg::scale(ws.grad, t);
    // Floor the slacks inside the derivative assembly: a slack driven to
    // ~1e-14 would otherwise produce ~1e28 Hessian entries and destroy the
    // factorization. The line search still treats the true slacks.
    for (std::size_t i = 0; i < m; ++i)
      ws.inv_s[i] = 1.0 / std::max(ws.s[i], kSlackFloor);
    gm.multiply_transpose_into(ws.inv_s, ws.gt_inv_s);
    for (std::size_t j = 0; j < n; ++j) ws.grad[j] += ws.gt_inv_s[j];

    // Hessian: t H_f + G^T diag(1/s^2) G.
    for (std::size_t i = 0; i < m; ++i)
      ws.hess_w[i] = ws.inv_s[i] * ws.inv_s[i];
    if (use_sparse) {
      assemble_sparse_normal(objective, *gm.csr(), x, t, ws.hess_w, ws.normal);
    } else {
      objective.hessian_into(x, ws.hess);
      for (std::size_t r = 0; r < n; ++r) {
        double* hrow = ws.hess.row_ptr(r);
        for (std::size_t c = 0; c < n; ++c) hrow[c] *= t;
      }
      gm.add_AtDA(ws.hess_w, ws.hess);
    }
    return true;
  }

  // Regularized factor of the assembled Newton matrix: plain first, then
  // growing diagonal shifts.
  void factor() {
    util::ScopedTimer timer(obs_on ? &factor_seconds : nullptr);
    if (use_sparse)
      ws.normal.chol.factor_regularized(ws.normal.normal, 1e-12, 1e16);
    else
      linalg::cholesky_factor_regularized_into(ws.hess, ws.chol, 1e-12, 1e16);
  }

  // Newton step dx = -(Newton matrix)^{-1} grad from factor()'s factor.
  void solve() {
    util::ScopedTimer timer(obs_on ? &solve_seconds : nullptr);
    for (std::size_t j = 0; j < n; ++j) ws.dx[j] = -ws.grad[j];
    if (use_sparse)
      ws.normal.chol.solve_in_place(ws.dx);
    else
      linalg::cholesky_solve_in_place(ws.chol, ws.dx);
  }

  // Decrement test on ws.dx, then a backtracking line search on t f + phi
  // that keeps s > 0.
  void finish_step() {
    const double decrement2 = -linalg::dot(ws.grad, ws.dx);  // lambda^2
    --newton_budget;
    ++steps_used;
    if (decrement2 / 2.0 <= kNewtonTol) {
      ws.centered_x = x;
      have_center = true;
      centered_t = t;
      end_center();
      return;
    }

    bool moved = false;
    {
      util::ScopedTimer timer(obs_on ? &line_search_seconds : nullptr);
      // First shrink until strictly feasible.
      double step = 1.0;
      gm.multiply_into(ws.dx, ws.gdx);
      for (std::size_t i = 0; i < m; ++i) {
        if (ws.gdx[i] > 0.0) {
          const double limit = ws.s[i] / ws.gdx[i];
          if (0.99 * limit < step) step = 0.99 * limit;
        }
      }
      const double f0 = t * objective.value(x) + barrier_value(ws.s);
      const double slope = linalg::dot(ws.grad, ws.dx);  // negative
      for (int ls = 0; ls < 60; ++ls) {
        ws.x_try = x;
        linalg::axpy(step, ws.dx, ws.x_try);
        // x + step dx rounds to x: no shorter step can move it either, and
        // accepting the no-op would only repeat this step bit for bit.
        if (ws.x_try == x) break;
        slacks_into(ws.x_try, ws.s_try);
        if (min_slack(ws.s_try) > 0.0) {
          const double f_try =
              t * objective.value(ws.x_try) + barrier_value(ws.s_try);
          if (f_try <= f0 + kLineSearchAlpha * step * slope) {
            x.swap(ws.x_try);
            moved = true;
            break;
          }
        }
        step *= kLineSearchBeta;
        ++backtracks_total;
      }
    }
    // Stuck (gradient/Hessian inconsistency at this scale) or the step no
    // longer moves x at all. Treat the current point as centered without
    // certifying it; end_center decides if the gap is acceptable.
    if (!moved) end_center();
  }

  // Close a centering phase: stop at the target gap or an exhausted
  // budget, else grow t.
  void end_center() {
    const double gap = static_cast<double>(m) / t;
    if (gap < options.tol) {
      result.status = SolveStatus::kOptimal;
      finish();
      return;
    }
    if (newton_budget == 0) {
      result.status = gap < options.acceptable_gap
                          ? SolveStatus::kOptimal
                          : SolveStatus::kIterationLimit;
      result.detail = "newton budget exhausted at gap " + std::to_string(gap);
      finish();
      return;
    }
    t *= kMu;
    entering_center = true;
  }

  void finish() {
    if (obs_on) {
      const IpmMetrics& metrics = ipm_metrics();
      metrics.newton_steps->observe(static_cast<double>(steps_used));
      metrics.backtracks->observe(static_cast<double>(backtracks_total));
      metrics.centerings->observe(static_cast<double>(centerings));
      metrics.cholesky_seconds->observe(factor_seconds + solve_seconds);
      metrics.factor_seconds->observe(factor_seconds);
      metrics.solve_seconds->observe(solve_seconds);
      metrics.assembly_seconds->observe(assembly_seconds);
      metrics.line_search_seconds->observe(line_search_seconds);
      metrics.final_gap->observe(static_cast<double>(m) / t);
    }
    result.x = x;
    result.objective = objective.value(x);
    result.newton_steps = steps_used;
    // Multipliers from the last certified center (fall back to the final
    // point when no centering ever converged). The slack floor here matches
    // the derivative assembly so near-active rows report consistent
    // multipliers to the certificate machinery.
    const Vec& dual_point = have_center ? ws.centered_x : x;
    const double dual_t = have_center ? centered_t : t;
    slacks_into(dual_point, ws.s);
    result.ineq_dual.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i)
      result.ineq_dual[i] =
          1.0 / (dual_t * std::max(ws.s[i], kSlackFloor));
    done = true;
  }

  // One Newton step after another until done.
  void run() {
    while (!done) {
      if (!begin_step()) continue;
      factor();
      solve();
      finish_step();
    }
  }
};

template <class G>
IpmResult run_barrier(const ConvexObjective& objective, G gm, const Vec& h,
                       const Vec& x0, const IpmOptions& options,
                       IpmScratch* scratch) {
  IpmScratch local;
  BarrierState<G> state(objective, gm, h, x0, options,
                        scratch != nullptr ? *scratch : local,
                        obs::metrics_enabled());
  state.run();
  return std::move(state.result);
}

}  // namespace

IpmResult solve_barrier(const ConvexObjective& objective, const Matrix& g,
                        const Vec& h, const Vec& x0, const IpmOptions& options,
                        IpmScratch* scratch) {
  return run_barrier(objective, DenseG{g}, h, x0, options, scratch);
}

IpmResult solve_barrier(const ConvexObjective& objective,
                        const SparseMatrix& g, const Vec& h, const Vec& x0,
                        const IpmOptions& options, IpmScratch* scratch) {
  return run_barrier(objective, SparseG{g}, h, x0, options, scratch);
}

StrictStart phase1_feasible_point(const SparseMatrix& g, const Vec& h) {
  LpBuilder b;
  const std::size_t n = g.cols();
  for (std::size_t j = 0; j < n; ++j) b.add_variable(-kInf, kInf, 0.0);
  const std::size_t margin = b.add_variable(0.0, 1.0, -1.0, "margin");
  for (std::size_t r = 0; r < g.rows(); ++r) {
    std::vector<LinTerm> terms;
    const auto row = g.row(r);
    for (std::size_t k = 0; k < row.size; ++k)
      if (row.vals[k] != 0.0) terms.push_back({row.cols[k], row.vals[k]});
    terms.push_back({margin, 1.0});
    b.add_le(terms, h[r]);
  }
  const LpSolution sol = solve_simplex(b.build());
  StrictStart start;
  if (!sol.ok()) {
    start.status = sol.status;
    start.detail = "no strict interior: phase-I LP " +
                   std::string(to_string(sol.status));
    if (!sol.detail.empty()) start.detail += " (" + sol.detail + ")";
  } else if (sol.x[margin] <= kPhase1MinMargin) {
    start.status = SolveStatus::kPrimalInfeasible;
    start.detail =
        "no strict interior: phase-I margin " + std::to_string(sol.x[margin]);
  } else {
    start.status = SolveStatus::kOptimal;
    start.x.assign(sol.x.begin(),
                   sol.x.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return start;
}

}  // namespace sora::solver
