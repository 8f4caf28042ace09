#include "solver/ipm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "linalg/batched_cholesky.hpp"
#include "linalg/cholesky.hpp"
#include "obs/obs.hpp"
#include "solver/lp.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace sora::solver {
namespace {

using linalg::Matrix;
using linalg::SparseMatrix;
using linalg::Vec;

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
// solve_barrier_impl shares one lookup.
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

// Structure pass shared by prepare_sparse_normal and the batch router: fill
// c.obj_pattern and compute the structure signature over the problem shape,
// the objective's Hessian pattern, and the constraint pattern (every row).
// Returns false when the sparse path is structurally unavailable for this
// problem.
bool sparse_structure_signature(const ConvexObjective& objective,
                                const SparseMatrix* g, std::size_t n,
                                const IpmOptions& options, SparseNormalCache& c,
                                std::uint64_t& sig_out) {
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
  sig_out = sig;
  return true;
}

// Decide dense vs sparse for this solve, (re)building the symbolic cache
// when the structure signature changed (a new problem shape; the P2
// workspaces keep one pattern for their lifetime).
bool prepare_sparse_normal(const ConvexObjective& objective,
                           const SparseMatrix* g, std::size_t n,
                           const IpmOptions& options, SparseNormalCache& c) {
  std::uint64_t sig = 0;
  if (!sparse_structure_signature(objective, g, n, options, c, sig))
    return false;

  const auto& offsets = g->row_offsets();
  const auto& cols = g->col_indices();

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

template <class G>
IpmResult solve_barrier_impl(const ConvexObjective& objective, const G& gm,
                             const Vec& h, const Vec& x0,
                             const IpmOptions& options, IpmScratch& ws) {
  const std::size_t n = x0.size();
  const std::size_t m = gm.rows();
  SORA_CHECK(gm.cols() == n && h.size() == m);

  // Size the scratch buffers; no-ops when the caller reuses a scratch across
  // same-shaped solves, which keeps the Newton loop allocation-free.
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
  const bool use_sparse =
      prepare_sparse_normal(objective, gm.csr(), n, options, ws.normal);
  if (!use_sparse) {
    if (ws.hess.rows() != n || ws.hess.cols() != n)
      ws.hess = Matrix(n, n, 0.0);
    if (ws.chol.rows() != n || ws.chol.cols() != n)
      ws.chol = Matrix(n, n, 0.0);
  }

  // Slacks s = h - Gx; all must stay strictly positive.
  const auto slacks_into = [&](const Vec& point, Vec& s) {
    gm.multiply_into(point, s);
    for (std::size_t i = 0; i < m; ++i) s[i] = h[i] - s[i];
  };

  IpmResult result;
  Vec x = x0;
  slacks_into(x, ws.s);
  if (min_slack(ws.s) <= 0.0) {
    result.status = SolveStatus::kNumericalError;
    result.detail = "starting point not strictly feasible (min slack " +
                    std::to_string(min_slack(ws.s)) + ")";
    result.x = x;
    return result;
  }

  double t = options.t0;
  std::size_t newton_budget = options.max_newton_steps;
  std::size_t steps_used = 0;
  // Capture the toggle once per solve: one relaxed load, and the per-step
  // clock reads vanish entirely when metrics are off.
  const bool obs_on = obs::metrics_enabled();
  std::size_t backtracks_total = 0;
  std::size_t centerings = 0;
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

  while (true) {
    // ---- Center for the current t with damped Newton.
    ++centerings;
    std::size_t steps_this_center = 0;
    while (newton_budget > 0 &&
           steps_this_center < options.max_steps_per_center) {
      ++steps_this_center;
      {
        util::ScopedTimer timer(obs_on ? &assembly_seconds : nullptr);
        slacks_into(x, ws.s);
        // Gradient of t f + phi: t grad f + G^T (1/s).
        objective.gradient_into(x, ws.grad);
        linalg::scale(ws.grad, t);
        // Floor the slacks inside the derivative assembly: a slack driven to
        // ~1e-14 would otherwise produce ~1e28 Hessian entries and destroy
        // the factorization. The line search still treats the true slacks.
        for (std::size_t i = 0; i < m; ++i)
          ws.inv_s[i] = 1.0 / std::max(ws.s[i], options.slack_floor);
        gm.multiply_transpose_into(ws.inv_s, ws.gt_inv_s);
        for (std::size_t j = 0; j < n; ++j) ws.grad[j] += ws.gt_inv_s[j];

        // Hessian: t H_f + G^T diag(1/s^2) G.
        for (std::size_t i = 0; i < m; ++i)
          ws.hess_w[i] = ws.inv_s[i] * ws.inv_s[i];
        if (use_sparse) {
          assemble_sparse_normal(objective, *gm.csr(), x, t, ws.hess_w,
                                 ws.normal);
        } else {
          objective.hessian_into(x, ws.hess);
          for (std::size_t r = 0; r < n; ++r) {
            double* hrow = ws.hess.row_ptr(r);
            for (std::size_t c = 0; c < n; ++c) hrow[c] *= t;
          }
          gm.add_AtDA(ws.hess_w, ws.hess);
        }
      }
      {
        util::ScopedTimer timer(obs_on ? &factor_seconds : nullptr);
        if (use_sparse)
          ws.normal.chol.factor_regularized(ws.normal.normal, 1e-12, 1e16);
        else
          linalg::cholesky_factor_regularized_into(ws.hess, ws.chol, 1e-12,
                                                   1e16);
      }
      {
        util::ScopedTimer timer(obs_on ? &solve_seconds : nullptr);
        for (std::size_t j = 0; j < n; ++j) ws.dx[j] = -ws.grad[j];
        if (use_sparse)
          ws.normal.chol.solve_in_place(ws.dx);
        else
          linalg::cholesky_solve_in_place(ws.chol, ws.dx);
      }

      const double decrement2 = -linalg::dot(ws.grad, ws.dx);  // lambda^2
      --newton_budget;
      ++steps_used;
      if (decrement2 / 2.0 <= options.newton_tol) {
        ws.centered_x = x;
        have_center = true;
        centered_t = t;
        break;
      }

      // ---- Backtracking line search on t f + phi, keeping s > 0.
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
          slacks_into(ws.x_try, ws.s_try);
          if (min_slack(ws.s_try) > 0.0) {
            const double f_try =
                t * objective.value(ws.x_try) + barrier_value(ws.s_try);
            if (f_try <= f0 + options.line_search_alpha * step * slope) {
              x.swap(ws.x_try);
              moved = true;
              break;
            }
          }
          step *= options.line_search_beta;
          ++backtracks_total;
        }
      }
      if (!moved) {
        // Stuck: gradient/Hessian inconsistency at this scale. Treat the
        // current point as centered; the outer loop decides if the gap is
        // acceptable.
        break;
      }
    }

    if (options.log_progress) {
      SORA_LOG_DEBUG << "ipm t=" << t << " gap<=" << (m / t)
                     << " f=" << objective.value(x);
    }

    if (static_cast<double>(m) / t < options.tol) {
      result.status = SolveStatus::kOptimal;
      break;
    }
    if (newton_budget == 0) {
      const double gap = static_cast<double>(m) / t;
      result.status = gap < options.acceptable_gap
                          ? SolveStatus::kOptimal
                          : SolveStatus::kIterationLimit;
      result.detail = "newton budget exhausted at gap " + std::to_string(gap);
      break;
    }
    t *= options.mu;
  }

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
        1.0 / (dual_t * std::max(ws.s[i], options.slack_floor));
  return result;
}

// ---------------------------------------------------------------------------
// Batched execution (solve_barrier_batch): many independent instances, the
// dense Newton factor+solve vectorized across same-dimension instances.
// ---------------------------------------------------------------------------

struct BatchMetrics {
  obs::Counter* solves;
  obs::Counter* lockstep_instances;
  obs::Counter* factor_fallbacks;
  obs::Counter* symbolic_adopted;
  obs::Histogram* lockstep_width;
};

const BatchMetrics& batch_metrics() {
  static const BatchMetrics metrics = [] {
    auto& reg = obs::Registry::global();
    return BatchMetrics{
        &reg.counter("sora_batch_solves_total",
                     "Barrier instances entering solve_barrier_batch"),
        &reg.counter("sora_batch_lockstep_instances_total",
                     "Instances routed to the dense lockstep kernel"),
        &reg.counter("sora_batch_factor_fallbacks_total",
                     "Lockstep factors escalated to the serial regularized "
                     "path (non-positive pivot or non-finite input)"),
        &reg.counter("sora_batch_symbolic_adopted_total",
                     "Sparse symbolic caches adopted from a same-signature "
                     "donor instead of re-analysed"),
        &reg.histogram("sora_batch_lockstep_width", "instances",
                       "Active lanes per batched Newton factor round",
                       obs::exponential_buckets(1.0, 2.0, 10)),
    };
  }();
  return metrics;
}

// One instance inside a dense lockstep group. The scalar fields mirror the
// locals of solve_barrier_impl one for one; the state machine below replays
// that function's exact statement order per lane, with only the Newton
// factor+solve hoisted into the batched kernel.
struct DenseLane {
  BarrierBatchItem* item = nullptr;
  IpmScratch* ws = nullptr;
  Vec x;
  std::size_t m = 0;
  double t = 0.0;
  std::size_t newton_budget = 0;
  std::size_t steps_used = 0;
  std::size_t backtracks_total = 0;
  std::size_t centerings = 0;
  std::size_t steps_this_center = 0;
  double factor_seconds = 0.0;
  double solve_seconds = 0.0;
  double assembly_seconds = 0.0;
  double line_search_seconds = 0.0;
  bool have_center = false;
  double centered_t = 0.0;
  bool entering_center = true;  // next step opens a new centering phase
  bool stepping = false;        // a Newton system was assembled this round
  bool lane_serial = false;     // this step's factor took the serial path
  bool done = false;
};

// Run one group of dense-path instances of common dimension n in lockstep.
// Per-lane results are bitwise identical to serial solve_barrier: assembly,
// line search, and the t-schedule are the serial statements per lane, and
// the batched factor/solve mirrors the serial kernel bit for bit (lanes
// whose plain factor fails re-run the serial regularized factor, which
// itself retries shift 0 first — exactly the sequential semantics).
void run_dense_lockstep(BarrierBatchItem** items, IpmScratch** scratches,
                        std::size_t count, std::size_t n, bool obs_on) {
  linalg::BatchedDenseCholesky kernel;
  kernel.configure(n, count);
  std::vector<DenseLane> lanes(count);

  const auto slacks_into = [](const SparseMatrix& g, const Vec& h,
                              const Vec& point, Vec& s) {
    g.multiply_into(point, s);
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = h[i] - s[i];
  };

  const auto lane_fail = [](DenseLane& lane, const std::exception& e) {
    lane.item->error = e.what();
    lane.item->result.status = SolveStatus::kNumericalError;
    lane.item->result.detail = e.what();
    lane.done = true;
  };

  // Mirror of the serial epilogue: metrics, result fill, dual recovery from
  // the last certified center.
  const auto lane_finish = [&](DenseLane& lane) {
    IpmScratch& ws = *lane.ws;
    BarrierBatchItem& it = *lane.item;
    if (obs_on) {
      const IpmMetrics& metrics = ipm_metrics();
      metrics.newton_steps->observe(static_cast<double>(lane.steps_used));
      metrics.backtracks->observe(static_cast<double>(lane.backtracks_total));
      metrics.centerings->observe(static_cast<double>(lane.centerings));
      metrics.cholesky_seconds->observe(lane.factor_seconds +
                                        lane.solve_seconds);
      metrics.factor_seconds->observe(lane.factor_seconds);
      metrics.solve_seconds->observe(lane.solve_seconds);
      metrics.assembly_seconds->observe(lane.assembly_seconds);
      metrics.line_search_seconds->observe(lane.line_search_seconds);
      metrics.final_gap->observe(static_cast<double>(lane.m) / lane.t);
    }
    it.result.x = lane.x;
    it.result.objective = it.objective->value(lane.x);
    it.result.newton_steps = lane.steps_used;
    const Vec& dual_point = lane.have_center ? ws.centered_x : lane.x;
    const double dual_t = lane.have_center ? lane.centered_t : lane.t;
    slacks_into(*it.g, *it.h, dual_point, ws.s);
    it.result.ineq_dual.assign(lane.m, 0.0);
    for (std::size_t i = 0; i < lane.m; ++i)
      it.result.ineq_dual[i] =
          1.0 / (dual_t * std::max(ws.s[i], it.options.slack_floor));
    lane.done = true;
  };

  // Mirror of the serial code between the inner Newton loop's exit and the
  // next `t *= mu`: progress log, stop checks, barrier advance.
  const auto lane_end_center = [&](DenseLane& lane) {
    BarrierBatchItem& it = *lane.item;
    const IpmOptions& o = it.options;
    if (o.log_progress) {
      SORA_LOG_DEBUG << "ipm t=" << lane.t
                     << " gap<=" << (static_cast<double>(lane.m) / lane.t)
                     << " f=" << it.objective->value(lane.x);
    }
    if (static_cast<double>(lane.m) / lane.t < o.tol) {
      it.result.status = SolveStatus::kOptimal;
      lane_finish(lane);
      return;
    }
    if (lane.newton_budget == 0) {
      const double gap = static_cast<double>(lane.m) / lane.t;
      it.result.status = gap < o.acceptable_gap ? SolveStatus::kOptimal
                                                : SolveStatus::kIterationLimit;
      it.result.detail =
          "newton budget exhausted at gap " + std::to_string(gap);
      lane_finish(lane);
      return;
    }
    lane.t *= o.mu;
    lane.entering_center = true;
  };

  // ---- Lane init: the serial preamble per instance.
  for (std::size_t b = 0; b < count; ++b) {
    DenseLane& lane = lanes[b];
    lane.item = items[b];
    lane.ws = scratches[b];
    BarrierBatchItem& it = *lane.item;
    IpmScratch& ws = *lane.ws;
    try {
      const std::size_t m = it.g->rows();
      SORA_CHECK(it.g->cols() == n && it.h->size() == m);
      lane.m = m;
      ws.s.resize(m);
      ws.inv_s.resize(m);
      ws.hess_w.resize(m);
      ws.s_try.resize(m);
      ws.gdx.resize(m);
      ws.grad.resize(n);
      ws.dx.resize(n);
      ws.x_try.resize(n);
      ws.gt_inv_s.resize(n);
      if (ws.hess.rows() != n || ws.hess.cols() != n)
        ws.hess = Matrix(n, n, 0.0);
      if (ws.chol.rows() != n || ws.chol.cols() != n)
        ws.chol = Matrix(n, n, 0.0);
      lane.x = *it.x0;
      slacks_into(*it.g, *it.h, lane.x, ws.s);
      if (min_slack(ws.s) <= 0.0) {
        it.result.status = SolveStatus::kNumericalError;
        it.result.detail = "starting point not strictly feasible (min slack " +
                           std::to_string(min_slack(ws.s)) + ")";
        it.result.x = lane.x;
        lane.done = true;
        continue;
      }
      lane.t = it.options.t0;
      lane.newton_budget = it.options.max_newton_steps;
    } catch (const std::exception& e) {
      lane_fail(lane, e);
    }
  }

  std::vector<char> active(count, 0);
  while (true) {
    bool any_live = false;
    for (const DenseLane& lane : lanes) any_live |= !lane.done;
    if (!any_live) break;

    // ---- Phase A: per-lane Newton-system assembly (serial statements).
    std::fill(active.begin(), active.end(), 0);
    for (std::size_t b = 0; b < count; ++b) {
      DenseLane& lane = lanes[b];
      if (lane.done) continue;
      BarrierBatchItem& it = *lane.item;
      const IpmOptions& o = it.options;
      IpmScratch& ws = *lane.ws;
      lane.stepping = false;
      lane.lane_serial = false;
      if (lane.entering_center) {
        ++lane.centerings;
        lane.steps_this_center = 0;
        lane.entering_center = false;
      }
      if (!(lane.newton_budget > 0 &&
            lane.steps_this_center < o.max_steps_per_center)) {
        lane_end_center(lane);
        continue;
      }
      ++lane.steps_this_center;
      try {
        {
          util::ScopedTimer timer(obs_on ? &lane.assembly_seconds : nullptr);
          slacks_into(*it.g, *it.h, lane.x, ws.s);
          it.objective->gradient_into(lane.x, ws.grad);
          linalg::scale(ws.grad, lane.t);
          for (std::size_t i = 0; i < lane.m; ++i)
            ws.inv_s[i] = 1.0 / std::max(ws.s[i], o.slack_floor);
          it.g->multiply_transpose_into(ws.inv_s, ws.gt_inv_s);
          for (std::size_t j = 0; j < n; ++j) ws.grad[j] += ws.gt_inv_s[j];
          for (std::size_t i = 0; i < lane.m; ++i)
            ws.hess_w[i] = ws.inv_s[i] * ws.inv_s[i];
          it.objective->hessian_into(lane.x, ws.hess);
          for (std::size_t r = 0; r < n; ++r) {
            double* hrow = ws.hess.row_ptr(r);
            for (std::size_t c = 0; c < n; ++c) hrow[c] *= lane.t;
          }
          it.g->add_AtDA(ws.hess_w, ws.hess);
        }
        lane.stepping = true;
        bool finite = true;
        for (const double v : ws.hess.data())
          if (!std::isfinite(v)) {
            finite = false;
            break;
          }
        if (!finite) {
          // The serial regularized factor raises the identical CheckError for
          // non-finite input; route through it so the failure text matches.
          util::ScopedTimer timer(obs_on ? &lane.factor_seconds : nullptr);
          linalg::cholesky_factor_regularized_into(ws.hess, ws.chol, 1e-12,
                                                   1e16);
          lane.lane_serial = true;
        } else {
          kernel.pack(b, ws.hess);
          active[b] = 1;
        }
      } catch (const std::exception& e) {
        lane_fail(lane, e);
      }
    }

    // ---- Batched factor across the active lanes.
    std::size_t width = 0;
    for (const char a : active) width += a != 0 ? 1 : 0;
    if (width > 0) {
      double secs = 0.0;
      {
        util::ScopedTimer timer(obs_on ? &secs : nullptr);
        kernel.factor(active);
      }
      if (obs_on) {
        batch_metrics().lockstep_width->observe(static_cast<double>(width));
        const double share = secs / static_cast<double>(width);
        for (std::size_t b = 0; b < count; ++b)
          if (active[b] != 0) lanes[b].factor_seconds += share;
      }
    }

    // ---- Escalations + rhs staging for the batched triangular solve.
    std::size_t solve_width = 0;
    for (std::size_t b = 0; b < count; ++b) {
      DenseLane& lane = lanes[b];
      if (lane.done || !lane.stepping || active[b] == 0) continue;
      IpmScratch& ws = *lane.ws;
      if (kernel.ok(b)) {
        for (std::size_t j = 0; j < n; ++j) ws.dx[j] = -ws.grad[j];
        kernel.set_rhs(b, ws.dx);
        ++solve_width;
      } else {
        // Plain factor failed for this lane: the serial regularized factor
        // replays the identical retry-then-escalate sequence (shift 0 first).
        if (obs_on) batch_metrics().factor_fallbacks->inc();
        try {
          util::ScopedTimer timer(obs_on ? &lane.factor_seconds : nullptr);
          linalg::cholesky_factor_regularized_into(ws.hess, ws.chol, 1e-12,
                                                   1e16);
          lane.lane_serial = true;
        } catch (const std::exception& e) {
          lane_fail(lane, e);
        }
      }
    }
    if (solve_width > 0) {
      double secs = 0.0;
      {
        util::ScopedTimer timer(obs_on ? &secs : nullptr);
        kernel.solve();
      }
      if (obs_on) {
        const double share = secs / static_cast<double>(solve_width);
        for (std::size_t b = 0; b < count; ++b)
          if (active[b] != 0 && !lanes[b].done && !lanes[b].lane_serial)
            lanes[b].solve_seconds += share;
      }
    }

    // ---- Phase B: decrement test, line search, and transitions per lane.
    for (std::size_t b = 0; b < count; ++b) {
      DenseLane& lane = lanes[b];
      if (lane.done || !lane.stepping) continue;
      BarrierBatchItem& it = *lane.item;
      const IpmOptions& o = it.options;
      IpmScratch& ws = *lane.ws;
      try {
        if (lane.lane_serial) {
          util::ScopedTimer timer(obs_on ? &lane.solve_seconds : nullptr);
          for (std::size_t j = 0; j < n; ++j) ws.dx[j] = -ws.grad[j];
          linalg::cholesky_solve_in_place(ws.chol, ws.dx);
        } else {
          kernel.get_rhs(b, ws.dx);
        }

        const double decrement2 = -linalg::dot(ws.grad, ws.dx);
        --lane.newton_budget;
        ++lane.steps_used;
        if (decrement2 / 2.0 <= o.newton_tol) {
          ws.centered_x = lane.x;
          lane.have_center = true;
          lane.centered_t = lane.t;
          lane_end_center(lane);
          continue;
        }

        bool moved = false;
        {
          util::ScopedTimer timer(obs_on ? &lane.line_search_seconds
                                         : nullptr);
          double step = 1.0;
          it.g->multiply_into(ws.dx, ws.gdx);
          for (std::size_t i = 0; i < lane.m; ++i) {
            if (ws.gdx[i] > 0.0) {
              const double limit = ws.s[i] / ws.gdx[i];
              if (0.99 * limit < step) step = 0.99 * limit;
            }
          }
          const double f0 =
              lane.t * it.objective->value(lane.x) + barrier_value(ws.s);
          const double slope = linalg::dot(ws.grad, ws.dx);
          for (int ls = 0; ls < 60; ++ls) {
            ws.x_try = lane.x;
            linalg::axpy(step, ws.dx, ws.x_try);
            slacks_into(*it.g, *it.h, ws.x_try, ws.s_try);
            if (min_slack(ws.s_try) > 0.0) {
              const double f_try = lane.t * it.objective->value(ws.x_try) +
                                   barrier_value(ws.s_try);
              if (f_try <= f0 + o.line_search_alpha * step * slope) {
                lane.x.swap(ws.x_try);
                moved = true;
                break;
              }
            }
            step *= o.line_search_beta;
            ++lane.backtracks_total;
          }
        }
        if (!moved) {
          lane_end_center(lane);
          continue;
        }
      } catch (const std::exception& e) {
        lane_fail(lane, e);
      }
    }
  }
}

}  // namespace

IpmResult solve_barrier(const ConvexObjective& objective, const Matrix& g,
                        const Vec& h, const Vec& x0, const IpmOptions& options,
                        IpmScratch* scratch) {
  IpmScratch local;
  return solve_barrier_impl(objective, DenseG{g}, h, x0, options,
                            scratch != nullptr ? *scratch : local);
}

IpmResult solve_barrier(const ConvexObjective& objective,
                        const SparseMatrix& g, const Vec& h, const Vec& x0,
                        const IpmOptions& options, IpmScratch* scratch) {
  IpmScratch local;
  return solve_barrier_impl(objective, SparseG{g}, h, x0, options,
                            scratch != nullptr ? *scratch : local);
}

void solve_barrier_batch(BarrierBatchItem* items, std::size_t count) {
  if (count == 0) return;
  const bool obs_on = obs::metrics_enabled();
  if (obs_on) batch_metrics().solves->inc(count);

  // Materialize a scratch per instance (owned when the caller passed none) so
  // the router can probe the sparse-structure signature in place.
  std::vector<std::unique_ptr<IpmScratch>> owned;
  std::vector<IpmScratch*> ws(count, nullptr);
  for (std::size_t i = 0; i < count; ++i) {
    if (items[i].scratch != nullptr) {
      ws[i] = items[i].scratch;
    } else {
      owned.push_back(std::make_unique<IpmScratch>());
      ws[i] = owned.back().get();
    }
  }

  // Route every instance. Sparse-path instances share one symbolic analysis
  // per structure signature (the donor's cache is copied — analysis is
  // structure-pure); dense-path instances group by dimension for lockstep.
  std::vector<std::size_t> sparse_items;
  std::unordered_map<std::uint64_t, std::size_t> donor_of;
  std::map<std::size_t, std::vector<std::size_t>> dense_by_n;
  for (std::size_t i = 0; i < count; ++i) {
    BarrierBatchItem& it = items[i];
    it.error.clear();
    it.result = IpmResult{};
    if (it.objective == nullptr || it.g == nullptr || it.h == nullptr ||
        it.x0 == nullptr) {
      it.error = "null field in BarrierBatchItem";
      it.result.detail = it.error;
      continue;
    }
    const std::size_t n = it.x0->size();
    bool use_sparse = false;
    try {
      std::uint64_t sig = 0;
      SparseNormalCache& c = ws[i]->normal;
      if (sparse_structure_signature(*it.objective, it.g, n, it.options, c,
                                     sig)) {
        if (c.valid && sig == c.signature) {
          use_sparse = c.use_sparse;
        } else if (const auto donor = donor_of.find(sig);
                   donor != donor_of.end()) {
          c = ws[donor->second]->normal;
          if (obs_on) batch_metrics().symbolic_adopted->inc();
          use_sparse = c.use_sparse;
        } else {
          use_sparse =
              prepare_sparse_normal(*it.objective, it.g, n, it.options, c);
          if (c.valid) donor_of.emplace(sig, i);
        }
      }
    } catch (const std::exception& e) {
      it.error = e.what();
      it.result.detail = it.error;
      continue;
    }
    if (use_sparse)
      sparse_items.push_back(i);
    else
      dense_by_n[n].push_back(i);
  }

  // One task per sparse instance (the serial solver reuses the primed cache)
  // plus one per dense lockstep chunk; everything fans out over the shared
  // pool. Chunking bounds the SoA arena and gives the pool units to balance;
  // per-instance results are bitwise independent of the chunking.
  constexpr std::size_t kMaxLanes = 64;
  std::vector<std::function<void()>> tasks;
  for (const std::size_t i : sparse_items) {
    tasks.push_back([&items, &ws, i] {
      BarrierBatchItem& it = items[i];
      try {
        it.result = solve_barrier(*it.objective, *it.g, *it.h, *it.x0,
                                  it.options, ws[i]);
      } catch (const std::exception& e) {
        it.error = e.what();
        it.result.status = SolveStatus::kNumericalError;
        it.result.detail = it.error;
      }
    });
  }
  std::vector<std::vector<std::size_t>> chunks;
  for (auto& [n, idxs] : dense_by_n) {
    for (std::size_t at = 0; at < idxs.size(); at += kMaxLanes) {
      const std::size_t len = std::min(kMaxLanes, idxs.size() - at);
      chunks.emplace_back(idxs.begin() + static_cast<std::ptrdiff_t>(at),
                          idxs.begin() + static_cast<std::ptrdiff_t>(at + len));
    }
  }
  for (const auto& chunk : chunks) {
    tasks.push_back([&items, &ws, &chunk, obs_on] {
      std::vector<BarrierBatchItem*> group;
      std::vector<IpmScratch*> group_ws;
      group.reserve(chunk.size());
      group_ws.reserve(chunk.size());
      for (const std::size_t i : chunk) {
        group.push_back(&items[i]);
        group_ws.push_back(ws[i]);
      }
      if (obs_on)
        batch_metrics().lockstep_instances->inc(
            static_cast<std::uint64_t>(group.size()));
      run_dense_lockstep(group.data(), group_ws.data(), group.size(),
                         group.front()->x0->size(), obs_on);
    });
  }
  util::parallel_for(
      0, tasks.size(), [&tasks](std::size_t k) { tasks[k](); }, 1,
      util::ForSchedule::kGuided);
}

}  // namespace sora::solver
