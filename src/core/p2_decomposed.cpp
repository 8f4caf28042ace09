#include "core/p2_decomposed.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/cost.hpp"
#include "core/p2_subproblem.hpp"
#include "core/regularizer.hpp"
#include "obs/obs.hpp"
#include "solver/block_solve.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace sora::core {
namespace {

using linalg::SparseMatrix;

inline constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

// Handles resolved once; see Registry docs for the naming scheme.
struct AdmmMetrics {
  obs::Histogram* iterations;
  obs::Histogram* primal_residual;
  obs::Histogram* dual_residual;
  obs::Counter* block_solves;
  obs::Counter* stalls;
};

const AdmmMetrics& admm_metrics() {
  static const AdmmMetrics metrics = [] {
    auto& reg = obs::Registry::global();
    return AdmmMetrics{
        &reg.histogram("sora_admm_iterations", "iterations",
                       "Decomposed P2 iterations per slot solve",
                       obs::exponential_buckets(1.0, 2.0, 12)),
        &reg.histogram("sora_admm_primal_residual", "l2",
                       "Consensus primal residual at termination",
                       obs::exponential_buckets(1e-12, 10.0, 16)),
        &reg.histogram("sora_admm_dual_residual", "l2",
                       "Consensus dual residual at termination",
                       obs::exponential_buckets(1e-12, 10.0, 16)),
        &reg.counter("sora_admm_block_solves_total",
                     "Per-SLA-group barrier solves run by the decomposed path"),
        &reg.counter("sora_admm_stalls_total",
                     "Decomposed P2 solves that stalled and fell back"),
    };
  }();
  return metrics;
}

// The per-SLA-group objective: block-local terms of P2 plus the ADMM
// coupling surrogate on x, a quadratic pull toward `target` (the consensus
// point c - u). The tier-2 aggregate entropic itself lives OUTSIDE the
// blocks, in the consensus update.
//
// Local layout over the group's m edges: [x_k | y_k | s_k (| z_k)].
class BlockObjective final : public solver::ConvexObjective {
 public:
  BlockObjective(const Instance& inst, std::vector<std::size_t> edges,
                 double eps, double eps_prime)
      : with_z_(inst.has_tier1()), m_(edges.size()), edges_(std::move(edges)),
        eps_(eps), eps_prime_(eps_prime) {
    price_x_.assign(m_, 0.0);
    target_.assign(m_, 0.0);
    price_y_.assign(m_, 0.0);
    y_weight_.assign(m_, 0.0);
    prev_y_.assign(m_, 0.0);
    for (std::size_t k = 0; k < m_; ++k) {
      const std::size_t e = edges_[k];
      price_y_[k] = inst.edge_price[e];
      const double eta = regularizer_eta(inst.edge_capacity[e], eps_prime);
      y_weight_[k] = eta > 0.0 ? inst.edge_reconfig[e] / eta : 0.0;
    }
    if (with_z_) {
      const std::size_t j = inst.edges[edges_[0]].tier1;
      const double eta = regularizer_eta(inst.tier1_capacity[j], eps);
      z_weight_ = eta > 0.0 ? inst.tier1_reconfig[j] / eta : 0.0;
      price_z_.assign(m_, 0.0);
    }
  }

  std::size_t x(std::size_t k) const { return k; }
  std::size_t y(std::size_t k) const { return m_ + k; }
  std::size_t s(std::size_t k) const { return 2 * m_ + k; }
  std::size_t z(std::size_t k) const { return 3 * m_ + k; }
  std::size_t size() const { return (with_z_ ? 4 : 3) * m_; }

  void begin_slot(const Instance& inst, const SlotInputs& in,
                  const Allocation& prev) {
    for (std::size_t k = 0; k < m_; ++k) {
      const std::size_t e = edges_[k];
      price_x_[k] = in.price(inst.edges[e].tier2);
      prev_y_[k] = prev.y[e];
    }
    if (with_z_) {
      prev_zsum_ = 0.0;
      const std::size_t j = inst.edges[edges_[0]].tier1;
      for (std::size_t k = 0; k < m_; ++k) {
        price_z_[k] = in.t1_price(j);
        prev_zsum_ += prev.z[edges_[k]];
      }
    }
  }

  void set_penalty(double penalty) { penalty_ = penalty; }
  Vec& mutable_target() { return target_; }

  double value(const Vec& v) const override {
    double total = 0.0;
    for (std::size_t k = 0; k < m_; ++k) {
      const double d = v[x(k)] - target_[k];
      total += price_x_[k] * v[x(k)] +
               0.5 * penalty_ * d * d + price_y_[k] * v[y(k)] +
               y_weight_[k] * entropic_value(v[y(k)], prev_y_[k], eps_prime_);
    }
    if (with_z_) {
      double zsum = 0.0;
      for (std::size_t k = 0; k < m_; ++k) {
        total += price_z_[k] * v[z(k)];
        zsum += v[z(k)];
      }
      total += z_weight_ * entropic_value(zsum, prev_zsum_, eps_);
    }
    return total;
  }

  Vec gradient(const Vec& v) const override {
    Vec g(size(), 0.0);
    gradient_into(v, g);
    return g;
  }

  void gradient_into(const Vec& v, Vec& g) const override {
    for (std::size_t k = 0; k < m_; ++k) {
      g[x(k)] = price_x_[k] + penalty_ * (v[x(k)] - target_[k]);
      g[y(k)] = price_y_[k] + y_weight_[k] * entropic_gradient(
                                                 v[y(k)], prev_y_[k],
                                                 eps_prime_);
      g[s(k)] = 0.0;
    }
    if (with_z_) {
      double zsum = 0.0;
      for (std::size_t k = 0; k < m_; ++k) zsum += v[z(k)];
      const double zg =
          z_weight_ * entropic_gradient(zsum, prev_zsum_, eps_);
      for (std::size_t k = 0; k < m_; ++k) g[z(k)] = price_z_[k] + zg;
    }
  }

  linalg::Matrix hessian(const Vec& v) const override {
    linalg::Matrix h(size(), size(), 0.0);
    hessian_into(v, h);
    return h;
  }

  void hessian_into(const Vec& v, linalg::Matrix& h) const override {
    for (std::size_t r = 0; r < h.rows(); ++r) {
      double* row = h.row_ptr(r);
      std::fill(row, row + h.cols(), 0.0);
    }
    for (std::size_t k = 0; k < m_; ++k) {
      h(x(k), x(k)) = penalty_;
      h(y(k), y(k)) =
          y_weight_[k] * entropic_hessian(v[y(k)], eps_prime_);
    }
    if (with_z_) {
      double zsum = 0.0;
      for (std::size_t k = 0; k < m_; ++k) zsum += v[z(k)];
      const double c = z_weight_ * entropic_hessian(zsum, eps_);
      for (std::size_t a = 0; a < m_; ++a)
        for (std::size_t b = 0; b < m_; ++b) h(z(a), z(b)) = c;
    }
  }

  // Sparse-Hessian interface so big SLA groups still take the IPM's sparse
  // normal-equations path: x and y diagonals plus one dense lower block
  // over the group's z variables. Pattern fixed; values move per solve.
  bool hessian_lower_structure(
      std::vector<linalg::Triplet>& pattern) const override {
    for (std::size_t k = 0; k < m_; ++k) {
      pattern.push_back({x(k), x(k), 0.0});
      pattern.push_back({y(k), y(k), 0.0});
    }
    if (with_z_)
      for (std::size_t a = 0; a < m_; ++a)
        for (std::size_t b = 0; b <= a; ++b)
          pattern.push_back({z(a), z(b), 0.0});
    return true;
  }

  void hessian_lower_values_into(const Vec& v, Vec& values) const override {
    std::size_t n = 0;
    for (std::size_t k = 0; k < m_; ++k) {
      values[n++] = penalty_;
      values[n++] = y_weight_[k] * entropic_hessian(v[y(k)], eps_prime_);
    }
    if (with_z_) {
      double zsum = 0.0;
      for (std::size_t k = 0; k < m_; ++k) zsum += v[z(k)];
      const double c = z_weight_ * entropic_hessian(zsum, eps_);
      for (std::size_t p = 0; p < m_ * (m_ + 1) / 2; ++p) values[n++] = c;
    }
    SORA_DCHECK(n == values.size());
  }

 private:
  bool with_z_;
  std::size_t m_;
  std::vector<std::size_t> edges_;
  double eps_, eps_prime_;
  double penalty_ = 0.0;
  double z_weight_ = 0.0, prev_zsum_ = 0.0;
  Vec price_x_, target_, price_y_, y_weight_, prev_y_, price_z_;
};

// minimize w * entropic(S | prev, eps) + (q/2) (S - center)^2 over
// S in [0, cap]. Strictly convex and smooth; safeguarded Newton.
double solve_aggregate_1d(double w, double prev, double eps, double q,
                          double center, double cap) {
  if (cap <= 0.0) return 0.0;
  const auto dphi = [&](double S) {
    return w * entropic_gradient(S, prev, eps) + q * (S - center);
  };
  if (dphi(0.0) >= 0.0) return 0.0;
  if (dphi(cap) <= 0.0) return cap;
  double lo = 0.0, hi = cap;
  double S = std::clamp(center, 0.0, cap);
  for (std::size_t it = 0; it < 64; ++it) {
    const double d = dphi(S);
    if (d > 0.0) {
      hi = S;
    } else {
      lo = S;
    }
    const double dd = w * entropic_hessian(S, eps) + q;
    double next = S - d / dd;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::abs(next - S) <= 1e-13 * std::max(1.0, cap)) return next;
    S = next;
  }
  return S;
}

double norm2(const Vec& v) {
  double s = 0.0;
  for (const double x : v) s += x * x;
  return std::sqrt(s);
}

double norm2_diff(const Vec& a, const Vec& b) {
  double s = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double d = a[k] - b[k];
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace

bool decomposition_selected(const Instance& inst,
                            const DecompositionOptions& options) {
  switch (options.mode) {
    case DecompositionOptions::Mode::kOff:
      return false;
    case DecompositionOptions::Mode::kForce:
      return inst.num_tier1() >= 1 && inst.num_edges() >= 1;
    case DecompositionOptions::Mode::kAuto:
      return inst.num_edges() >= options.min_edges &&
             inst.num_tier1() >= options.min_blocks;
  }
  return false;
}

// ---------------------------------------------------------------------------
// P2DecomposedSolver

struct P2DecomposedSolver::Impl {
  // One block per tier-1 site with admissible edges: the group's barrier
  // (structure-once constraints + symbolic cache + warm start), objective,
  // row bookkeeping for dual recovery, and per-iteration result slots.
  // Blocks are touched exclusively by their own fan-out index, so the
  // parallel block loop is deterministic under any thread count.
  struct Block {
    std::size_t j = 0;
    std::vector<std::size_t> edges;
    solver::BlockBarrier barrier;
    std::unique_ptr<BlockObjective> objective;
    std::vector<std::size_t> rho_row, phi_row, sigma_row;
    std::size_t gamma_row = kNoRow;
    Vec h_static;
    Vec anchor;
    Vec local;  // last accepted local optimum [x|y|s(|z)]
    Vec ineq_dual;
    std::size_t newton_steps = 0;
    bool failed = false;
    std::string fail_detail;
  };

  const Instance& inst;
  RoaOptions options;
  bool with_z;
  std::size_t E;
  std::vector<Block> blocks;
  std::vector<std::size_t> block_of_edge;  // edge -> index into blocks

  // Tier-2 coupling data: entropic weight b_i/eta_i, capacity, incident
  // edge count, and the per-slot previous aggregate.
  Vec cloud_weight, cloud_cap, prev_totals;

  // Consensus ADMM state (u is rescaled with every rho change).
  Vec consensus, u, x_cur, c_prev;
  double rho_pen = 1.0;

  Impl(const Instance& inst_, const RoaOptions& options_)
      : inst(inst_), options(options_), with_z(inst_.has_tier1()),
        E(inst_.num_edges()) {
    block_of_edge.assign(E, kNoRow);
    blocks.reserve(inst.num_tier1());
    for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
      if (inst.edges_of_tier1[j].empty()) continue;
      blocks.emplace_back();
      Block& b = blocks.back();
      b.j = j;
      b.edges = inst.edges_of_tier1[j];
      for (std::size_t k = 0; k < b.edges.size(); ++k)
        block_of_edge[b.edges[k]] = blocks.size() - 1;
      b.objective = std::make_unique<BlockObjective>(
          inst, b.edges, options.eps, options.eps_prime);
      build_block_constraints(b);
    }
    cloud_weight.assign(inst.num_tier2(), 0.0);
    cloud_cap.assign(inst.num_tier2(), 0.0);
    for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
      const double eta = regularizer_eta(inst.tier2_capacity[i], options.eps);
      cloud_weight[i] = eta > 0.0 ? inst.tier2_reconfig[i] / eta : 0.0;
      cloud_cap[i] = inst.tier2_capacity[i];
    }
    prev_totals.assign(inst.num_tier2(), 0.0);
    consensus.assign(E, 0.0);
    u.assign(E, 0.0);
    x_cur.assign(E, 0.0);
    c_prev.assign(E, 0.0);
  }

  // Block polyhedron over the local [x|y|s(|z)] layout: (3a)/(3b), the
  // group's coverage row (3c), nonnegativity, the edge capacities y <= B_e,
  // the per-edge relaxation x_e <= C_i of the tier-2 capacity row (valid
  // for the global polyhedron, keeps block iterates physical and bounded),
  // and with a tier-1 term s <= z, z >= 0, sum z <= C'_j — block-local
  // because the group owns all of site j's edges. The relaxed coupling rows
  // sum_{e in i} x <= C_i are NOT generated here; consensus / restoration
  // owns them. Like the monolithic P2, the block carries no transfer rows
  // (3d)/(3e): they are sums of (3a)-(3c) and the capacity rows.
  void build_block_constraints(Block& b) {
    const std::size_t m = b.edges.size();
    const BlockObjective& L = *b.objective;
    std::vector<linalg::Triplet> trips;
    b.h_static.clear();
    std::size_t r = 0;
    b.rho_row.assign(m, kNoRow);
    b.phi_row.assign(m, kNoRow);
    b.sigma_row.assign(m, kNoRow);

    for (std::size_t k = 0; k < m; ++k) {
      b.rho_row[k] = r;
      trips.push_back({r, L.s(k), 1.0});
      trips.push_back({r, L.x(k), -1.0});
      b.h_static.push_back(0.0);
      ++r;
      b.phi_row[k] = r;
      trips.push_back({r, L.s(k), 1.0});
      trips.push_back({r, L.y(k), -1.0});
      b.h_static.push_back(0.0);
      ++r;
    }
    b.gamma_row = r;
    for (std::size_t k = 0; k < m; ++k) trips.push_back({r, L.s(k), -1.0});
    b.h_static.push_back(0.0);  // patched to -lambda_j per slot
    ++r;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t e = b.edges[k];
      trips.push_back({r, L.x(k), -1.0});
      b.h_static.push_back(0.0);
      ++r;
      trips.push_back({r, L.y(k), -1.0});
      b.h_static.push_back(0.0);
      ++r;
      trips.push_back({r, L.s(k), -1.0});
      b.h_static.push_back(0.0);
      ++r;
      trips.push_back({r, L.y(k), 1.0});
      b.h_static.push_back(inst.edge_capacity[e]);
      ++r;
      trips.push_back({r, L.x(k), 1.0});
      b.h_static.push_back(inst.tier2_capacity[inst.edges[e].tier2]);
      ++r;
    }
    if (with_z) {
      for (std::size_t k = 0; k < m; ++k) {
        b.sigma_row[k] = r;
        trips.push_back({r, L.s(k), 1.0});
        trips.push_back({r, L.z(k), -1.0});
        b.h_static.push_back(0.0);
        ++r;
        trips.push_back({r, L.z(k), -1.0});
        b.h_static.push_back(0.0);
        ++r;
      }
      for (std::size_t k = 0; k < m; ++k) trips.push_back({r, L.z(k), 1.0});
      b.h_static.push_back(inst.tier1_capacity[b.j]);
      ++r;
    }
    b.barrier.set_problem(
        SparseMatrix::from_triplets(r, L.size(), std::move(trips)),
        b.h_static);
  }

  // Per-slot patching of one block: coverage rhs, objective prices /
  // previous decision, and the even-split anchor.
  void patch_block_slot(Block& b, const SlotInputs& in,
                        const Allocation& prev) {
    const std::size_t m = b.edges.size();
    const BlockObjective& L = *b.objective;
    const double lambda = in.lambda(b.j);
    Vec& h = b.barrier.mutable_rhs();
    h = b.h_static;
    h[b.gamma_row] = -lambda;
    b.objective->begin_slot(inst, in, prev);

    const double split = lambda / static_cast<double>(m);
    b.anchor.assign(L.size(), 0.0);
    for (std::size_t k = 0; k < m; ++k) {
      b.anchor[L.s(k)] = split * 1.01 + 1e-7;
      b.anchor[L.x(k)] = split * 1.02 + 2e-7;
      b.anchor[L.y(k)] = split * 1.02 + 2e-7;
      if (with_z) b.anchor[L.z(k)] = split * 1.02 + 2e-7;
    }
  }

  solver::BlockSolveOptions block_solve_options() const {
    solver::BlockSolveOptions opts;
    opts.ipm = options.ipm;
    opts.warm_start = options.warm_start;
    return opts;
  }

  // Accounting, failure capture, and acceptance of one block's barrier
  // result.
  void record_block_result(Block& b, const solver::IpmResult& result) {
    if (obs::metrics_enabled()) admm_metrics().block_solves->inc();
    b.newton_steps += result.newton_steps;
    if (!result.ok()) {
      b.failed = true;
      b.fail_detail = "block " + std::to_string(b.j) + ": " +
                      (result.detail.empty() ? solver::to_string(result.status)
                                             : result.detail);
      return;
    }
    for (const double v : result.x)
      if (!std::isfinite(v)) {
        b.failed = true;
        b.fail_detail =
            "block " + std::to_string(b.j) + ": non-finite solution";
        return;
      }
    b.local = result.x;
    b.ineq_dual = result.ineq_dual;
  }

  // One round of block solves with the current coupling surrogate already
  // written into each objective: stage every block via
  // BlockBarrier::prepare, solve them all with one solve_barrier_batch call
  // (same-dimension dense Newton systems factor in lockstep across blocks,
  // chunks spread over the shared pool), then record each block's result.
  // Never throws; returns false with the first failed block's detail.
  bool run_blocks(std::string& detail) {
    SORA_TRACE_SPAN("admm/block_batch");
    const solver::BlockSolveOptions opts = block_solve_options();
    std::vector<solver::BarrierBatchItem> items;
    std::vector<Block*> staged;
    items.reserve(blocks.size());
    staged.reserve(blocks.size());
    for (Block& b : blocks) {
      try {
        solver::IpmOptions effective;
        solver::IpmResult failure;
        if (!b.barrier.prepare(b.anchor, opts, effective, failure)) {
          record_block_result(b, failure);
          continue;
        }
        solver::BarrierBatchItem item;
        item.objective = b.objective.get();
        item.g = &b.barrier.constraints();
        item.h = &b.barrier.rhs();
        item.x0 = &b.barrier.start();
        item.options = effective;
        item.scratch = b.barrier.scratch();
        items.push_back(std::move(item));
        staged.push_back(&b);
      } catch (const std::exception& e) {
        b.failed = true;
        b.fail_detail = "block " + std::to_string(b.j) + ": " + e.what();
      }
    }
    solver::solve_barrier_batch(items.data(), items.size());
    for (std::size_t i = 0; i < staged.size(); ++i) {
      Block& b = *staged[i];
      const solver::BarrierBatchItem& item = items[i];
      if (!item.error.empty()) {
        b.failed = true;
        b.fail_detail = "block " + std::to_string(b.j) + ": " + item.error;
        continue;
      }
      b.barrier.commit(item.result);
      record_block_result(b, item.result);
    }
    for (const Block& b : blocks)
      if (b.failed) {
        detail = b.fail_detail;
        return false;
      }
    return true;
  }

  // Pull each block's x into the global x_cur (per-edge slots; serial).
  void gather_x() {
    for (const Block& b : blocks) {
      const BlockObjective& L = *b.objective;
      for (std::size_t k = 0; k < b.edges.size(); ++k)
        x_cur[b.edges[k]] = b.local[L.x(k)];
    }
  }

  // The consensus step: per tier-2 cloud, the coupling objective
  //   w_i entropic(S | prevX_i) + indicator{0 <= S <= C_i}
  // depends on the copies only through their aggregate S, so the quadratic
  // proximal splits into a 1-D solve over S followed by an even
  // distribution of the gap back onto the cloud's edges.
  void consensus_update() {
    for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
      const auto& ids = inst.edges_of_tier2[i];
      if (ids.empty()) continue;
      const double n = static_cast<double>(ids.size());
      double a = 0.0;
      for (const std::size_t e : ids) a += x_cur[e] + u[e];
      const double S =
          solve_aggregate_1d(cloud_weight[i], prev_totals[i], options.eps,
                             rho_pen / n, a, cloud_cap[i]);
      const double shift = (S - a) / n;
      for (const std::size_t e : ids)
        consensus[e] = x_cur[e] + u[e] + shift;
    }
  }

  // -------------------------------------------------------------------------
  // Consensus ADMM main loop.
  bool solve_admm(DecomposedResult& out, std::string& detail) {
    const DecompositionOptions& dec = options.decomposition;
    const double sqrt_e = std::sqrt(static_cast<double>(E));

    // Curvature-matched penalty: the coupling the consensus step carries is
    // the tier-2 entropic, whose per-edge curvature near the previous
    // aggregate is w_i * entropic_hessian(X_i). A rho on that scale keeps
    // the x-update and the consensus prox equally stiff; starting at rho = 1
    // instead costs dozens of factor-2 balancing steps per slot (and lets a
    // mis-scaled warm start pin the iterates). Geometric mean
    // across clouds, evaluated no lower than a quarter of capacity so the
    // zero-allocation first slot does not blow the estimate up.
    double log_sum = 0.0;
    std::size_t curv_n = 0;
    for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
      if (inst.edges_of_tier2[i].empty() || cloud_weight[i] <= 0.0) continue;
      const double at = std::max(prev_totals[i], 0.25 * cloud_cap[i]);
      const double curv = cloud_weight[i] * entropic_hessian(at, options.eps);
      if (curv > 0.0 && std::isfinite(curv)) {
        log_sum += std::log(curv);
        ++curv_n;
      }
    }
    rho_pen =
        curv_n > 0 ? std::clamp(std::exp(log_sum / curv_n), 1e-4, 1e6) : 1.0;

    double r_norm = 0.0, s_norm = 0.0;
    bool converged = false;
    std::size_t iter = 0;
    for (; iter < dec.max_iterations; ++iter) {
      SORA_TRACE_SPAN("admm/iteration");
      for (Block& b : blocks) {
        BlockObjective& L = *b.objective;
        L.set_penalty(rho_pen);
        Vec& target = L.mutable_target();
        for (std::size_t k = 0; k < b.edges.size(); ++k)
          target[k] = consensus[b.edges[k]] - u[b.edges[k]];
      }
      if (!run_blocks(detail)) return false;
      gather_x();

      // No over-relaxation: alpha > 1 sped up cold solves slightly but
      // amplified the slot-to-slot perturbation of the consensus/dual state;
      // on capacity-tight instances it slammed the aggregates into their
      // bounds and wiped out the warm start (docs/SOLVERS.md).
      c_prev = consensus;
      consensus_update();
      for (std::size_t e = 0; e < E; ++e) u[e] += x_cur[e] - consensus[e];

      r_norm = norm2_diff(x_cur, consensus);
      s_norm = rho_pen * norm2_diff(consensus, c_prev);
      const double eps_pri =
          sqrt_e * dec.eps_abs +
          dec.eps_rel * std::max(norm2(x_cur), norm2(consensus));
      const double eps_dual =
          sqrt_e * dec.eps_abs + dec.eps_rel * rho_pen * norm2(u);
      if (r_norm <= eps_pri && s_norm <= eps_dual) {
        ++iter;
        converged = true;
        break;
      }

      // Residual balancing (Boyd sec. 3.4.1) with a factor-5 trigger — the
      // canonical factor 10 lets a mis-scaled rho pin near-boundary iterates
      // for dozens of iterations before firing. The scaled duals u = y/rho
      // must be rescaled with rho.
      if (r_norm > 5.0 * s_norm && rho_pen < 1e8) {
        rho_pen *= 2.0;
        for (double& v : u) v *= 0.5;
      } else if (s_norm > 5.0 * r_norm && rho_pen > 1e-8) {
        rho_pen *= 0.5;
        for (double& v : u) v *= 2.0;
      }
    }

    out.iterations = iter;
    out.primal_residual = r_norm;
    out.dual_residual = s_norm;
    if (!converged) {
      detail = "admm stalled after " + std::to_string(iter) +
               " iterations (r=" + std::to_string(r_norm) +
               ", s=" + std::to_string(s_norm) + ")";
      return false;
    }
    return true;
  }

  // -------------------------------------------------------------------------
  // Feasibility restoration: the block points satisfy every block-local
  // constraint exactly; only the relaxed tier-2 capacity rows can be
  // (slightly) violated at termination. Scale each over-capacity cloud's x
  // down, re-tighten s = min(s, x, y[, z]), then repair any coverage
  // shortfall greedily from remaining headroom. Returns false when the
  // shortfall cannot be closed (caller demotes to the monolithic chain).
  bool restore_feasibility(const SlotInputs& in, Vec& x, Vec& y, Vec& s,
                           Vec& z, std::string& detail) {
    Vec totals(inst.num_tier2(), 0.0);
    for (std::size_t e = 0; e < E; ++e) totals[inst.edges[e].tier2] += x[e];
    for (std::size_t i = 0; i < inst.num_tier2(); ++i) {
      if (totals[i] <= cloud_cap[i] || totals[i] <= 0.0) continue;
      const double scale = cloud_cap[i] / totals[i];
      for (const std::size_t e : inst.edges_of_tier2[i]) x[e] *= scale;
      totals[i] = cloud_cap[i];
    }
    for (std::size_t e = 0; e < E; ++e) {
      double cap = std::min(x[e], y[e]);
      if (with_z) cap = std::min(cap, z[e]);
      s[e] = std::min(s[e], cap);
    }

    Vec t1_totals(with_z ? inst.num_tier1() : 0, 0.0);
    if (with_z)
      for (std::size_t e = 0; e < E; ++e)
        t1_totals[inst.edges[e].tier1] += z[e];

    for (const Block& b : blocks) {
      const double lambda = in.lambda(b.j);
      double served = 0.0;
      for (const std::size_t e : b.edges) served += s[e];
      double short_by = lambda - served;
      if (short_by <= 1e-12 * std::max(1.0, lambda)) continue;
      for (const std::size_t e : b.edges) {
        if (short_by <= 0.0) break;
        const std::size_t i = inst.edges[e].tier2;
        double room = std::min((x[e] - s[e]) +
                                   std::max(0.0, cloud_cap[i] - totals[i]),
                               inst.edge_capacity[e] - s[e]);
        if (with_z)
          room = std::min(room,
                          (z[e] - s[e]) +
                              std::max(0.0, inst.tier1_capacity[b.j] -
                                                t1_totals[b.j]));
        const double d = std::min(short_by, std::max(0.0, room));
        if (d <= 0.0) continue;
        const double target = s[e] + d;
        if (x[e] < target) {
          totals[i] += target - x[e];
          x[e] = target;
        }
        y[e] = std::max(y[e], target);
        if (with_z && z[e] < target) {
          t1_totals[b.j] += target - z[e];
          z[e] = target;
        }
        s[e] = target;
        short_by -= d;
      }
      if (short_by > 1e-9 * std::max(1.0, lambda)) {
        detail = "coverage repair failed for site " + std::to_string(b.j) +
                 " (short by " + std::to_string(short_by) + ")";
        return false;
      }
    }
    return true;
  }

  /// Forensic record for a decomposed-solve stall (before the demotion to
  /// the monolithic chain, so the flight recorder keeps the ADMM residual
  /// trail even when the fallback later succeeds).
  void record_stall(std::size_t t, const DecomposedResult& out,
                    const std::string& detail, const char* status) {
    obs::FlightRecord rec;
    rec.context = "p2_admm";
    rec.slot = t;
    rec.backend = "decomposed_admm";
    rec.status = status;
    rec.iterations = out.iterations;
    rec.detail = detail + " (primal " + std::to_string(out.primal_residual) +
                 ", dual " + std::to_string(out.dual_residual) + ")";
    rec.anomaly = obs::Anomaly::kIterationLimit;
    obs::FlightRecorder::global().record(std::move(rec));
  }

  bool solve(const SlotInputs& in, const Allocation& prev,
             DecomposedResult& out, std::string& detail) {
    SORA_TRACE_SPAN("admm/slot");
    const std::size_t t = in.slot;  // attribution only

    // A site with positive demand and no admissible edges makes P2
    // infeasible; hand the slot to the monolithic path, which reports it
    // with the canonical error.
    for (std::size_t j = 0; j < inst.num_tier1(); ++j)
      if (inst.edges_of_tier1[j].empty() && in.lambda(j) > 0.0) {
        detail = "site " + std::to_string(j) + " has demand but no edges";
        return false;
      }

    std::fill(prev_totals.begin(), prev_totals.end(), 0.0);
    for (std::size_t e = 0; e < E; ++e)
      prev_totals[inst.edges[e].tier2] += std::max(0.0, prev.x[e]);
    for (Block& b : blocks) {
      patch_block_slot(b, in, prev);
      b.newton_steps = 0;
      b.failed = false;
    }
    // Fresh consensus state every slot (only the per-block barrier warm
    // starts carry over). Carrying the converged (c, u) pair across slots
    // looks like the natural ADMM warm start, but the slot change (demand,
    // prices, entropic centers) perturbs it into a near-stationary
    // disagreement that takes hundreds of iterations to unwind — while
    // consensus = previous decision with zero duals converges in a fraction
    // of a cold solve. The previous decision is lifted to at least the
    // even-split coverage share so the first block targets do not pull x
    // toward zero on slot 0 (prev = zeros there).
    for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
      const auto& ids = inst.edges_of_tier1[j];
      if (ids.empty()) continue;
      const double share = in.lambda(j) / static_cast<double>(ids.size());
      for (const std::size_t e : ids) {
        consensus[e] = std::max(std::max(0.0, prev.x[e]), share);
        x_cur[e] = consensus[e];
        u[e] = 0.0;
      }
    }

    const bool ok = solve_admm(out, detail);

    out.newton_steps = 0;
    for (const Block& b : blocks) out.newton_steps += b.newton_steps;
    if (obs::metrics_enabled()) {
      const AdmmMetrics& m = admm_metrics();
      m.iterations->observe(static_cast<double>(out.iterations));
      m.primal_residual->observe(out.primal_residual);
      m.dual_residual->observe(out.dual_residual);
      if (!ok) m.stalls->inc();
    }
    if (!ok) {
      record_stall(t, out, detail, "stall");
      return false;
    }

    // Assemble the global point from the block optima and restore the
    // relaxed rows.
    Vec x(E, 0.0), y(E, 0.0), s(E, 0.0), z(with_z ? E : 0, 0.0);
    for (const Block& b : blocks) {
      const BlockObjective& L = *b.objective;
      for (std::size_t k = 0; k < b.edges.size(); ++k) {
        const std::size_t e = b.edges[k];
        x[e] = std::max(0.0, b.local[L.x(k)]);
        y[e] = std::max(0.0, b.local[L.y(k)]);
        s[e] = std::max(0.0, b.local[L.s(k)]);
        if (with_z) z[e] = std::max(0.0, b.local[L.z(k)]);
      }
    }
    if (!restore_feasibility(in, x, y, s, z, detail)) {
      if (obs::metrics_enabled()) admm_metrics().stalls->inc();
      record_stall(t, out, detail, "restore_infeasible");
      return false;
    }

    const std::size_t stride = E;
    out.packed.assign((with_z ? 4 : 3) * stride, 0.0);
    for (std::size_t e = 0; e < E; ++e) {
      out.packed[e] = x[e];
      out.packed[stride + e] = y[e];
      out.packed[2 * stride + e] = s[e];
      if (with_z) out.packed[3 * stride + e] = z[e];
    }

    // Named multipliers from the final block solves. These constraints are
    // block-local, so at consensus the block KKT system matches the global
    // one.
    out.rho.assign(E, 0.0);
    out.phi.assign(E, 0.0);
    out.sigma.assign(E, 0.0);
    out.gamma.assign(inst.num_tier1(), 0.0);
    for (const Block& b : blocks) {
      if (b.ineq_dual.empty()) continue;
      for (std::size_t k = 0; k < b.edges.size(); ++k) {
        const std::size_t e = b.edges[k];
        out.rho[e] = b.ineq_dual[b.rho_row[k]];
        out.phi[e] = b.ineq_dual[b.phi_row[k]];
        if (with_z) out.sigma[e] = b.ineq_dual[b.sigma_row[k]];
      }
      out.gamma[b.j] = b.ineq_dual[b.gamma_row];
    }
    return true;
  }

  void reset_warm_start() {
    for (Block& b : blocks) b.barrier.reset_warm_start();
  }
};

P2DecomposedSolver::P2DecomposedSolver(const Instance& inst,
                                       const RoaOptions& options)
    : impl_(std::make_unique<Impl>(inst, options)) {}

P2DecomposedSolver::~P2DecomposedSolver() = default;

bool P2DecomposedSolver::solve(const SlotInputs& in, const Allocation& prev,
                               DecomposedResult& out, std::string& detail) {
  return impl_->solve(in, prev, out, detail);
}

void P2DecomposedSolver::reset_warm_start() { impl_->reset_warm_start(); }

}  // namespace sora::core
