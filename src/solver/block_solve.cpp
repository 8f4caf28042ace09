#include "solver/block_solve.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace sora::solver {

void BlockBarrier::set_problem(linalg::SparseMatrix g, linalg::Vec h) {
  SORA_CHECK_MSG(g.rows() == h.size(), "block rhs/row mismatch");
  g_ = std::move(g);
  h_ = std::move(h);
  slack_buf_.assign(h_.size(), 0.0);
  has_last_ = false;
  scratch_.normal.valid = false;
}

double BlockBarrier::min_slack(const linalg::Vec& v) {
  g_.multiply_into(v, slack_buf_);
  double m = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < h_.size(); ++r)
    m = std::min(m, h_[r] - slack_buf_[r]);
  return m;
}

bool BlockBarrier::prepare(const linalg::Vec& anchor,
                           const BlockSolveOptions& options,
                           IpmOptions& effective, IpmResult& failure) {
  SORA_CHECK_MSG(anchor.size() == g_.cols(), "block anchor size mismatch");

  bool warm = false;
  if (options.warm_start && has_last_) {
    // Slack is affine in the blend factor, so pulling toward the interior
    // anchor monotonically recovers margin; escalate until strict.
    for (const double a : kWarmStartBlends) {
      start_.resize(anchor.size());
      for (std::size_t k = 0; k < anchor.size(); ++k)
        start_[k] = (1.0 - a) * last_opt_[k] + a * anchor[k];
      if (min_slack(start_) > 1e-9) {
        warm = true;
        break;
      }
    }
  }
  if (!warm) {
    if (min_slack(anchor) <= 0.0) {
      failure = IpmResult{};
      failure.status = SolveStatus::kNumericalError;
      failure.detail = "block anchor not strictly interior";
      return false;
    }
    start_ = anchor;
  }

  effective = options.ipm;
  if (warm) {
    // Near-optimal starts waste outer iterations re-climbing from t0; jump
    // the barrier multiplier so the first center is already within a modest
    // gap of the warm point (mirrors core/p2_subproblem).
    effective.t0 = std::max(effective.t0, static_cast<double>(g_.rows()) / 1e-2);
  }
  return true;
}

void BlockBarrier::commit(const IpmResult& result) {
  if (result.ok()) {
    last_opt_ = result.x;
    has_last_ = true;
  }
}

}  // namespace sora::solver
