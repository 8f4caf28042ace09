#include "core/p1_model.hpp"

#include <string>
#include <utility>

#include "core/cost.hpp"
#include "core/resilience.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace sora::core {
namespace {

using solver::kInf;
using solver::LinTerm;
using solver::LpBuilder;

}  // namespace

// Variable layout per relative slot: [x_e | y_e | s_e | u_i | w_e].
P1WindowLp::P1WindowLp(const Instance& inst, const InputSeries& inputs,
                       std::size_t t_begin, std::size_t t_end,
                       const Allocation& prev, const Allocation* terminal) {
  SORA_CHECK(t_begin < t_end && t_end <= inst.horizon);
  SORA_CHECK(prev.x.size() == inst.num_edges());
  window_ = t_end - t_begin;
  num_edges_ = inst.num_edges();
  num_tier2_ = inst.num_tier2();
  num_tier1_ = inst.num_tier1();
  with_z_ = inst.has_tier1();
  const std::size_t num_i = num_tier2_;
  // Layout per slot: [x | y | s | u | w]  (+ [z | v] with the tier-1 term).
  stride_ = 3 * num_edges_ + num_i + num_edges_ +
            (with_z_ ? num_edges_ + num_tier1_ : 0);

  LpBuilder b;
  // ---- Variables.
  for (std::size_t rel = 0; rel < window_; ++rel) {
    const bool pinned = terminal != nullptr && rel == window_ - 1;
    const std::string suffix = "@" + std::to_string(t_begin + rel);
    for (std::size_t e = 0; e < num_edges_; ++e) {
      const double fix = pinned ? terminal->x[e] : -1.0;
      b.add_variable(pinned ? fix : 0.0, pinned ? fix : kInf, 0.0,
                     "x" + std::to_string(e) + suffix);
    }
    for (std::size_t e = 0; e < num_edges_; ++e) {
      const double fix = pinned ? terminal->y[e] : -1.0;
      b.add_variable(pinned ? fix : 0.0,
                     pinned ? fix : inst.edge_capacity[e], 0.0,
                     "y" + std::to_string(e) + suffix);
    }
    for (std::size_t e = 0; e < num_edges_; ++e)
      b.add_variable(0.0, kInf, 0.0, "s" + std::to_string(e) + suffix);
    for (std::size_t i = 0; i < num_i; ++i)
      b.add_variable(0.0, kInf, inst.tier2_reconfig[i],
                     "u" + std::to_string(i) + suffix);
    for (std::size_t e = 0; e < num_edges_; ++e)
      b.add_variable(0.0, kInf, inst.edge_reconfig[e],
                     "w" + std::to_string(e) + suffix);
    if (with_z_) {
      for (std::size_t e = 0; e < num_edges_; ++e) {
        const double fix = pinned ? terminal->z[e] : -1.0;
        b.add_variable(pinned ? fix : 0.0, pinned ? fix : kInf, 0.0,
                       "z" + std::to_string(e) + suffix);
      }
      for (std::size_t j = 0; j < num_tier1_; ++j)
        b.add_variable(0.0, kInf, inst.tier1_reconfig[j],
                       "v" + std::to_string(j) + suffix);
    }
  }

  // ---- Allocation costs.
  for (std::size_t rel = 0; rel < window_; ++rel) {
    const std::size_t t = t_begin + rel;
    for (std::size_t e = 0; e < num_edges_; ++e) {
      b.add_cost(x_index(rel, e), inputs.price(t, inst.edges[e].tier2));
      b.add_cost(y_index(rel, e), inst.edge_price[e]);
      if (with_z_)
        b.add_cost(z_index(rel, e), inst.tier1_price[t][inst.edges[e].tier1]);
    }
  }

  // ---- Per-slot constraints.
  const Vec prev_totals = tier2_totals(inst, prev.x);
  for (std::size_t rel = 0; rel < window_; ++rel) {
    const std::size_t t = t_begin + rel;
    // Coverage (2a), (2b), (2d): x >= s, y >= s, sum_{e in j} s >= lambda.
    for (std::size_t e = 0; e < num_edges_; ++e) {
      b.add_ge({{x_index(rel, e), 1.0}, {s_index(rel, e), -1.0}}, 0.0);
      b.add_ge({{y_index(rel, e), 1.0}, {s_index(rel, e), -1.0}}, 0.0);
    }
    for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
      std::vector<LinTerm> terms;
      terms.reserve(inst.edges_of_tier1[j].size());
      for (const std::size_t e : inst.edges_of_tier1[j])
        terms.push_back({s_index(rel, e), 1.0});
      b.add_ge(terms, inputs.lambda(t, j));
    }
    // Tier-2 capacity (1b).
    for (std::size_t i = 0; i < num_i; ++i) {
      std::vector<LinTerm> terms;
      terms.reserve(inst.edges_of_tier2[i].size());
      for (const std::size_t e : inst.edges_of_tier2[i])
        terms.push_back({x_index(rel, e), 1.0});
      if (!terms.empty()) b.add_le(terms, inst.tier2_capacity[i]);
    }
    // Reconfiguration linking: u_i >= X_i(rel) - X_i(rel-1).
    for (std::size_t i = 0; i < num_i; ++i) {
      std::vector<LinTerm> terms;
      terms.push_back({u_index_(rel, i), 1.0});
      for (const std::size_t e : inst.edges_of_tier2[i]) {
        terms.push_back({x_index(rel, e), -1.0});
        if (rel > 0) terms.push_back({x_index(rel - 1, e), 1.0});
      }
      b.add_ge(terms, rel > 0 ? 0.0 : -prev_totals[i]);
    }
    // w_e >= y_e(rel) - y_e(rel-1).
    for (std::size_t e = 0; e < num_edges_; ++e) {
      std::vector<LinTerm> terms{{w_index_(rel, e), 1.0},
                                 {y_index(rel, e), -1.0}};
      if (rel > 0) terms.push_back({y_index(rel - 1, e), 1.0});
      b.add_ge(terms, rel > 0 ? 0.0 : -prev.y[e]);
    }
    // Tier-1 term (F_1): z >= s, capacity per tier-1 cloud, and the
    // aggregate reconfiguration linking v_j >= Z_j(rel) - Z_j(rel-1).
    if (with_z_) {
      const Vec prev_t1 = tier1_totals(inst, prev.z);
      for (std::size_t e = 0; e < num_edges_; ++e)
        b.add_ge({{z_index(rel, e), 1.0}, {s_index(rel, e), -1.0}}, 0.0);
      for (std::size_t j = 0; j < num_tier1_; ++j) {
        std::vector<LinTerm> cap_terms;
        std::vector<LinTerm> link_terms{{v_index_(rel, j), 1.0}};
        for (const std::size_t e : inst.edges_of_tier1[j]) {
          cap_terms.push_back({z_index(rel, e), 1.0});
          link_terms.push_back({z_index(rel, e), -1.0});
          if (rel > 0) link_terms.push_back({z_index(rel - 1, e), 1.0});
        }
        if (!cap_terms.empty()) b.add_le(cap_terms, inst.tier1_capacity[j]);
        b.add_ge(link_terms, rel > 0 ? 0.0 : -prev_t1[j]);
      }
    }
  }

  model_ = b.build();
}

std::size_t P1WindowLp::x_index(std::size_t rel, std::size_t e) const {
  SORA_DCHECK(rel < window_ && e < num_edges_);
  return rel * stride_ + e;
}
std::size_t P1WindowLp::y_index(std::size_t rel, std::size_t e) const {
  return rel * stride_ + num_edges_ + e;
}
std::size_t P1WindowLp::s_index(std::size_t rel, std::size_t e) const {
  return rel * stride_ + 2 * num_edges_ + e;
}
std::size_t P1WindowLp::u_index_(std::size_t rel, std::size_t i) const {
  return rel * stride_ + 3 * num_edges_ + i;
}
std::size_t P1WindowLp::w_index_(std::size_t rel, std::size_t e) const {
  return rel * stride_ + 3 * num_edges_ + num_tier2_ + e;
}
std::size_t P1WindowLp::z_index(std::size_t rel, std::size_t e) const {
  SORA_DCHECK(with_z_);
  return rel * stride_ + 4 * num_edges_ + num_tier2_ + e;
}
std::size_t P1WindowLp::v_index_(std::size_t rel, std::size_t j) const {
  SORA_DCHECK(with_z_);
  return rel * stride_ + 5 * num_edges_ + num_tier2_ + j;
}

Trajectory P1WindowLp::extract(const Vec& solution) const {
  SORA_CHECK(solution.size() >= window_ * stride_);
  Trajectory traj;
  traj.slots.reserve(window_);
  for (std::size_t rel = 0; rel < window_; ++rel) {
    Allocation a = Allocation::zeros(num_edges_);
    for (std::size_t e = 0; e < num_edges_; ++e) {
      a.x[e] = solution[x_index(rel, e)];
      a.y[e] = solution[y_index(rel, e)];
      if (with_z_) a.z[e] = solution[z_index(rel, e)];
    }
    traj.slots.push_back(std::move(a));
  }
  return traj;
}

Allocation solve_one_shot(const Instance& inst, const InputSeries& inputs,
                          std::size_t t, const Allocation& prev,
                          const solver::LpSolveOptions& options) {
  const std::optional<Trajectory> traj =
      solve_p1_window(inst, inputs, t, t + 1, prev, nullptr, options);
  SORA_CHECK_MSG(traj.has_value(),
                 "one-shot LP failed at t=" + std::to_string(t));
  return traj->slots[0];
}

std::optional<Trajectory> solve_p1_window(
    const Instance& inst, const InputSeries& inputs, std::size_t t_begin,
    std::size_t t_end, const Allocation& prev, const Allocation* terminal,
    const solver::LpSolveOptions& options) {
  const P1WindowLp lp(inst, inputs, t_begin, t_end, prev, terminal);
  const std::size_t size = lp.model().num_rows() + lp.model().num_vars();

  util::Timer timer;
  SolveOutcome outcome;
  const auto sol = solve_lp_with_fallback(
      lp.model(), window_lp_options(lp.model(), options), &outcome);
  // Window solves are forensically interesting whenever the primary backend
  // did not finish cleanly; the record names the window's first slot.
  if (outcome.fell_back())
    record_flight("p1_window", t_begin, outcome, timer.seconds(),
                  "window[" + std::to_string(t_begin) + "," +
                      std::to_string(t_end) + ") size=" +
                      std::to_string(size));
  if (!sol.ok()) {
    SORA_LOG_WARN << "p1: window LP failed over [" << t_begin << ", " << t_end
                  << ") (" << solver::to_string(sol.status) << " "
                  << sol.detail << ")";
    return std::nullopt;
  }
  return lp.extract(sol.x);
}

Trajectory solve_offline(const Instance& inst,
                         const solver::LpSolveOptions& options) {
  std::optional<Trajectory> traj =
      solve_p1_window(inst, InputSeries::truth(inst), 0, inst.horizon,
                      Allocation::zeros(inst.num_edges()), nullptr, options);
  SORA_CHECK_MSG(traj.has_value(), "offline P1 LP failed");
  return std::move(*traj);
}

}  // namespace sora::core
