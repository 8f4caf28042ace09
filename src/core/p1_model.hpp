// LP formulations of P1 over a window of time slots.
//
// The [.]^+ reconfiguration terms are linearised with auxiliaries
//   u_it >= sum_e x_et - sum_e x_e,t-1   (tier-2 aggregate increase)
//   w_et >= y_et - y_e,t-1               (edge increase)
// giving an ordinary LP. One builder covers every use in the paper:
//   * window length 1            -> the greedy one-shot slice,
//   * full horizon               -> the offline optimum,
//   * window length w            -> FHC / RHC subproblems,
//   * window with pinned final   -> the RFHC / RRHC re-optimisation
//     P1(x_{t-1}; ...; x_{t+w-1}) with both endpoints given.
//
// Inputs (demand, tier-2 prices) can be overridden with predicted series so
// the predictive algorithms plan on (possibly noisy) forecasts while costs
// are always evaluated against the true instance.
#pragma once

#include <optional>

#include "core/types.hpp"
#include "solver/lp_solve.hpp"

namespace sora::core {

/// View over the inputs an algorithm plans with. Defaults to the true
/// instance series; the prediction module substitutes noisy copies.
struct InputSeries {
  const std::vector<std::vector<double>>* demand = nullptr;       // [t][j]
  const std::vector<std::vector<double>>* tier2_price = nullptr;  // [t][i]

  static InputSeries truth(const Instance& inst) {
    return {&inst.demand, &inst.tier2_price};
  }
  double lambda(std::size_t t, std::size_t j) const { return (*demand)[t][j]; }
  double price(std::size_t t, std::size_t i) const {
    return (*tier2_price)[t][i];
  }
};

/// One slot's inputs as raw rows — the streaming counterpart of InputSeries.
/// The per-slot solvers consume only this view, so a long-lived daemon can
/// feed arbitrary λ/price rows without materializing a horizon. `slot` is
/// the logical slot index, used for attribution only (fault injection,
/// flight records, error messages) — never as an array index.
struct SlotInputs {
  std::size_t slot = 0;
  const std::vector<double>* demand = nullptr;       // [J] lambda_j
  const std::vector<double>* tier2_price = nullptr;  // [I] a_i
  const std::vector<double>* tier1_price = nullptr;  // [J]; null without F_1

  /// View of slot t of a batch series (zero-copy row pointers).
  static SlotInputs at(const Instance& inst, const InputSeries& inputs,
                       std::size_t t) {
    return {t, &(*inputs.demand)[t], &(*inputs.tier2_price)[t],
            inst.has_tier1() ? &inst.tier1_price[t] : nullptr};
  }
  double lambda(std::size_t j) const { return (*demand)[j]; }
  double price(std::size_t i) const { return (*tier2_price)[i]; }
  double t1_price(std::size_t j) const { return (*tier1_price)[j]; }
};

class P1WindowLp {
 public:
  /// Model P1 over absolute slots [t_begin, t_end), given the decision at
  /// t_begin-1 (`prev`). If `terminal` is set, the decision at t_end-1 is
  /// fixed to it (its reconfiguration cost from t_end-2 is still part of the
  /// objective, matching the paper's P1(x_{m-1}; ...; x_{m+n}) notation).
  P1WindowLp(const Instance& inst, const InputSeries& inputs,
             std::size_t t_begin, std::size_t t_end, const Allocation& prev,
             const Allocation* terminal = nullptr);

  const solver::LpModel& model() const { return model_; }

  /// Decisions for slots [t_begin, t_end) from a solver point.
  Trajectory extract(const Vec& solution) const;

  std::size_t x_index(std::size_t rel_slot, std::size_t edge) const;
  std::size_t y_index(std::size_t rel_slot, std::size_t edge) const;
  std::size_t s_index(std::size_t rel_slot, std::size_t edge) const;
  /// Only valid when the instance models the tier-1 term.
  std::size_t z_index(std::size_t rel_slot, std::size_t edge) const;

 private:
  std::size_t u_index_(std::size_t rel_slot, std::size_t tier2) const;
  std::size_t w_index_(std::size_t rel_slot, std::size_t edge) const;
  std::size_t v_index_(std::size_t rel_slot, std::size_t tier1) const;

  std::size_t window_ = 0;
  std::size_t num_edges_ = 0;
  std::size_t num_tier2_ = 0;
  std::size_t num_tier1_ = 0;
  bool with_z_ = false;
  std::size_t stride_ = 0;
  solver::LpModel model_;
};

/// Greedy one-shot slice at slot t (the paper's "sequence of one-shot
/// optimizations" step). Throws CheckError if the LP fails.
Allocation solve_one_shot(const Instance& inst, const InputSeries& inputs,
                          std::size_t t, const Allocation& prev,
                          const solver::LpSolveOptions& options = {});

/// Window solve over [t_begin, t_end): the decision trajectory, or nullopt
/// when the LP fails on both backends (e.g. a forecast no allocation can
/// cover). Never throws for solver-side failures.
std::optional<Trajectory> solve_p1_window(
    const Instance& inst, const InputSeries& inputs, std::size_t t_begin,
    std::size_t t_end, const Allocation& prev,
    const Allocation* terminal = nullptr,
    const solver::LpSolveOptions& options = {});

/// The offline optimum over the whole horizon. Throws CheckError if the LP
/// fails.
Trajectory solve_offline(const Instance& inst,
                         const solver::LpSolveOptions& options = {});

}  // namespace sora::core
