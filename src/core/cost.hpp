// P1 cost accounting and feasibility checks (the paper's F_12 + F_2 with the
// [.]^+ reconfiguration model).
#pragma once

#include <functional>

#include "core/types.hpp"

namespace sora::core {

struct SlotInputs;  // core/p1_model.hpp

/// Allocation cost of one slot at its price rows: sum_e a_{i(e)} x_e +
/// sum_e c_e y_e (+ sum_e a'_{j(e)} z_e with the tier-1 term). A slot t of
/// the instance is SlotInputs::at(inst, InputSeries::truth(inst), t).
double slot_allocation_cost(const Instance& inst, const SlotInputs& in,
                            const Allocation& alloc);

/// Reconfiguration cost between consecutive decisions:
/// sum_i b_i [X_i(cur) - X_i(prev)]^+ + sum_e d_e [y_e(cur) - y_e(prev)]^+,
/// where X_i aggregates x over the edges incident to tier-2 cloud i.
double reconfiguration_cost(const Instance& inst, const Allocation& prev,
                            const Allocation& cur);

/// Total P1 objective of a trajectory (initial state is all-zero, as in the
/// paper: x_0 = y_0 = 0).
CostBreakdown total_cost(const Instance& inst, const Trajectory& traj);

/// Per-slot cumulative cost curve (entry t = cost of slots 0..t inclusive).
std::vector<double> cumulative_cost(const Instance& inst,
                                    const Trajectory& traj);

/// One row of P1 at a slot, as for_each_p1_row visits it.
struct P1Row {
  const char* name;   // the invariant, e.g. "coverage(1a)", "finite"
  const char* scope;  // what `index` counts: "x edge", "edge", "tier-1", ...
  std::size_t index;
  double excess;  // how far the row is violated (<= 0: it holds); +inf when
                  // the row reads a non-finite entry
};

/// Visit every P1 row of slot t for `alloc`: per edge, finiteness and
/// nonnegativity of x, y (and z) and the edge capacity (1c); then coverage
/// (1a) per tier-1 cloud, (1b) per tier-2 cloud and, with the tier-1 term,
/// (1d) per tier-1 cloud. The one P1 slot check: slot_violation and the
/// tests' invariant reports both walk it.
void for_each_p1_row(const Instance& inst, std::size_t t,
                     const Allocation& alloc,
                     const std::function<void(const P1Row&)>& visit);

/// Worst violation of P1's constraints at slot t (the rows of
/// for_each_p1_row); 0 when feasible, +inf when an entry is not finite.
double slot_violation(const Instance& inst, std::size_t t,
                      const Allocation& alloc);

/// True iff every slot satisfies P1 within tol.
bool is_feasible(const Instance& inst, const Trajectory& traj,
                 double tol = 1e-6);

/// Aggregate x over the edges of each tier-2 cloud: X_i = sum_{e in i} x_e.
Vec tier2_totals(const Instance& inst, const Vec& x);

/// Aggregate z over the edges of each tier-1 cloud: Z_j = sum_{e in j} z_e.
Vec tier1_totals(const Instance& inst, const Vec& z);

}  // namespace sora::core
