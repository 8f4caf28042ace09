// Solver-resilience layer: per-slot solve failures are first-class,
// recoverable events instead of silent corruption or process aborts.
//
// Every per-slot solve (two-tier P2(t), the n-tier slot subproblem, and the
// LP repairs) returns through a SolveOutcome that carries the final
// SolveStatus, the backend that produced the decision, and how many backends
// were tried. A failed primary solve walks a fixed fallback chain:
//
//   warm IPM -> cold IPM -> cold IPM with tightened barrier parameters
//            -> simplex on the linear surrogate -> PDHG on the surrogate
//            -> graceful degradation: hold x_{t-1} and repair coverage
//               sum s >= lambda with the cheapest push that stays within
//               the capacities (1b)-(1d)
//
// A degraded slot still satisfies the P1 feasibility invariants (coverage
// (1a), capacities (1b)-(1d)); only optimality and the KKT multipliers are
// given up. The chain also validates every "optimal" answer for NaN/Inf
// poisoning, which previously flowed silently into the trajectory and every
// subsequent warm start.
//
// Fault injection: src/testing/fault_injection installs a process-wide hook
// consulted before each attempt so the whole chain is exercised
// deterministically (docs/ROBUSTNESS.md).
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "linalg/vector_ops.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "solver/ipm.hpp"
#include "solver/lp.hpp"
#include "solver/lp_solve.hpp"
#include "solver/solution.hpp"

namespace sora::core {

/// Which stage of the fallback chain produced a slot's decision.
enum class SolveBackend {
  kWarmIpm,       // sparse barrier, warm-started from the previous optimum
  kColdIpm,       // sparse barrier, cold start (also the primary when warm
                  // starting is off or unavailable)
  kTightenedIpm,  // cold barrier with conservative parameters (smaller mu,
                  // larger step budgets)
  kSimplex,       // simplex on the slot's linear surrogate
  kPdhg,          // PDHG on the slot's linear surrogate
  kHoldRepair,    // graceful degradation: hold x_{t-1} + cheapest repair
};

const char* to_string(SolveBackend backend);
inline constexpr std::size_t kNumBackends = 6;

/// How one slot's solve ended: status, producing backend, chain depth.
struct SolveOutcome {
  solver::SolveStatus status = solver::SolveStatus::kNumericalError;
  SolveBackend backend = SolveBackend::kWarmIpm;
  std::size_t attempts = 0;        // backends tried, >= 1 once solved
  bool degraded = false;           // decision came from hold + repair
  double repair_cost_delta = 0.0;  // allocation+reconfig cost of the push
  std::string detail;              // failure trail, empty on clean solves

  bool ok() const { return status == solver::SolveStatus::kOptimal; }
  /// The slot was produced by something other than the primary barrier.
  bool fell_back() const { return attempts > 1 || degraded; }
};

/// Chain configuration, carried inside RoaOptions / NTierRoaOptions. When
/// enabled, every stage of the chain runs in turn and an exhausted chain
/// throws CheckError.
struct ResilienceOptions {
  bool enabled = true;  // false restores the fail-fast behaviour
};

/// Per-slot health record aggregated into RoaRun (and the n-tier runs).
struct SlotHealth {
  std::size_t slot = 0;
  solver::SolveStatus status = solver::SolveStatus::kNumericalError;
  SolveBackend backend = SolveBackend::kWarmIpm;
  std::size_t attempts = 0;
  bool degraded = false;
  double repair_cost_delta = 0.0;
};

// ---------------------------------------------------------------------------
// Fault injection (hook installed by sora::testing::FaultInjector).

enum class FaultKind {
  kNone,
  kIterationLimit,   // force SolveStatus::kIterationLimit
  kNumericalError,   // force SolveStatus::kNumericalError
  kNanPoison,        // leave status "optimal" but poison the solution with
                     // NaN — the silent-corruption failure mode
};

const char* to_string(FaultKind kind);

/// Hook signature: which fault (if any) to apply at (slot, attempt). Attempt
/// counts backends tried so far, so a schedule can force the first k stages
/// of the chain to fail and let stage k+1 succeed.
using FaultHook = std::function<FaultKind(std::size_t slot,
                                          std::size_t attempt)>;

/// Install (or, with an empty function, clear) the process-wide hook.
/// Thread-safe; consultation is a single relaxed atomic load when no hook is
/// installed.
void set_fault_hook(FaultHook hook);
bool fault_hook_installed();

/// The fault to apply at (slot, attempt); kNone when no hook is installed.
/// Bumps sora_resilience_faults_injected_total when a fault fires.
FaultKind consult_fault_hook(std::size_t slot, std::size_t attempt);

/// Apply `kind` to a solver result in place (status override / NaN poison).
void apply_fault(FaultKind kind, solver::SolveStatus& status, linalg::Vec& x);

// ---------------------------------------------------------------------------
// Shared helpers.

/// True when every entry of x is finite. Non-finite "optimal" solutions are
/// demoted to kNumericalError by the chain.
bool all_finite(const linalg::Vec& x);

/// Append one failed stage to a fallback trail ("; "-separated) as
/// "stage: status" or "stage: status (detail)". Every chain writes its trail
/// through this: the status name leads because classify_anomaly and
/// post-mortem grepping key on tokens like "iteration_limit", which the
/// solvers' own details (KKT gaps, budget diagnostics) do not carry.
void append_failure(std::string& trail, const std::string& stage,
                    solver::SolveStatus status, const std::string& detail);

/// The tightened-barrier rung's parameters: `base` with slower barrier
/// growth (mu 5) and larger budgets (4x Newton steps, 2x steps per
/// centering).
solver::IpmOptions tightened_ipm_options(const solver::IpmOptions& base);

/// Solve `model` with the configured LP method, then retry the other backend
/// (simplex <-> PDHG, with a boosted iteration budget) on an iteration
/// limit, a numerical error or a non-finite answer. A kPrimalInfeasible or
/// kDualInfeasible verdict is returned after the first attempt: it is an
/// answer about the model, and PDHG, which cannot detect infeasibility,
/// could only exhaust its budget on it. Never throws: the returned
/// solution's status tells the story. When `outcome` is non-null it
/// receives backend/attempt accounting. `slot`/`attempt_base` feed the
/// fault-injection hook (pass kNoFaultSlot to bypass it).
inline constexpr std::size_t kNoFaultSlot = static_cast<std::size_t>(-1);
solver::LpSolution solve_lp_with_fallback(const solver::LpModel& model,
                                          const solver::LpSolveOptions& lp,
                                          SolveOutcome* outcome = nullptr,
                                          std::size_t slot = kNoFaultSlot,
                                          std::size_t attempt_base = 0);

/// Record a finished slot outcome in the sora_resilience_* metrics.
void observe_outcome(const SolveOutcome& outcome);

// ---------------------------------------------------------------------------
// Obs-layer bridge (SLO samples + flight recorder). obs sits below core in
// the layer order, so the mapping from the resilience taxonomy onto the
// generic obs records lives here.

/// Map a finished outcome onto a slot-SLO sample (latency measured by the
/// caller; budget filled in by the tracker).
obs::SlotSample to_slot_sample(const SolveOutcome& outcome,
                               double latency_seconds);

/// Forensic classification of a finished outcome:
///   chain exhausted        -> kExhaustion
///   hold + repair          -> kDegradation
///   non-finite demotion    -> kNanDemotion
///   fell back, iter limit  -> kIterationLimit
///   fell back otherwise    -> kNumericalError
///   clean primary solve    -> kNone
obs::Anomaly classify_anomaly(const SolveOutcome& outcome);

/// Append one flight record for a finished solve in `context` (e.g.
/// "p2_slot", "ntier_slot", "p1_window"). Anomalous outcomes trigger an
/// incident JSON when SORA_INCIDENT_DIR is configured; returns the incident
/// path, or "" when none was written.
std::string record_flight(const std::string& context, std::size_t slot,
                          const SolveOutcome& outcome, double latency_seconds,
                          const std::string& signature = {});

}  // namespace sora::core
