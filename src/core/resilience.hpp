// Solver-resilience layer: per-slot solve failures are first-class,
// recoverable events instead of silent corruption or process aborts.
//
// Every per-slot solve (two-tier P2(t), the n-tier slot subproblem, and the
// LP repairs) returns through a SolveOutcome that carries the final
// SolveStatus, the backend that produced the decision, and how many stages
// were tried. Each P2 model runs one chain, with its stage bookkeeping in
// SlotChain below:
//
//   strict start (the model's anchor, else phase-I)
//     -> one barrier solve per start the slot has (two-tier: warm, then
//        cold; n-tier: cold); a slot without a strict interior skips them
//     -> hold x_{t-1} and repair coverage sum s >= lambda with the cheapest
//        push that stays within the capacities (1b)-(1d)
//
// The terminal stage never throws: when its repair LP fails too, the slot
// publishes x_{t-1} with !ok(). A degraded slot still satisfies the P1
// feasibility invariants (coverage (1a), capacities (1b)-(1d)); only
// optimality and the KKT multipliers are given up. The chain also validates
// every "optimal" barrier answer for NaN/Inf poisoning, which would
// otherwise flow silently into the trajectory and every later warm start.
//
// Fault injection: src/testing/fault_injection installs a process-wide hook
// consulted before each barrier attempt so the whole chain is exercised
// deterministically (docs/ROBUSTNESS.md).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "solver/ipm.hpp"
#include "solver/lp.hpp"
#include "solver/lp_solve.hpp"
#include "solver/solution.hpp"

namespace sora::core {

/// Which stage of the chain produced a slot's decision, or which LP backend
/// answered an LP solve.
enum class SolveBackend {
  kWarmIpm,     // sparse barrier, warm-started from the previous optimum
  kColdIpm,     // sparse barrier, cold start (also the primary when warm
                // starting is off or unavailable)
  kSimplex,     // an LP solve answered by the simplex (window LPs, repairs)
  kPdhg,        // an LP solve answered by PDHG
  kHoldRepair,  // graceful degradation: hold x_{t-1} + cheapest repair
};

const char* to_string(SolveBackend backend);
inline constexpr std::size_t kNumBackends = 5;

/// How one slot's solve ended: status, producing backend, chain depth.
struct SolveOutcome {
  solver::SolveStatus status = solver::SolveStatus::kNumericalError;
  SolveBackend backend = SolveBackend::kWarmIpm;
  std::size_t attempts = 0;        // chain stages tried, >= 1 once solved
  std::size_t iterations = 0;      // the last stage's Newton steps (barrier)
                                   // or simplex/PDHG iterations (LP)
  bool degraded = false;           // decision came from hold + repair
  double repair_cost_delta = 0.0;  // allocation+reconfig cost of the push
  std::string detail;              // failure trail, empty on clean solves

  bool ok() const { return status == solver::SolveStatus::kOptimal; }
  /// The slot was not produced cleanly by the primary stage: a later stage
  /// answered, or no stage did (a deadline-path slot whose repair failed
  /// ran one stage and is not degraded, yet it fell back all the same).
  bool fell_back() const { return attempts > 1 || degraded || !ok(); }
};

/// Chain configuration, carried inside RoaOptions / NTierRoaOptions.
struct ResilienceOptions {
  bool enabled = true;  // false: the first failed stage throws (fail-fast)
};

/// Per-slot health record aggregated into ChainHealth.
struct SlotHealth {
  std::size_t slot = 0;
  solver::SolveStatus status = solver::SolveStatus::kNumericalError;
  SolveBackend backend = SolveBackend::kWarmIpm;
  std::size_t attempts = 0;
  bool degraded = false;
  double repair_cost_delta = 0.0;
};

/// Per-slot solver health of a ROA run (two-tier RoaRun, n-tier
/// NTierRoaHealth) plus horizon-level aggregates. A healthy run has every
/// slot kOptimal on its primary stage and zero counters here.
struct ChainHealth {
  std::vector<SlotHealth> slot_health;
  std::size_t fallback_slots = 0;  // not produced cleanly by the primary
  std::size_t degraded_slots = 0;  // hold + repair (coverage kept,
                                   // optimality given up)
  double repair_cost_delta = 0.0;  // summed cost of the degradation repairs
  // Slot-level SLO rollup (latency quantiles, deadline hit/miss against the
  // options' slo.budget_seconds). Always populated; see obs/slo.hpp.
  obs::SlotSloReport slo;

  /// Account slot `slot`'s finished outcome.
  void record(std::size_t slot, const SolveOutcome& outcome);
  bool healthy() const { return fallback_slots == 0 && degraded_slots == 0; }
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
/// counts chain stages tried so far, so a schedule can force the first k
/// barrier attempts of a slot to fail.
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

/// The one way code outside solver/ solves an LP. The first backend is the
/// simplex when rows+vars is at most `lp.simplex_size_limit`, PDHG above.
/// On an iteration limit, a numerical error or a non-finite answer it
/// retries once with a boosted iteration budget: on the other backend
/// (simplex <-> PDHG), except that a model over 8x the size limit retries
/// PDHG. A kPrimalInfeasible or kDualInfeasible verdict is returned after
/// the first attempt: it is an answer about the model, and PDHG, which
/// cannot detect infeasibility, could only exhaust its budget on it. Never
/// throws: the returned solution's status tells the story. When `outcome`
/// is non-null it receives backend/attempt accounting and the answering
/// attempt's iterations.
solver::LpSolution solve_lp_with_fallback(const solver::LpModel& model,
                                          const solver::LpSolveOptions& lp,
                                          SolveOutcome* outcome = nullptr);

/// `lp` adjusted for a multi-slot window LP of `model`. PDHG's iteration
/// count on a coupled window LP grows with the problem: the default 2e5
/// budget that suits a per-slot LP stalls a few KKT digits short at Fig.5
/// scale (72 slots, ~9400 rows+vars needs ~1e6). Above the simplex size
/// limit the PDHG budget becomes max(max_iterations, 120 * (rows + vars));
/// smaller windows keep `lp` untouched. Repair LPs keep the default budget.
solver::LpSolveOptions window_lp_options(const solver::LpModel& model,
                                         const solver::LpSolveOptions& lp);

/// Record a finished slot outcome in the sora_resilience_* metrics.
void observe_outcome(const SolveOutcome& outcome);

/// The stage bookkeeping of one slot's chain, shared by both P2 models. The
/// model runs its starts, barrier solves and repair, and reports each stage
/// here in order; SlotChain numbers the attempts, lets the fault hook
/// interfere with each barrier answer, keeps the failure trail, throws on a
/// failed stage when resilience is disabled, and observes the outcome.
class SlotChain {
 public:
  /// `model` prefixes the log and error lines ("p2", "ntier").
  SlotChain(const char* model, std::size_t slot,
            const ResilienceOptions& resilience);

  /// One barrier solve by `backend`: the fault hook may override `result`
  /// and a non-finite "optimal" answer is demoted to kNumericalError.
  /// Returns result.ok().
  bool barrier(SolveBackend backend, solver::IpmResult& result);
  /// A barrier stage the slot has no strictly feasible start for.
  void no_start(SolveBackend backend, const solver::StrictStart& start);
  /// The terminal stage (never fault-injected): x_{t-1} held and repaired,
  /// with the repair LP's outcome.
  void hold_and_repair(const SolveOutcome& repair);

  bool solved() const { return solved_; }  // the last stage produced the slot
  /// The final outcome, observed in the sora_resilience_* metrics.
  SolveOutcome finish();

 private:
  void stage(SolveBackend backend, solver::SolveStatus status,
             const std::string& detail);

  const char* model_;
  std::size_t slot_;
  bool fail_fast_;
  std::size_t attempt_ = 0;
  bool solved_ = false;
  SolveOutcome outcome_;
};

// ---------------------------------------------------------------------------
// Obs-layer bridge (flight recorder). obs sits below core in the layer
// order, so the mapping from the resilience taxonomy onto the generic obs
// records lives here.

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
