#include "core/resilience.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace sora::core {

const char* to_string(SolveBackend backend) {
  switch (backend) {
    case SolveBackend::kWarmIpm: return "warm_ipm";
    case SolveBackend::kColdIpm: return "cold_ipm";
    case SolveBackend::kSimplex: return "simplex";
    case SolveBackend::kPdhg: return "pdhg";
    case SolveBackend::kHoldRepair: return "hold_repair";
  }
  return "?";
}

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kIterationLimit: return "iteration_limit";
    case FaultKind::kNumericalError: return "numerical_error";
    case FaultKind::kNanPoison: return "nan_poison";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Fault-injection hook.

namespace {

std::mutex g_hook_mu;
std::shared_ptr<const FaultHook> g_hook;                 // guarded by g_hook_mu
std::atomic<bool> g_hook_installed{false};               // fast-path gate

// Handles resolved once; see Registry docs for the naming scheme.
struct ResilienceMetrics {
  obs::Counter* solves;
  obs::Counter* fallbacks;
  obs::Counter* degraded;
  obs::Counter* exhausted;
  obs::Counter* faults_injected;
  obs::Histogram* attempts;
  obs::Counter* backend[kNumBackends];
};

const ResilienceMetrics& resilience_metrics() {
  static const ResilienceMetrics metrics = [] {
    auto& reg = obs::Registry::global();
    ResilienceMetrics m{
        &reg.counter("sora_resilience_solves_total",
                     "Per-slot solves routed through the resilience chain"),
        &reg.counter("sora_resilience_fallbacks_total",
                     "Slots the primary stage did not answer cleanly"),
        &reg.counter("sora_resilience_degraded_slots_total",
                     "Slots served by graceful degradation (hold + repair)"),
        &reg.counter("sora_resilience_exhausted_total",
                     "Slots where the whole fallback chain failed"),
        &reg.counter("sora_resilience_faults_injected_total",
                     "Faults applied by the injection hook"),
        &reg.histogram("sora_resilience_attempts", "attempts",
                       "Backends tried per slot solve",
                       obs::linear_buckets(1.0, 1.0, 8)),
        {},
    };
    // One counter per stage a slot can end on; LP backends answer LPs, not
    // slots.
    for (const SolveBackend b : {SolveBackend::kWarmIpm, SolveBackend::kColdIpm,
                                 SolveBackend::kHoldRepair})
      m.backend[static_cast<std::size_t>(b)] = &reg.counter(
          std::string("sora_resilience_backend_") + to_string(b) + "_total",
          "Slots whose final decision came from this stage");
    return m;
  }();
  return metrics;
}

// Append one failed stage to a fallback trail ("; "-separated) as
// "stage: status" or "stage: status (detail)". The status name leads
// because classify_anomaly and post-mortem grepping key on tokens like
// "iteration_limit", which the solvers' own details do not carry.
void append_failure(std::string& trail, const std::string& stage,
                    solver::SolveStatus status, const std::string& detail) {
  if (!trail.empty()) trail += "; ";
  trail += stage + ": " + solver::to_string(status);
  if (!detail.empty()) trail += " (" + detail + ")";
}

}  // namespace

void set_fault_hook(FaultHook hook) {
  std::lock_guard<std::mutex> lock(g_hook_mu);
  if (hook) {
    g_hook = std::make_shared<const FaultHook>(std::move(hook));
    g_hook_installed.store(true, std::memory_order_release);
  } else {
    g_hook_installed.store(false, std::memory_order_release);
    g_hook.reset();
  }
}

bool fault_hook_installed() {
  return g_hook_installed.load(std::memory_order_acquire);
}

FaultKind consult_fault_hook(std::size_t slot, std::size_t attempt) {
  if (!fault_hook_installed()) return FaultKind::kNone;
  std::shared_ptr<const FaultHook> hook;
  {
    std::lock_guard<std::mutex> lock(g_hook_mu);
    hook = g_hook;
  }
  if (!hook) return FaultKind::kNone;
  const FaultKind kind = (*hook)(slot, attempt);
  if (kind != FaultKind::kNone && obs::metrics_enabled())
    resilience_metrics().faults_injected->inc();
  return kind;
}

void apply_fault(FaultKind kind, solver::SolveStatus& status,
                 linalg::Vec& x) {
  switch (kind) {
    case FaultKind::kNone:
      return;
    case FaultKind::kIterationLimit:
      status = solver::SolveStatus::kIterationLimit;
      return;
    case FaultKind::kNumericalError:
      status = solver::SolveStatus::kNumericalError;
      return;
    case FaultKind::kNanPoison:
      // Leave the status "optimal": this simulates the silent-corruption
      // failure mode the chain's finiteness validation must catch.
      if (!x.empty()) x[x.size() / 2] = std::nan("");
      return;
  }
}

bool all_finite(const linalg::Vec& x) {
  for (const double v : x)
    if (!std::isfinite(v)) return false;
  return true;
}

// ---------------------------------------------------------------------------
// LP fallback.

solver::LpSolution solve_lp_with_fallback(const solver::LpModel& model,
                                          const solver::LpSolveOptions& lp,
                                          SolveOutcome* outcome) {
  const std::size_t size = model.num_rows() + model.num_vars();
  const bool primary_simplex = size <= lp.simplex_size_limit;
  // Simplex cost explodes with size; a few multiples past the size limit
  // "fall back to simplex" is a hang, not a rescue (the Fig.5-scale window
  // LP, ~9400 rows+vars, runs for minutes). Past that point the retry is
  // PDHG again with a much larger budget.
  const bool simplex_viable = size <= 8 * lp.simplex_size_limit;

  const SolveBackend first =
      primary_simplex ? SolveBackend::kSimplex : SolveBackend::kPdhg;
  const SolveBackend second = primary_simplex || !simplex_viable
                                  ? SolveBackend::kPdhg
                                  : SolveBackend::kSimplex;

  const auto attempt_one = [&](SolveBackend backend,
                               std::size_t attempt) -> solver::LpSolution {
    solver::LpSolveOptions opts = lp;
    if (attempt > 0) {
      // Retry with a boosted budget: the first failure may simply have run
      // out of iterations on a hard basis / stalled PDHG tail. A same-backend
      // PDHG retry gets a bigger boost — more iterations is all it has.
      opts.simplex.max_iterations *= 2;
      opts.pdhg.max_iterations *= backend == first ? 8 : 2;
      opts.pdhg.accept_factor = std::max(opts.pdhg.accept_factor, 10.0);
    }
    solver::LpSolution sol = backend == SolveBackend::kSimplex
                                 ? solver::solve_simplex(model, opts.simplex)
                                 : solver::solve_pdhg(model, opts.pdhg);
    if (sol.ok() && !all_finite(sol.x)) {
      sol.status = solver::SolveStatus::kNumericalError;
      sol.detail += " [non-finite solution]";
    }
    return sol;
  };

  std::size_t attempt = 0;
  solver::LpSolution sol = attempt_one(first, attempt++);
  std::string trail;
  // An infeasibility verdict is an answer about the model, not a solver
  // failure: the other backend cannot overturn it (PDHG cannot even detect
  // infeasibility, so its retry would only burn the boosted budget).
  const bool verdict = sol.status == solver::SolveStatus::kPrimalInfeasible ||
                       sol.status == solver::SolveStatus::kDualInfeasible;
  if (!sol.ok())
    append_failure(trail, to_string(first), sol.status, sol.detail);
  if (!sol.ok() && !verdict) {
    SORA_LOG_WARN << "lp fallback: primary " << to_string(first)
                  << " failed (" << to_string(sol.status)
                  << "), retrying with " << to_string(second)
                  << (second == first ? " (boosted budget)" : "");
    sol = attempt_one(second, attempt++);
    if (!sol.ok())
      append_failure(trail, to_string(second), sol.status, sol.detail);
  }

  if (outcome != nullptr) {
    outcome->status = sol.status;
    outcome->attempts = attempt;
    outcome->iterations = sol.iterations;
    outcome->backend = attempt == 1 ? first : second;
    outcome->detail = trail;
  }
  return sol;
}

solver::LpSolveOptions window_lp_options(const solver::LpModel& model,
                                         const solver::LpSolveOptions& lp) {
  solver::LpSolveOptions opts = lp;
  const std::size_t size = model.num_rows() + model.num_vars();
  if (size > opts.simplex_size_limit)
    opts.pdhg.max_iterations =
        std::max<std::size_t>(opts.pdhg.max_iterations, 120 * size);
  return opts;
}

void observe_outcome(const SolveOutcome& outcome) {
  if (!obs::metrics_enabled()) return;
  const ResilienceMetrics& metrics = resilience_metrics();
  metrics.solves->inc();
  metrics.attempts->observe(static_cast<double>(outcome.attempts));
  if (outcome.fell_back()) metrics.fallbacks->inc();
  if (outcome.degraded) metrics.degraded->inc();
  if (!outcome.ok()) metrics.exhausted->inc();
  obs::Counter* backend =
      metrics.backend[static_cast<std::size_t>(outcome.backend)];
  if (backend != nullptr) backend->inc();
}

void ChainHealth::record(std::size_t slot, const SolveOutcome& outcome) {
  slot_health.push_back(SlotHealth{slot, outcome.status, outcome.backend,
                                   outcome.attempts, outcome.degraded,
                                   outcome.repair_cost_delta});
  if (outcome.fell_back()) ++fallback_slots;
  if (outcome.degraded) ++degraded_slots;
  repair_cost_delta += outcome.repair_cost_delta;
}

// ---------------------------------------------------------------------------
// One slot's chain.

SlotChain::SlotChain(const char* model, std::size_t slot,
                     const ResilienceOptions& resilience)
    : model_(model), slot_(slot), fail_fast_(!resilience.enabled) {}

bool SlotChain::barrier(SolveBackend backend, solver::IpmResult& result) {
  apply_fault(consult_fault_hook(slot_, attempt_), result.status, result.x);
  if (result.ok() && !all_finite(result.x)) {
    result.status = solver::SolveStatus::kNumericalError;
    result.detail += result.detail.empty() ? "non-finite solution"
                                           : " [non-finite solution]";
  }
  outcome_.iterations = result.newton_steps;
  stage(backend, result.status, result.detail);
  return solved_;
}

void SlotChain::no_start(SolveBackend backend,
                         const solver::StrictStart& start) {
  outcome_.iterations = 0;
  stage(backend, start.status, start.detail);
}

void SlotChain::stage(SolveBackend backend, solver::SolveStatus status,
                      const std::string& detail) {
  ++attempt_;
  outcome_.backend = backend;
  outcome_.status = status;
  solved_ = outcome_.ok();
  if (solved_) return;
  append_failure(outcome_.detail, to_string(backend), status, detail);
  SORA_CHECK_MSG(!fail_fast_, std::string(model_) +
                                  ": barrier solve failed at t=" +
                                  std::to_string(slot_) + ": " +
                                  outcome_.detail);
}

void SlotChain::hold_and_repair(const SolveOutcome& repair) {
  if (attempt_ > 0)
    SORA_LOG_WARN << model_ << ": barrier failed at t=" << slot_ << " ("
                  << outcome_.detail << "); holding x_{t-1}";
  ++attempt_;
  outcome_.backend = SolveBackend::kHoldRepair;
  outcome_.status = repair.status;
  outcome_.iterations = repair.iterations;
  solved_ = repair.ok();
  if (solved_) {
    outcome_.degraded = true;
    outcome_.repair_cost_delta = repair.repair_cost_delta;
    return;
  }
  append_failure(outcome_.detail, to_string(SolveBackend::kHoldRepair),
                 repair.status, repair.detail);
  SORA_LOG_ERROR << model_ << ": chain exhausted at t=" << slot_ << " ("
                 << outcome_.detail << "); publishing x_{t-1}";
}

SolveOutcome SlotChain::finish() {
  outcome_.attempts = attempt_;
  observe_outcome(outcome_);
  return outcome_;
}

// ---------------------------------------------------------------------------
// Obs-layer bridge.

obs::Anomaly classify_anomaly(const SolveOutcome& outcome) {
  if (!outcome.ok()) return obs::Anomaly::kExhaustion;
  if (outcome.degraded) return obs::Anomaly::kDegradation;
  if (outcome.detail.find("non-finite") != std::string::npos)
    return obs::Anomaly::kNanDemotion;
  if (outcome.fell_back())
    return outcome.detail.find("iteration_limit") != std::string::npos
               ? obs::Anomaly::kIterationLimit
               : obs::Anomaly::kNumericalError;
  return obs::Anomaly::kNone;
}

std::string record_flight(const std::string& context, std::size_t slot,
                          const SolveOutcome& outcome, double latency_seconds,
                          const std::string& signature) {
  obs::FlightRecord rec;
  rec.context = context;
  rec.slot = slot;
  rec.backend = to_string(outcome.backend);
  rec.status = solver::to_string(outcome.status);
  rec.attempts = outcome.attempts == 0 ? 1 : outcome.attempts;
  rec.iterations = outcome.iterations;
  rec.fell_back = outcome.fell_back();
  rec.degraded = outcome.degraded;
  rec.latency_seconds = latency_seconds;
  rec.repair_cost_delta = outcome.repair_cost_delta;
  rec.detail = outcome.detail;
  rec.signature = signature;
  rec.anomaly = classify_anomaly(outcome);
  return obs::FlightRecorder::global().record(std::move(rec));
}

}  // namespace sora::core
