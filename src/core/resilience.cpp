#include "core/resilience.hpp"

#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>

#include "obs/obs.hpp"
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
                     "Slots produced by a non-primary backend"),
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

void append_failure(std::string& trail, const std::string& stage,
                    solver::SolveStatus status, const std::string& detail) {
  if (!trail.empty()) trail += "; ";
  trail += stage + ": " + solver::to_string(status);
  if (!detail.empty()) trail += " (" + detail + ")";
}

// ---------------------------------------------------------------------------
// LP fallback.

solver::LpSolution solve_lp_with_fallback(const solver::LpModel& model,
                                          const solver::LpSolveOptions& lp,
                                          SolveOutcome* outcome) {
  // Replicate solve_lp's kAuto dispatch so the retry really is the OTHER
  // backend.
  const bool primary_simplex =
      lp.method == solver::LpMethod::kSimplex ||
      (lp.method == solver::LpMethod::kAuto &&
       model.num_rows() + model.num_vars() <= lp.simplex_size_limit);
  // Simplex cost explodes with size; a few multiples past the auto-dispatch
  // threshold "fall back to simplex" is a hang, not a rescue (the Fig.5-scale
  // window LP, ~9400 rows+vars, runs for minutes). Past that point the retry
  // is PDHG again with a much larger budget.
  const bool simplex_viable =
      model.num_rows() + model.num_vars() <= 8 * lp.simplex_size_limit;

  const solver::LpMethod first =
      primary_simplex ? solver::LpMethod::kSimplex : solver::LpMethod::kPdhg;
  const solver::LpMethod second =
      primary_simplex || !simplex_viable ? solver::LpMethod::kPdhg
                                         : solver::LpMethod::kSimplex;

  const auto method_name = [](solver::LpMethod m) {
    return m == solver::LpMethod::kSimplex ? "simplex" : "pdhg";
  };
  const auto attempt_one = [&](solver::LpMethod method,
                               std::size_t attempt) -> solver::LpSolution {
    solver::LpSolveOptions opts = lp;
    opts.method = method;
    if (attempt > 0) {
      // Retry with a boosted budget: the first failure may simply have run
      // out of iterations on a hard basis / stalled PDHG tail. A same-backend
      // PDHG retry gets a bigger boost — more iterations is all it has.
      opts.simplex.max_iterations *= 2;
      opts.pdhg.max_iterations *= method == first ? 8 : 2;
      opts.pdhg.accept_factor = std::max(opts.pdhg.accept_factor, 10.0);
    }
    solver::LpSolution sol = solver::solve_lp(model, opts);
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
    append_failure(trail, method_name(first), sol.status, sol.detail);
  if (!sol.ok() && !verdict) {
    SORA_LOG_WARN << "lp fallback: primary " << method_name(first)
                  << " failed (" << to_string(sol.status)
                  << "), retrying with " << method_name(second)
                  << (second == first ? " (boosted budget)" : "");
    sol = attempt_one(second, attempt++);
    if (!sol.ok())
      append_failure(trail, method_name(second), sol.status, sol.detail);
  }

  if (outcome != nullptr) {
    const solver::LpMethod used = attempt == 1 ? first : second;
    outcome->status = sol.status;
    outcome->attempts = attempt;
    outcome->backend = used == solver::LpMethod::kSimplex
                           ? SolveBackend::kSimplex
                           : SolveBackend::kPdhg;
    outcome->detail = trail;
  }
  return sol;
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

// ---------------------------------------------------------------------------
// Obs-layer bridge.

obs::SlotSample to_slot_sample(const SolveOutcome& outcome,
                               double latency_seconds) {
  obs::SlotSample s;
  s.latency_seconds = latency_seconds;
  s.backend_name = to_string(outcome.backend);
  s.attempts = outcome.attempts == 0 ? 1 : outcome.attempts;
  s.fell_back = outcome.fell_back();
  s.degraded = outcome.degraded;
  return s;
}

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
