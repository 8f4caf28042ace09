// The Sec.-IV controllers FHC, RHC, RFHC and RRHC (predictive.hpp), written
// once for both network models. A model adapter supplies
//   observe(t)                  slot t is current: its forecast row becomes
//                               the truth
//   window(t0, t1, prev, pin)   the P1 window LP over [t0, t1) on the
//                               forecast from `prev`, the last slot fixed to
//                               *pin when non-null; nullopt when it fails
//   chain_step(t, prev)         one slot of the P2 chain on the forecast
//   apply(t, planned)           `planned` repaired against the true slot t
// plus zeros(), horizon(), finish(run) (the cost against the truth) and the
// types Alloc (one slot's decision), Plan (`.slots`) and Run. Included by
// the two models' sources only.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/resilience.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace sora::core {

/// What apply() made of one planned slot.
template <typename Alloc>
struct AppliedSlot {
  Alloc alloc;
  bool repaired = false;  // the plan under-covered the truth: the LP ran
  SolveOutcome outcome;   // !ok(): the repair LP failed, plan applied as is
};

/// Applies planned slots through the model's repair and accounts them.
template <typename Model>
class Applier {
 public:
  using Alloc = typename Model::Alloc;

  Applier(Model& model, std::string name, const obs::SlotSloOptions& slo = {})
      : model_(model), prev_(model.zeros()), slo_(slo) {
    run_.algorithm = std::move(name);
  }

  /// The decision applied last (zeros before the first slot).
  const Alloc& prev() const { return prev_; }

  /// Amortize one window/chain planning solve over the `nslots` decisions it
  /// produced; the next `nslots` apply() calls each carry an equal share.
  void charge_window(double seconds, std::size_t nslots) {
    if (nslots == 0) return;
    window_share_seconds_ = seconds / static_cast<double>(nslots);
    window_slots_left_ = nslots;
  }

  void apply(std::size_t t, const Alloc& planned) {
    SORA_TRACE_SPAN("predictive/apply_slot");
    util::Timer timer;
    AppliedSlot<Alloc> rep = model_.apply(t, planned);
    if (!rep.outcome.ok()) {
      ++run_.failed_repairs;
      SORA_LOG_WARN << "predictive: repair LP failed at t=" << t << " ("
                    << rep.outcome.detail << "); applying the plan unrepaired";
    }
    if (rep.repaired) {
      ++run_.repairs;
      if (obs::metrics_enabled()) {
        static obs::Counter* repairs = &obs::Registry::global().counter(
            "sora_predictive_repairs_total",
            "Slots whose planned allocation needed an LP repair");
        repairs->inc();
      }
    }
    double latency = timer.seconds();
    if (window_slots_left_ > 0) {
      latency += window_share_seconds_;
      --window_slots_left_;
    }
    slo_.record(latency);
    if (rep.repaired || !rep.outcome.ok())
      record_flight("predictive_repair", t, rep.outcome, latency);
    prev_ = rep.alloc;
    run_.trajectory.slots.push_back(std::move(rep.alloc));
  }

  /// Apply slots [t0, t0 + n) of a window plan, or — when the window LP
  /// failed — hold the latest applied decision over them, slot by slot.
  void apply_window(std::size_t t0, std::size_t n,
                    const std::optional<typename Model::Plan>& plan) {
    if (!plan) run_.degraded_slots += n;
    for (std::size_t rel = 0; rel < n; ++rel) {
      if (plan) {
        apply(t0 + rel, plan->slots[rel]);
      } else {
        const Alloc held = prev_;  // apply() overwrites prev_
        apply(t0 + rel, held);
      }
    }
  }

  typename Model::Run finish() {
    model_.finish(run_);
    run_.slo = slo_.report();
    return std::move(run_);
  }

 private:
  Model& model_;
  typename Model::Run run_;
  Alloc prev_;
  obs::SlotSloTracker slo_;
  double window_share_seconds_ = 0.0;  // per-slot share of the plan solve
  std::size_t window_slots_left_ = 0;
};

// FHC (step = w) and RHC (step = 1): every `step` slots, plan [t0, t0 + w)
// with the window LP from the applied decision and apply its first `step`
// slots.
template <typename Model>
typename Model::Run run_window_loop(Model& model, std::string name,
                                    std::size_t w, std::size_t step,
                                    const obs::SlotSloOptions& slo) {
  SORA_CHECK(w >= 1);
  Applier<Model> applier(model, std::move(name), slo);
  for (std::size_t t0 = 0; t0 < model.horizon(); t0 += step) {
    const std::size_t t1 = std::min(model.horizon(), t0 + w);
    const std::size_t n = std::min(step, t1 - t0);
    model.observe(t0);  // the window's first slot is current
    util::Timer plan_timer;
    const auto plan = model.window(t0, t1, applier.prev(), nullptr);
    applier.charge_window(plan_timer.seconds(), n);
    applier.apply_window(t0, n, plan);
  }
  return applier.finish();
}

template <typename Model>
typename Model::Run run_rfhc_loop(Model& model, std::size_t w,
                                  const obs::SlotSloOptions& slo) {
  using Alloc = typename Model::Alloc;
  SORA_CHECK(w >= 1);
  Applier<Model> applier(model, "RFHC", slo);
  for (std::size_t t0 = 0; t0 < model.horizon(); t0 += w) {
    const std::size_t t1 = std::min(model.horizon(), t0 + w);
    model.observe(t0);
    util::Timer plan_timer;
    // Regularized chain P2(t0)..P2(t1-1) from the applied decision.
    std::vector<Alloc> chain;
    Alloc chain_prev = applier.prev();
    for (std::size_t t = t0; t < t1; ++t) {
      chain_prev = model.chain_step(t, chain_prev);
      chain.push_back(chain_prev);
    }
    if (t1 - t0 == 1) {
      applier.charge_window(plan_timer.seconds(), 1);
      applier.apply(t0, chain[0]);
      continue;
    }
    // Pin the chain's final decision and re-optimise the interior exactly.
    const auto block = model.window(t0, t1, applier.prev(), &chain.back());
    applier.charge_window(plan_timer.seconds(), t1 - t0);
    applier.apply_window(t0, t1 - t0, block);
  }
  return applier.finish();
}

template <typename Model>
typename Model::Run run_rrhc_loop(Model& model, std::size_t w,
                                  const obs::SlotSloOptions& slo) {
  using Alloc = typename Model::Alloc;
  SORA_CHECK(w >= 1);
  // The regularized chain is global (Theorem 4): chain[tau] = P2(tau) fed by
  // chain[tau-1], computed on the forecast available when first needed.
  std::vector<Alloc> chain;
  chain.reserve(model.horizon());
  Alloc chain_prev = model.zeros();
  Applier<Model> applier(model, "RRHC", slo);
  for (std::size_t t = 0; t < model.horizon(); ++t) {
    model.observe(t);
    const std::size_t t1 = std::min(model.horizon(), t + w);
    util::Timer plan_timer;
    while (chain.size() < t1) {
      chain_prev = model.chain_step(chain.size(), chain_prev);
      chain.push_back(chain_prev);
    }
    if (t1 - t == 1) {
      applier.charge_window(plan_timer.seconds(), 1);
      applier.apply(t, chain[t]);
      continue;
    }
    const auto window = model.window(t, t1, applier.prev(), &chain[t1 - 1]);
    applier.charge_window(plan_timer.seconds(), 1);
    applier.apply_window(t, 1, window);
  }
  return applier.finish();
}

}  // namespace sora::core
