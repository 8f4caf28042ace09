#include "testing/fault_injection.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace sora::testing {
namespace {
core::FaultKind rotate_kind(std::size_t index) {
  switch (index % 3) {
    case 0:
      return core::FaultKind::kIterationLimit;
    case 1:
      return core::FaultKind::kNumericalError;
    default:
      return core::FaultKind::kNanPoison;
  }
}

// Events for one region, from its own child stream only: a pure function of
// (master seed, region). Events never overlap within a region.
std::vector<OutageEvent> region_events(std::size_t region, util::Rng rng,
                                       const RegionalOutagePlan& plan) {
  std::vector<OutageEvent> events;
  const double p = plan.events_per_100_slots / 100.0;
  for (std::size_t t = 0; t < plan.max_slots; ++t) {
    if (rng.uniform() >= p) continue;
    const double mean = std::max(1.0, plan.mean_duration);
    std::size_t duration =
        1 + static_cast<std::size_t>(rng.exponential(1.0 / mean));
    duration = std::min<std::size_t>(
        {duration, plan.max_duration, plan.max_slots - t});
    events.push_back({region, t, duration});
    t += duration;  // next draw after the outage clears
  }
  return events;
}
}  // namespace

void FaultInjector::install_hook() {
  // The hook only captures `this`; the RAII contract (injector outlives any
  // run it is driving) makes that safe.
  core::set_fault_hook([this](std::size_t slot, std::size_t attempt) {
    const core::FaultKind k = kind(slot);
    if (k == core::FaultKind::kNone || attempt >= plan_.forced_attempts)
      return core::FaultKind::kNone;
    injections_.fetch_add(1, std::memory_order_relaxed);
    return k;
  });
}

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan) {
  schedule_.assign(plan_.max_slots, core::FaultKind::kNone);
  util::Rng rng(plan_.seed);
  std::size_t scheduled = 0;
  for (std::size_t t = 0; t < plan_.max_slots; ++t) {
    if (rng.uniform() >= plan_.fault_rate) continue;
    schedule_[t] = plan_.mix_kinds ? rotate_kind(scheduled) : plan_.kind;
    ++scheduled;
  }
  install_hook();
}

FaultInjector::FaultInjector(const cloudnet::Instance& inst,
                             const RegionalOutagePlan& plan) {
  SORA_CHECK(inst.num_tier1() > 0);
  plan_.fault_rate = 0.0;  // unused by the correlated model
  plan_.seed = plan.seed;
  plan_.forced_attempts = plan.forced_attempts;
  plan_.kind = plan.kind;
  plan_.mix_kinds = plan.mix_kinds;
  plan_.max_slots = plan.max_slots;

  num_tier2_ = inst.num_tier2();
  sla_sets_.resize(inst.num_tier1());
  for (std::size_t j = 0; j < inst.num_tier1(); ++j)
    for (const std::size_t e : inst.edges_of_tier1[j])
      sla_sets_[j].push_back(inst.edges[e].tier2);

  // Per-region event streams, each drawn from child(region) only, merged in
  // region order: slot -> kind and slot -> dark clouds.
  const util::Rng master(plan.seed);
  schedule_.assign(plan.max_slots, core::FaultKind::kNone);
  down_.assign(plan.max_slots, {});
  for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
    for (const OutageEvent& ev : region_events(j, master.child(j), plan)) {
      events_.push_back(ev);
      for (std::size_t t = ev.start; t < ev.start + ev.duration; ++t) {
        // Kind keyed on the slot index, not the merge order, so overlapping
        // events from different regions cannot reorder the schedule.
        schedule_[t] = plan.mix_kinds ? rotate_kind(t) : plan.kind;
        if (down_[t].empty()) down_[t].assign(num_tier2_, 0);
        for (const std::size_t i : sla_sets_[j]) down_[t][i] = 1;
      }
    }
  }
  install_hook();
}

FaultInjector::~FaultInjector() { core::set_fault_hook({}); }

bool FaultInjector::faulted(std::size_t slot) const {
  return kind(slot) != core::FaultKind::kNone;
}

core::FaultKind FaultInjector::kind(std::size_t slot) const {
  if (slot >= schedule_.size()) return core::FaultKind::kNone;
  return schedule_[slot];
}

std::vector<std::size_t> FaultInjector::faulted_slots() const {
  std::vector<std::size_t> slots;
  for (std::size_t t = 0; t < schedule_.size(); ++t)
    if (schedule_[t] != core::FaultKind::kNone) slots.push_back(t);
  return slots;
}

std::size_t FaultInjector::outage_slot_count() const {
  std::size_t count = 0;
  for (const auto& d : down_)
    if (!d.empty()) ++count;
  return count;
}

std::vector<char> FaultInjector::clouds_down(std::size_t slot) const {
  if (slot >= down_.size()) return {};
  return down_[slot];
}

std::vector<std::size_t> FaultInjector::dark_sites(std::size_t slot) const {
  std::vector<std::size_t> sites;
  if (slot >= down_.size() || down_[slot].empty()) return sites;
  const std::vector<char>& down = down_[slot];
  for (std::size_t j = 0; j < sla_sets_.size(); ++j) {
    if (sla_sets_[j].empty()) continue;
    bool all_down = true;
    for (const std::size_t i : sla_sets_[j])
      if (!down[i]) {
        all_down = false;
        break;
      }
    if (all_down) sites.push_back(j);
  }
  return sites;
}

}  // namespace sora::testing
