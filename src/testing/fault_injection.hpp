// Deterministic solver-fault injection for the resilience test suites.
//
// A FaultInjector draws a per-slot fault schedule and installs the
// process-wide core fault hook (core/resilience.hpp) for its lifetime. Each
// scheduled slot fails its first `forced_attempts` barrier attempts with the
// scheduled FaultKind, then solves normally — so forced_attempts selects how
// deep into the chain the slot is pushed (1 = a warm-started slot restarts
// cold while a cold primary or an n-tier slot holds + repairs; 2+ = every
// faulted slot holds + repairs).
//
// Two schedule models:
//
//   * i.i.d. (FaultPlan): every slot faults independently with fault_rate —
//     the PR-4 model, kept bit-compatible.
//   * correlated regional outages (RegionalOutagePlan + an Instance): outage
//     EVENTS are drawn per tier-1 region as (start, duration) windows, and
//     an event takes down every tier-2 cloud in that region's SLA set I_j at
//     once. Slots covered by any event fault; which clouds are dark and
//     which sites lost their whole SLA set are queryable per slot, so tests
//     can assert the resilience bound under spatial correlation instead of
//     i.i.d. noise. Region streams derive from util::Rng::child(region), so
//     the schedule is a pure function of (seed, topology).
//
// The schedule is a pure function of the plan, so tests can compare a run's
// SlotHealth accounting against `faulted(slot)` exactly. RAII: destruction
// clears the hook even when a test throws.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "cloudnet/instance.hpp"
#include "core/resilience.hpp"

namespace sora::testing {

struct FaultPlan {
  double fault_rate = 0.1;       // fraction of slots that get faults
  std::uint64_t seed = 1;        // schedule seed (independent of instance)
  std::size_t forced_attempts = 1;  // barrier attempts forced to fail
  core::FaultKind kind = core::FaultKind::kIterationLimit;
  bool mix_kinds = true;         // rotate iteration-limit / numerical / NaN
  std::size_t max_slots = 4096;  // schedule length (slots beyond are clean)
};

/// One correlated outage: region (a tier-1 site index) loses every tier-2
/// cloud in its SLA set I_j for `duration` consecutive slots.
struct OutageEvent {
  std::size_t region = 0;
  std::size_t start = 0;
  std::size_t duration = 1;
};

struct RegionalOutagePlan {
  double events_per_100_slots = 3.0;  // expected outage arrivals per region
  double mean_duration = 3.0;         // slots; exponential, >= 1
  std::size_t max_duration = 24;      // cap on one event's length
  std::uint64_t seed = 1;             // master seed for the region streams
  // Outage slots are driven deep into the chain by default: a regional
  // outage is the hold-and-repair regime, not a cold-restart blip (any
  // value >= 2 fails both barrier starts).
  std::size_t forced_attempts = 6;
  core::FaultKind kind = core::FaultKind::kNumericalError;
  bool mix_kinds = true;
  std::size_t max_slots = 4096;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  /// Topology-driven correlated schedule: regions are `inst`'s tier-1 sites,
  /// and an outage covers the region's whole SLA set.
  FaultInjector(const cloudnet::Instance& inst, const RegionalOutagePlan& plan);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  /// Whether slot t is scheduled to fault (false beyond max_slots).
  bool faulted(std::size_t slot) const;

  /// The kind scheduled for slot t (kNone when the slot is clean).
  core::FaultKind kind(std::size_t slot) const;

  /// Scheduled slots in increasing order.
  std::vector<std::size_t> faulted_slots() const;

  /// Faults actually delivered through the hook so far (one per forced
  /// attempt, so a slot with forced_attempts=3 counts 3 when fully driven).
  std::size_t injections() const {
    return injections_.load(std::memory_order_relaxed);
  }

  // Correlated-outage accessors; empty/zero on i.i.d. schedules.

  /// Scheduled outage events, ordered by (region, start).
  const std::vector<OutageEvent>& outage_events() const { return events_; }

  /// Number of distinct slots covered by at least one outage event.
  std::size_t outage_slot_count() const;

  /// Per tier-2 cloud, whether it is dark at `slot` (empty vector when the
  /// schedule is not topology-driven or the slot is clean).
  std::vector<char> clouds_down(std::size_t slot) const;

  /// Tier-1 sites whose ENTIRE SLA set is dark at `slot` — the sites the
  /// spatial correlation actually blacks out (a site sharing only part of
  /// its SLA set with the failed region keeps serving).
  std::vector<std::size_t> dark_sites(std::size_t slot) const;

 private:
  void install_hook();

  FaultPlan plan_;
  std::vector<core::FaultKind> schedule_;  // [slot] -> kind, kNone = clean
  std::atomic<std::size_t> injections_{0};

  // Topology-driven state (empty for i.i.d. plans).
  std::vector<OutageEvent> events_;
  std::vector<std::vector<std::size_t>> sla_sets_;  // region -> cloud ids
  std::vector<std::vector<char>> down_;             // [slot][cloud], sparse
  std::size_t num_tier2_ = 0;
};

}  // namespace sora::testing
