// The long-lived streaming allocation daemon behind the sora_serve binary.
//
// ServeDaemon wraps one persistent core::P2Workspace and drives the
// re-entrant step(lambda_t) -> x_t API tick by tick:
//
//   * each Tick's per-site request counts are scaled by 1/requests_per_unit
//     into the paper's lambda_jt and solved warm-started against x_{t-1};
//   * price rows cycle through the instance horizon (slot % horizon), so a
//     stream can run past the trace the instance was built from;
//   * a solve that lands after options.roa.slo.budget_seconds is a deadline
//     miss: the late answer is DISCARDED (an allocation that misses the
//     slot boundary is worthless under the reconfiguration-delay model) and
//     the slot re-routes through P2Workspace::degrade — the resilience
//     layer's hold-x_{t-1}-and-repair — never an abort;
//   * every slot's latency and deadline hit/miss land in the sora_slot_*
//     SLO metrics, and every slot in the flight recorder, live-scrapable
//     through obs::ScrapeServer;
//   * every snapshot_every slots the warm-start state + x_{t-1} + the
//     ServeStats counters are written atomically (serve/snapshot.hpp);
//     restore() resumes a killed stream with bit-identical continuation,
//     counters included.
#pragma once

#include <cstdint>
#include <string>

#include "core/p2_subproblem.hpp"
#include "core/types.hpp"
#include "serve/snapshot.hpp"
#include "serve/tick.hpp"

namespace sora::serve {

struct ServeOptions {
  core::RoaOptions roa;
  // Raw request counts per unit of the paper's demand lambda (millions of
  // user requests aggregate into fluid units). Must be > 0.
  double requests_per_unit = 1.0;
  // Snapshot path; empty disables snapshots entirely.
  std::string snapshot_path;
  // Write a snapshot after every N served slots (0 = only on demand).
  std::size_t snapshot_every = 0;
};

/// One served slot, as published to the output stream.
struct SlotResult {
  std::size_t slot = 0;
  core::Allocation alloc;
  const char* backend = "";
  std::size_t attempts = 0;
  bool degraded = false;
  bool deadline_miss = false;
  double latency_seconds = 0.0;  // solve latency (incl. degrade re-route)
  double slot_cost = 0.0;        // allocation + reconfiguration, this slot
  double cumulative_cost = 0.0;
  std::uint64_t alloc_hash = 0;  // FNV-1a over the raw x|y|z bytes
};

struct ServeStats {
  std::uint64_t slots = 0;
  std::uint64_t degraded_slots = 0;
  std::uint64_t fallback_slots = 0;
  std::uint64_t deadline_misses = 0;  // the daemon's one deadline count
  std::uint64_t snapshots_written = 0;
  core::CostBreakdown cost;
};

class ServeDaemon {
 public:
  /// The instance must outlive the daemon. Throws CheckError on a
  /// non-positive requests_per_unit.
  ServeDaemon(const core::Instance& inst, const ServeOptions& options);

  /// Serve one workload frame (tick.kind must be kTick). The tick's slot
  /// index is taken as the logical slot; the caller sequences ticks (see
  /// next_slot()). Never throws for solver-side failures.
  SlotResult step(const Tick& tick);

  /// Write a snapshot now. False (with reason) when no snapshot path is
  /// configured or the write fails.
  bool write_snapshot_now(std::string* error = nullptr);

  /// Restore state from options.snapshot_path. Validates the topology
  /// guard; on success next_slot() advances to the snapshot's slot and the
  /// next step() continues bit-identically to an uninterrupted run. On
  /// failure the daemon is left cold at slot 0.
  bool restore(std::string* error = nullptr);

  std::size_t next_slot() const { return next_slot_; }
  const core::Allocation& previous() const { return prev_; }
  const ServeStats& stats() const { return stats_; }

  /// FNV-1a over an allocation's raw x|y|z bytes (bitwise trajectory
  /// fingerprint for the differential restore check).
  static std::uint64_t hash_allocation(const core::Allocation& alloc);

 private:
  const core::Instance& inst_;
  ServeOptions options_;
  core::P2Workspace workspace_;
  core::Allocation prev_;
  core::Vec lambda_;  // [J] scratch, rewritten per tick
  std::size_t next_slot_ = 0;
  ServeStats stats_;
};

}  // namespace sora::serve
