// Seeded structured instance generator for property and differential tests.
//
// Each regime stresses a different corner of the paper's model: the smooth
// and spiky workload families of Fig. 4, capacity-saturated instances where
// the feasibility-transfer rows (3d)/(3e) have positive right-hand sides
// (and must hold through the capacity rows), zero-demand slots and
// clouds (degenerate coverage rows), tier-1 clouds with no admissible edges
// (the PR-1 empty-SLA-group guard), and degenerate prices (ties, zeros,
// extreme spread). Every instance is a deterministic function of
// (regime, seed) via util::Rng child streams, so a failing case is fully
// identified by its printed config.
//
// Generated instances are always feasible by construction (the paper's
// provisioning rule keeps the peak inside capacity), so any infeasibility
// surfaced downstream is a solver bug, not a generator artifact.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "cloudnet/instance.hpp"
#include "core/ntier.hpp"

namespace sora::testing {

enum class Regime {
  kSmooth,             // wikipedia-like diurnal workload, roomy capacities
  kSpiky,              // worldcup-like flash crowds
  kCapacitySaturated,  // margin close to 1: transfer rows (3d)/(3e) bite
  kZeroDemand,         // zero demand entries and whole dead slots
  kEmptySlaGroups,     // tier-1 clouds with no admissible edges
  kDegeneratePrices,   // price ties, zeros, and extreme spread
};

inline constexpr std::array<Regime, 6> kAllRegimes = {
    Regime::kSmooth,          Regime::kSpiky,
    Regime::kCapacitySaturated, Regime::kZeroDemand,
    Regime::kEmptySlaGroups,  Regime::kDegeneratePrices,
};

const char* regime_name(Regime regime);

struct GeneratorConfig {
  Regime regime = Regime::kSmooth;
  std::uint64_t seed = 1;

  // Size ceilings; actual sizes are drawn per instance. The defaults keep a
  // single property-suite case in the low milliseconds so hundreds fit in a
  // test budget.
  std::size_t max_tier1 = 6;
  std::size_t max_tier2 = 4;
  std::size_t max_horizon = 4;

  // Occasionally enable the tier-1 processing term F_1 (z variables).
  bool allow_tier1_term = true;

  /// "regime/seed" — the replay key printed by failing property tests.
  std::string describe() const;
};

/// Deterministic two-tier instance for (cfg.regime, cfg.seed). Validated
/// with cloudnet::validate_instance before return.
cloudnet::Instance generate_instance(const GeneratorConfig& cfg);

/// Deterministic n-tier instance (3-4 tiers) under the same regime
/// vocabulary. kEmptySlaGroups maps to a dead-end tier-0 node with zero
/// demand; kDegeneratePrices degenerates node and link prices.
core::NTierInstance generate_ntier_instance(const GeneratorConfig& cfg);

// ---------------------------------------------------------------------------
// Scaled topologies — 10-100x beyond the paper's 18x48 layout.
//
// The geographic site lists bundled with cloudnet top out at 18 tier-2
// metros and 48 capitals. Scale benchmarks and stress tests need
// topologies far past that, so this generator synthesizes a clustered
// populated-place grid over the continental US: tier-2 "metro" anchors
// drawn across the lat/lon box, tier-1 edge sites scattered around them
// with Gaussian jitter (cities cluster near metros), Pareto-weighted
// per-site diurnal demand, mean-1 prices, and the paper's provisioning rule
// for capacities (peak consumes 1/margin, split across the k SLA clouds).

struct ScaledTopologyConfig {
  std::size_t num_tier2 = 200;
  std::size_t num_tier1 = 2000;
  std::size_t sla_k = 3;   // clouds per SLA subset (k geographically nearest)
  std::size_t horizon = 4;
  double capacity_margin = 1.25;
  double reconfig_weight = 1e3;
  std::uint64_t seed = 1;

  /// "scaled-<tier2>x<tier1>/k<sla_k>/<seed>" — replay key.
  std::string describe() const;
};

/// Deterministic scaled instance for `cfg`. Feasible by construction
/// (validated with cloudnet::validate_instance before return).
cloudnet::Instance generate_scaled_instance(const ScaledTopologyConfig& cfg);

}  // namespace sora::testing
