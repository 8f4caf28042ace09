// Problem instance assembly: the paper's evaluation setup as a data
// structure.
//
// Topology: tier-2 clouds i (AT&T metros), tier-1 edge clouds j (state
// capitals), SLA subsets I_j = the k tier-2 clouds geographically closest to
// j. Every admissible (j, i) pair is an "edge" carrying the network
// variables y_ijt and the per-pair cloud variables x_ijt.
//
// Capacities follow the paper's provisioning rule: the peak workload
// consumes 80% of capacity; each tier-1 cloud splits its peak evenly across
// its k SLA clouds, so C_i = (margin/k) * sum of the peaks of the tier-1
// clouds that list i, and B_ij = C_i.
//
// Prices: tier-2 allocation prices a_it are normalized hourly electricity
// prices (Table I synthesis); edge allocation prices c_ij are normalized
// tiered bandwidth prices (Table II); reconfiguration prices are
// b_i = d_ij = reconfig_weight * (mean operating price = 1).
#pragma once

#include <cstdint>
#include <vector>

#include "cloudnet/geo.hpp"
#include "cloudnet/workload.hpp"
#include "util/options.hpp"

namespace sora::cloudnet {

struct Edge {
  std::size_t tier1;  // j
  std::size_t tier2;  // i
};

struct Instance {
  std::vector<Site> tier2_sites;
  std::vector<Site> tier1_sites;

  std::vector<Edge> edges;
  std::vector<std::vector<std::size_t>> edges_of_tier1;  // j -> edge ids
  std::vector<std::vector<std::size_t>> edges_of_tier2;  // i -> edge ids

  std::size_t horizon = 0;  // T

  // Normalized prices. tier2_price[t][i] is a_it; edge_price[e] is c_ij
  // (constant over time, as in the paper).
  std::vector<std::vector<double>> tier2_price;
  std::vector<double> edge_price;

  // Reconfiguration prices b_i and d_ij.
  std::vector<double> tier2_reconfig;
  std::vector<double> edge_reconfig;

  // Capacities C_i and B_ij.
  std::vector<double> tier2_capacity;
  std::vector<double> edge_capacity;

  // demand[t][j] = lambda_jt.
  std::vector<std::vector<double>> demand;

  // Optional tier-1 processing dimension — the paper's F_1 term (variables
  // z_ijt with per-edge-cloud aggregation). Empty when the instance models
  // only F_12 + F_2, the paper's reduced P1. Populated when
  // InstanceConfig::model_tier1 is set.
  std::vector<double> tier1_capacity;            // C_j
  std::vector<std::vector<double>> tier1_price;  // [t][j]
  std::vector<double> tier1_reconfig;            // f_j
  bool has_tier1() const { return !tier1_capacity.empty(); }

  std::size_t num_tier1() const { return tier1_sites.size(); }
  std::size_t num_tier2() const { return tier2_sites.size(); }
  std::size_t num_edges() const { return edges.size(); }

  /// Total demand at slot t.
  double total_demand(std::size_t t) const;

  /// The even-split allocation (x_e = y_e = lambda_j / |I_j| for each edge of
  /// j) — feasible by the provisioning rule; used as a strictly feasible
  /// anchor by the solvers. Returned per edge.
  std::vector<double> even_split(std::size_t t) const;
};

struct InstanceConfig {
  std::size_t num_tier2 = 18;      // <= 18; stride subset of the AT&T metros
  std::size_t num_tier1 = 48;      // <= 48; stride subset of the capitals
  std::size_t sla_k = 1;           // clouds per SLA subset
  double capacity_margin = 1.25;   // peak consumes 1/margin of capacity
  double reconfig_weight = 1e3;    // b (relative to mean operating price)
  double gb_per_unit = 40.0;       // capacity unit -> GB/month for Table II
  std::uint64_t seed = 1;          // price synthesis seed

  // Model the tier-1 processing term F_1 (z variables). The paper drops it
  // from P1 for presentation because it mirrors F_2; enabling it restores
  // the full three-term objective. Tier-1 prices are synthesized from the
  // electricity markets at the edge sites, normalized to unit mean.
  bool model_tier1 = false;
};

/// Build an instance by replicating `trace` across every tier-1 cloud (the
/// paper's procedure). The trace must be non-empty.
Instance build_instance(const InstanceConfig& config,
                        const WorkloadTrace& trace);

/// The instance sora_cli and sora_serve build from their shared flags:
/// the --trace FILE demand column (cut to --hours when given), else a
/// --hours-slot --workload wikipedia|worldcup trace drawn with --seed, on a
/// --tier2 x --tier1 topology with --k, --b, --model-tier1 and --seed.
Instance instance_from_flags(const util::Options& flags);

struct ValidationReport {
  bool ok = true;
  std::vector<std::string> problems;
};

/// Check the paper's feasibility conditions (Sec. II-B) and structural
/// sanity: non-empty SLA sets, per-slot coverage reachable within
/// capacities, nonnegative data.
ValidationReport validate_instance(const Instance& instance);

}  // namespace sora::cloudnet
