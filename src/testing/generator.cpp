#include "testing/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "cloudnet/geo.hpp"
#include "cloudnet/workload.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sora::testing {
namespace {

using cloudnet::Instance;
using cloudnet::InstanceConfig;
using cloudnet::WorkloadTrace;

// Child-stream layout: each generation concern draws from its own stream so
// a regime tweak in one place cannot shift every downstream draw.
enum Stream : std::uint64_t {
  kSizeStream = 0,
  kTraceStream = 1,
  kPriceStream = 2,
  kPostStream = 3,
};

std::size_t draw_size(util::Rng& rng, std::size_t lo, std::size_t hi) {
  SORA_CHECK(lo <= hi);
  return lo + static_cast<std::size_t>(rng.uniform_index(hi - lo + 1));
}

// Remove every edge of tier-1 cloud `victim` and zero its demand, keeping
// all per-edge arrays and adjacency lists consistent. The result is exactly
// the empty-SLA-group shape the PR-1 guard handles.
void remove_tier1_edges(Instance& inst, std::size_t victim) {
  std::vector<cloudnet::Edge> edges;
  std::vector<double> price, reconfig, capacity;
  for (std::size_t e = 0; e < inst.num_edges(); ++e) {
    if (inst.edges[e].tier1 == victim) continue;
    edges.push_back(inst.edges[e]);
    price.push_back(inst.edge_price[e]);
    reconfig.push_back(inst.edge_reconfig[e]);
    capacity.push_back(inst.edge_capacity[e]);
  }
  inst.edges = std::move(edges);
  inst.edge_price = std::move(price);
  inst.edge_reconfig = std::move(reconfig);
  inst.edge_capacity = std::move(capacity);
  inst.edges_of_tier1.assign(inst.num_tier1(), {});
  inst.edges_of_tier2.assign(inst.num_tier2(), {});
  for (std::size_t e = 0; e < inst.num_edges(); ++e) {
    inst.edges_of_tier1[inst.edges[e].tier1].push_back(e);
    inst.edges_of_tier2[inst.edges[e].tier2].push_back(e);
  }
  for (auto& row : inst.demand) row[victim] = 0.0;
}

void degenerate_prices(Instance& inst, util::Rng& rng) {
  // Three flavors, one per instance: exact ties everywhere, zero prices at
  // random positions, or a three-decade spread. All keep prices >= 0.
  const std::uint64_t flavor = rng.uniform_index(3);
  if (flavor == 0) {
    const double level = rng.uniform(0.5, 2.0);
    for (auto& row : inst.tier2_price)
      std::fill(row.begin(), row.end(), level);
    std::fill(inst.edge_price.begin(), inst.edge_price.end(), level);
    if (inst.has_tier1())
      for (auto& row : inst.tier1_price)
        std::fill(row.begin(), row.end(), level);
  } else if (flavor == 1) {
    for (auto& row : inst.tier2_price)
      for (double& p : row)
        if (rng.uniform() < 0.3) p = 0.0;
    for (double& p : inst.edge_price)
      if (rng.uniform() < 0.3) p = 0.0;
  } else {
    for (auto& row : inst.tier2_price)
      for (double& p : row) p *= rng.uniform() < 0.5 ? 1e-2 : 1e1;
    for (double& p : inst.edge_price) p *= rng.uniform() < 0.5 ? 1e-2 : 1e1;
  }
}

void zero_out_demand(Instance& inst, util::Rng& rng) {
  // Random dead entries plus one entirely dead slot (when T > 1), so both
  // per-cloud and per-slot degenerate coverage rows appear.
  for (auto& row : inst.demand)
    for (double& d : row)
      if (rng.uniform() < 0.35) d = 0.0;
  if (inst.horizon > 1) {
    const std::size_t dead =
        static_cast<std::size_t>(rng.uniform_index(inst.horizon));
    std::fill(inst.demand[dead].begin(), inst.demand[dead].end(), 0.0);
  }
}

}  // namespace

const char* regime_name(Regime regime) {
  switch (regime) {
    case Regime::kSmooth: return "smooth";
    case Regime::kSpiky: return "spiky";
    case Regime::kCapacitySaturated: return "capacity-saturated";
    case Regime::kZeroDemand: return "zero-demand";
    case Regime::kEmptySlaGroups: return "empty-sla-groups";
    case Regime::kDegeneratePrices: return "degenerate-prices";
  }
  return "?";
}

std::string GeneratorConfig::describe() const {
  return std::string(regime_name(regime)) + "/" + std::to_string(seed);
}

Instance generate_instance(const GeneratorConfig& cfg) {
  const util::Rng master(cfg.seed);
  util::Rng size_rng = master.child(kSizeStream);
  util::Rng trace_rng = master.child(kTraceStream);
  util::Rng post_rng = master.child(kPostStream);

  InstanceConfig ic;
  ic.num_tier2 = draw_size(size_rng, 2, std::max<std::size_t>(2, cfg.max_tier2));
  ic.num_tier1 = draw_size(size_rng, 2, std::max<std::size_t>(2, cfg.max_tier1));
  ic.sla_k = draw_size(size_rng, 1, std::min<std::size_t>(3, ic.num_tier2));
  ic.seed = master.child(kPriceStream).seed();
  // Log-spread reconfiguration weight: smoothing from negligible to dominant.
  ic.reconfig_weight = std::array<double, 4>{0.1, 1.0, 10.0, 100.0}[
      size_rng.uniform_index(4)];
  ic.model_tier1 = cfg.allow_tier1_term && size_rng.uniform() < 0.3;
  ic.capacity_margin = cfg.regime == Regime::kCapacitySaturated
                           ? size_rng.uniform(1.02, 1.08)
                           : size_rng.uniform(1.2, 1.6);

  const std::size_t horizon =
      draw_size(size_rng, 2, std::max<std::size_t>(2, cfg.max_horizon));
  const WorkloadTrace trace =
      cfg.regime == Regime::kSpiky
          ? cloudnet::worldcup_like(horizon, trace_rng)
          : cloudnet::wikipedia_like(horizon, trace_rng);

  Instance inst = cloudnet::build_instance(ic, trace);

  switch (cfg.regime) {
    case Regime::kSmooth:
    case Regime::kSpiky:
    case Regime::kCapacitySaturated:
      break;
    case Regime::kZeroDemand:
      zero_out_demand(inst, post_rng);
      break;
    case Regime::kEmptySlaGroups: {
      // One or two victims, never all tier-1 clouds.
      const std::size_t victims =
          std::min<std::size_t>(1 + post_rng.uniform_index(2),
                                inst.num_tier1() - 1);
      const auto order = post_rng.permutation(inst.num_tier1());
      for (std::size_t v = 0; v < victims; ++v)
        remove_tier1_edges(inst, order[v]);
      break;
    }
    case Regime::kDegeneratePrices:
      degenerate_prices(inst, post_rng);
      break;
  }

  const auto report = cloudnet::validate_instance(inst);
  if (!report.ok) {
    // The empty-SLA regime deliberately produces empty SLA sets; everything
    // else the validator flags is a generator bug.
    for (const auto& problem : report.problems) {
      const bool expected =
          cfg.regime == Regime::kEmptySlaGroups &&
          problem.find("empty SLA set") != std::string::npos;
      SORA_CHECK_MSG(expected, "generator produced invalid instance (" +
                                   cfg.describe() + "): " + problem);
    }
  }
  return inst;
}

core::NTierInstance generate_ntier_instance(const GeneratorConfig& cfg) {
  const util::Rng master(cfg.seed);
  util::Rng size_rng = master.child(kSizeStream);
  util::Rng trace_rng = master.child(kTraceStream);
  util::Rng price_rng = master.child(kPriceStream);
  util::Rng post_rng = master.child(kPostStream);

  core::NTierConfig nc;
  const std::size_t tiers = draw_size(size_rng, 3, 4);
  nc.tier_sizes.clear();
  for (std::size_t n = 0; n < tiers; ++n)
    nc.tier_sizes.push_back(draw_size(size_rng, 2, 4));
  nc.sla_k = draw_size(size_rng, 1, 2);
  nc.reconfig_weight =
      std::array<double, 3>{1.0, 10.0, 100.0}[size_rng.uniform_index(3)];
  // The n-tier slot solver's strictly feasible start inflates flows by 1%
  // per hop (~1.01^5 over 4 tiers), so "saturated" must stay just above
  // that compounding or the barrier has no interior point to start from.
  nc.capacity_margin = cfg.regime == Regime::kCapacitySaturated
                           ? size_rng.uniform(1.07, 1.15)
                           : size_rng.uniform(1.2, 1.6);

  const std::size_t horizon =
      draw_size(size_rng, 2, std::max<std::size_t>(2, cfg.max_horizon));
  const WorkloadTrace trace =
      cfg.regime == Regime::kSpiky
          ? cloudnet::worldcup_like(horizon, trace_rng)
          : cloudnet::wikipedia_like(horizon, trace_rng);

  core::NTierInstance inst =
      core::build_ntier_instance(nc, trace.demand, price_rng);

  switch (cfg.regime) {
    case Regime::kSmooth:
    case Regime::kSpiky:
    case Regime::kCapacitySaturated:
      break;
    case Regime::kZeroDemand:
      for (auto& row : inst.demand)
        for (double& d : row)
          if (post_rng.uniform() < 0.35) d = 0.0;
      break;
    case Regime::kEmptySlaGroups: {
      // Cut tier-0 node 0 off from the next tier and zero its demand: the
      // n-tier analogue of an empty SLA group.
      std::vector<core::NTierLink> kept;
      for (const auto& link : inst.links)
        if (!(link.tier == 0 && link.from == 0)) kept.push_back(link);
      const std::size_t removed = inst.links.size() - kept.size();
      // Per-link arrays are indexed in link order; rebuild them aligned.
      std::vector<double> lp, lr, lc;
      std::size_t src = 0;
      for (const auto& link : inst.links) {
        const bool keep = !(link.tier == 0 && link.from == 0);
        if (keep) {
          lp.push_back(inst.link_price[src]);
          lr.push_back(inst.link_reconfig[src]);
          lc.push_back(inst.link_capacity[src]);
        }
        ++src;
      }
      SORA_CHECK(removed > 0);
      inst.links = std::move(kept);
      inst.link_price = std::move(lp);
      inst.link_reconfig = std::move(lr);
      inst.link_capacity = std::move(lc);
      inst.finalize();
      for (auto& row : inst.demand) row[0] = 0.0;
      break;
    }
    case Regime::kDegeneratePrices: {
      const double level = post_rng.uniform(0.5, 2.0);
      for (auto& row : inst.node_price)
        for (double& p : row)
          if (p > 0.0) p = level;
      for (double& p : inst.link_price)
        if (post_rng.uniform() < 0.3) p = 0.0;
      break;
    }
  }
  return inst;
}

// ---------------------------------------------------------------------------
// Scaled topologies.

std::string ScaledTopologyConfig::describe() const {
  return "scaled-" + std::to_string(num_tier2) + "x" +
         std::to_string(num_tier1) + "/k" + std::to_string(sla_k) + "/" +
         std::to_string(seed);
}

cloudnet::Instance generate_scaled_instance(const ScaledTopologyConfig& cfg) {
  SORA_CHECK(cfg.num_tier2 >= 1);
  SORA_CHECK(cfg.num_tier1 >= 1);
  SORA_CHECK(cfg.sla_k >= 1);
  SORA_CHECK(cfg.horizon >= 1);
  SORA_CHECK(cfg.capacity_margin > 1.0);

  const util::Rng master(cfg.seed);
  util::Rng geo_rng = master.child(kSizeStream);
  util::Rng demand_rng = master.child(kTraceStream);
  util::Rng price_rng = master.child(kPriceStream);

  // Continental-US bounding box for the synthesized populated-place grid.
  static constexpr double kLatLo = 25.0, kLatHi = 49.0;
  static constexpr double kLonLo = -124.0, kLonHi = -67.0;
  const auto clamp_box = [](cloudnet::Site& s) {
    s.latitude = std::clamp(s.latitude, kLatLo, kLatHi);
    s.longitude = std::clamp(s.longitude, kLonLo, kLonHi);
  };

  cloudnet::Instance inst;
  inst.horizon = cfg.horizon;

  // Tier-2 metro anchors: uniform over the box (deterministic in seed).
  inst.tier2_sites.reserve(cfg.num_tier2);
  for (std::size_t i = 0; i < cfg.num_tier2; ++i) {
    cloudnet::Site s;
    s.name = "metro-" + std::to_string(i);
    s.state = "XX";
    s.latitude = geo_rng.uniform(kLatLo, kLatHi);
    s.longitude = geo_rng.uniform(kLonLo, kLonHi);
    inst.tier2_sites.push_back(std::move(s));
  }

  // Tier-1 populated places: clustered around a random metro with Gaussian
  // jitter (sigma ~ 1.5 degrees — cities crowd their metro), a thin uniform
  // tail so remote sites exist too.
  inst.tier1_sites.reserve(cfg.num_tier1);
  for (std::size_t j = 0; j < cfg.num_tier1; ++j) {
    cloudnet::Site s;
    s.name = "place-" + std::to_string(j);
    s.state = "XX";
    if (geo_rng.uniform() < 0.9) {
      const auto& anchor =
          inst.tier2_sites[geo_rng.uniform_index(cfg.num_tier2)];
      s.latitude = geo_rng.normal(anchor.latitude, 1.5);
      s.longitude = geo_rng.normal(anchor.longitude, 1.5);
    } else {
      s.latitude = geo_rng.uniform(kLatLo, kLatHi);
      s.longitude = geo_rng.uniform(kLonLo, kLonHi);
    }
    clamp_box(s);
    inst.tier1_sites.push_back(std::move(s));
  }

  // SLA sets: k geographically nearest metros per place (paper rule).
  const std::size_t k = std::min(cfg.sla_k, cfg.num_tier2);
  const auto nearest =
      cloudnet::k_nearest(inst.tier1_sites, inst.tier2_sites, k);
  inst.edges_of_tier1.resize(cfg.num_tier1);
  inst.edges_of_tier2.resize(cfg.num_tier2);
  for (std::size_t j = 0; j < cfg.num_tier1; ++j) {
    for (const std::size_t i : nearest[j]) {
      const std::size_t e = inst.edges.size();
      inst.edges.push_back({j, i});
      inst.edges_of_tier1[j].push_back(e);
      inst.edges_of_tier2[i].push_back(e);
    }
  }

  // Demand: per-site diurnal curve (daily harmonic, random phase) scaled by
  // a Pareto site weight — a few big cities, a long tail of small ones.
  // Weights are normalized to mean 1 so costs stay comparable across sizes.
  std::vector<double> weight(cfg.num_tier1, 0.0);
  double weight_sum = 0.0;
  for (std::size_t j = 0; j < cfg.num_tier1; ++j) {
    weight[j] = demand_rng.pareto(1.5, 1.0);
    weight_sum += weight[j];
  }
  const double weight_mean =
      weight_sum / static_cast<double>(cfg.num_tier1);
  inst.demand.assign(cfg.horizon, std::vector<double>(cfg.num_tier1, 0.0));
  for (std::size_t j = 0; j < cfg.num_tier1; ++j) {
    const double phase =
        demand_rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double depth = demand_rng.uniform(0.2, 0.45);
    for (std::size_t t = 0; t < cfg.horizon; ++t) {
      const double diurnal =
          1.0 + depth * std::sin(2.0 * std::numbers::pi *
                                     static_cast<double>(t) / 24.0 +
                                 phase);
      inst.demand[t][j] = weight[j] / weight_mean * diurnal;
    }
  }

  // Capacities: the paper's provisioning rule — each place's peak splits
  // evenly across its k SLA clouds, and the peak consumes 1/margin of the
  // provisioned capacity. Edge capacity carries the edge's own share;
  // tier-2 capacity is the sum of its incident shares.
  std::vector<double> peak_j(cfg.num_tier1, 0.0);
  for (std::size_t t = 0; t < cfg.horizon; ++t)
    for (std::size_t j = 0; j < cfg.num_tier1; ++j)
      peak_j[j] = std::max(peak_j[j], inst.demand[t][j]);
  inst.tier2_capacity.assign(cfg.num_tier2, 0.0);
  inst.edge_capacity.assign(inst.num_edges(), 0.0);
  for (std::size_t e = 0; e < inst.num_edges(); ++e) {
    const double share = cfg.capacity_margin * peak_j[inst.edges[e].tier1] /
                         static_cast<double>(k);
    inst.edge_capacity[e] = share;
    inst.tier2_capacity[inst.edges[e].tier2] += share;
  }

  // Prices: lognormal-ish site levels with mild per-slot wobble, normalized
  // to mean 1 (matching build_instance, so reconfig_weight keeps meaning "a
  // multiple of the typical operating price"). Edge prices likewise mean 1.
  inst.tier2_price.assign(cfg.horizon,
                          std::vector<double>(cfg.num_tier2, 0.0));
  double price_sum = 0.0;
  for (std::size_t i = 0; i < cfg.num_tier2; ++i) {
    const double level = std::exp(price_rng.normal(0.0, 0.3));
    for (std::size_t t = 0; t < cfg.horizon; ++t) {
      const double p = level * (1.0 + 0.1 * price_rng.normal());
      inst.tier2_price[t][i] = std::max(p, 1e-3);
      price_sum += inst.tier2_price[t][i];
    }
  }
  const double price_mean =
      price_sum / static_cast<double>(cfg.horizon * cfg.num_tier2);
  for (auto& row : inst.tier2_price)
    for (double& p : row) p /= price_mean;

  inst.edge_price.assign(inst.num_edges(), 0.0);
  double edge_sum = 0.0;
  for (std::size_t e = 0; e < inst.num_edges(); ++e) {
    inst.edge_price[e] = std::exp(price_rng.normal(0.0, 0.25));
    edge_sum += inst.edge_price[e];
  }
  const double edge_mean = edge_sum / static_cast<double>(inst.num_edges());
  for (double& p : inst.edge_price) p /= edge_mean;

  inst.tier2_reconfig.assign(cfg.num_tier2, cfg.reconfig_weight);
  inst.edge_reconfig.assign(inst.num_edges(), cfg.reconfig_weight);

  const auto report = cloudnet::validate_instance(inst);
  SORA_CHECK_MSG(report.ok, "scaled instance failed validation: " +
                                (report.problems.empty()
                                     ? std::string("?")
                                     : report.problems.front()));
  return inst;
}

}  // namespace sora::testing
