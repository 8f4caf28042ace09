#include "cloudnet/instance.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "cloudnet/pricing.hpp"
#include "util/check.hpp"

namespace sora::cloudnet {

double Instance::total_demand(std::size_t t) const {
  SORA_CHECK(t < horizon);
  double s = 0.0;
  for (double v : demand[t]) s += v;
  return s;
}

std::vector<double> Instance::even_split(std::size_t t) const {
  SORA_CHECK(t < horizon);
  std::vector<double> x(num_edges(), 0.0);
  for (std::size_t j = 0; j < num_tier1(); ++j) {
    const auto& ids = edges_of_tier1[j];
    const double share = demand[t][j] / static_cast<double>(ids.size());
    for (const std::size_t e : ids) x[e] = share;
  }
  return x;
}

Instance build_instance(const InstanceConfig& config,
                        const WorkloadTrace& trace) {
  SORA_CHECK_MSG(trace.hours() > 0, "empty workload trace");
  SORA_CHECK(config.sla_k >= 1);
  SORA_CHECK(config.capacity_margin > 1.0);

  Instance inst;
  inst.tier2_sites = spread_subset(att_tier2_sites(), config.num_tier2);
  inst.tier1_sites = spread_subset(state_capital_sites(), config.num_tier1);
  inst.horizon = trace.hours();

  const std::size_t num_i = inst.num_tier2();
  const std::size_t num_j = inst.num_tier1();
  const std::size_t k = std::min(config.sla_k, num_i);

  // ---- SLA: k geographically nearest tier-2 clouds per tier-1 cloud.
  const auto nearest = k_nearest(inst.tier1_sites, inst.tier2_sites, k);
  inst.edges_of_tier1.resize(num_j);
  inst.edges_of_tier2.resize(num_i);
  for (std::size_t j = 0; j < num_j; ++j) {
    for (const std::size_t i : nearest[j]) {
      const std::size_t e = inst.edges.size();
      inst.edges.push_back({j, i});
      inst.edges_of_tier1[j].push_back(e);
      inst.edges_of_tier2[i].push_back(e);
    }
  }

  // ---- Workload: replicate the (peak-1) trace across all tier-1 clouds.
  inst.demand.assign(inst.horizon, std::vector<double>(num_j, 0.0));
  for (std::size_t t = 0; t < inst.horizon; ++t)
    for (std::size_t j = 0; j < num_j; ++j)
      inst.demand[t][j] = trace.demand[t];

  // ---- Capacities: peak consumes 1/margin of capacity; tier-1 peaks split
  // evenly across the k SLA clouds.
  std::vector<double> peak_j(num_j, 0.0);
  for (std::size_t t = 0; t < inst.horizon; ++t)
    for (std::size_t j = 0; j < num_j; ++j)
      peak_j[j] = std::max(peak_j[j], inst.demand[t][j]);

  inst.tier2_capacity.assign(num_i, 0.0);
  for (std::size_t j = 0; j < num_j; ++j)
    for (const std::size_t e : inst.edges_of_tier1[j])
      inst.tier2_capacity[inst.edges[e].tier2] +=
          config.capacity_margin * peak_j[j] / static_cast<double>(k);

  inst.edge_capacity.assign(inst.num_edges(), 0.0);
  for (std::size_t e = 0; e < inst.num_edges(); ++e)
    inst.edge_capacity[e] = inst.tier2_capacity[inst.edges[e].tier2];

  // ---- Tier-2 allocation prices: Table I electricity synthesis, then
  // normalize the whole field to mean 1 so the reconfiguration weight is a
  // multiple of the typical operating price.
  util::Rng rng(config.seed);
  std::vector<std::vector<double>> raw(num_i);
  double price_sum = 0.0;
  std::size_t price_count = 0;
  for (std::size_t i = 0; i < num_i; ++i) {
    util::Rng site_rng = rng.split();
    raw[i] = electricity_price_series(inst.tier2_sites[i], att_tier2_sites(),
                                      inst.horizon, site_rng);
    for (double p : raw[i]) price_sum += p;
    price_count += raw[i].size();
  }
  const double price_mean = price_sum / static_cast<double>(price_count);
  inst.tier2_price.assign(inst.horizon, std::vector<double>(num_i, 0.0));
  for (std::size_t i = 0; i < num_i; ++i)
    for (std::size_t t = 0; t < inst.horizon; ++t)
      inst.tier2_price[t][i] = raw[i][t] / price_mean;

  // ---- Edge allocation prices: Table II tier by provisioned capacity,
  // normalized to mean 1 across edges.
  inst.edge_price.assign(inst.num_edges(), 0.0);
  double bw_sum = 0.0;
  for (std::size_t e = 0; e < inst.num_edges(); ++e) {
    inst.edge_price[e] =
        bandwidth_price_usd_gb(inst.edge_capacity[e] * config.gb_per_unit);
    bw_sum += inst.edge_price[e];
  }
  const double bw_mean = bw_sum / static_cast<double>(inst.num_edges());
  for (double& p : inst.edge_price) p /= bw_mean;

  // ---- Reconfiguration prices: b_i = d_ij = weight (paper sets them equal,
  // expressed relative to the mean operating price which is 1 here).
  inst.tier2_reconfig.assign(num_i, config.reconfig_weight);
  inst.edge_reconfig.assign(inst.num_edges(), config.reconfig_weight);

  // ---- Optional tier-1 processing dimension (F_1).
  if (config.model_tier1) {
    inst.tier1_capacity.resize(num_j);
    for (std::size_t j = 0; j < num_j; ++j)
      inst.tier1_capacity[j] = config.capacity_margin * peak_j[j];
    inst.tier1_reconfig.assign(num_j, config.reconfig_weight);

    std::vector<std::vector<double>> raw_t1(num_j);
    double t1_sum = 0.0;
    std::size_t t1_count = 0;
    for (std::size_t j = 0; j < num_j; ++j) {
      util::Rng site_rng = rng.split();
      raw_t1[j] = electricity_price_series(
          inst.tier1_sites[j], state_capital_sites(), inst.horizon, site_rng);
      for (double p : raw_t1[j]) t1_sum += p;
      t1_count += raw_t1[j].size();
    }
    const double t1_mean = t1_sum / static_cast<double>(t1_count);
    inst.tier1_price.assign(inst.horizon, std::vector<double>(num_j, 0.0));
    for (std::size_t j = 0; j < num_j; ++j)
      for (std::size_t t = 0; t < inst.horizon; ++t)
        inst.tier1_price[t][j] = raw_t1[j][t] / t1_mean;
  }

  return inst;
}

Instance instance_from_flags(const util::Options& flags) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const std::size_t hours =
      static_cast<std::size_t>(flags.get_int("hours", 120));
  WorkloadTrace trace;
  const std::string trace_path = flags.get_string("trace", "");
  if (!trace_path.empty()) {
    trace = load_csv_trace(trace_path);
    if (trace.hours() > hours && flags.has("hours")) trace.demand.resize(hours);
  } else {
    util::Rng rng(seed);
    const std::string kind = flags.get_string("workload", "wikipedia");
    trace = kind == "worldcup" ? worldcup_like(hours, rng)
                               : wikipedia_like(hours, rng);
  }

  InstanceConfig cfg;
  cfg.num_tier2 = static_cast<std::size_t>(flags.get_int("tier2", 6));
  cfg.num_tier1 = static_cast<std::size_t>(flags.get_int("tier1", 12));
  cfg.sla_k = static_cast<std::size_t>(flags.get_int("k", 1));
  cfg.reconfig_weight = flags.get_double("b", 1000.0);
  cfg.seed = seed;
  cfg.model_tier1 = flags.get_bool("model-tier1", false);
  return build_instance(cfg, trace);
}

ValidationReport validate_instance(const Instance& inst) {
  ValidationReport report;
  auto fail = [&report](std::string msg) {
    report.ok = false;
    report.problems.push_back(std::move(msg));
  };

  if (inst.horizon == 0) fail("zero horizon");
  if (inst.demand.size() != inst.horizon) fail("demand/horizon mismatch");

  for (std::size_t j = 0; j < inst.num_tier1(); ++j)
    if (inst.edges_of_tier1[j].empty())
      fail("tier-1 cloud " + std::to_string(j) + " has empty SLA set");

  // Paper feasibility conditions: sum_{i in I_j} B_ij >= lambda_jt and the
  // coverage within tier-2 capacities. We check the strongest practical
  // form: the even-split point is feasible at every slot.
  for (std::size_t t = 0; t < inst.horizon && report.ok; ++t) {
    for (std::size_t j = 0; j < inst.num_tier1(); ++j) {
      double edge_total = 0.0;
      for (const std::size_t e : inst.edges_of_tier1[j])
        edge_total += inst.edge_capacity[e];
      if (edge_total < inst.demand[t][j] - 1e-9)
        fail("slot " + std::to_string(t) + ": edge capacity of tier-1 " +
             std::to_string(j) + " below demand");
      if (inst.demand[t][j] < 0.0)
        fail("negative demand at slot " + std::to_string(t));
    }
    const auto split = inst.even_split(t);
    std::vector<double> load(inst.num_tier2(), 0.0);
    for (std::size_t e = 0; e < inst.num_edges(); ++e) {
      load[inst.edges[e].tier2] += split[e];
      if (split[e] > inst.edge_capacity[e] + 1e-9)
        fail("slot " + std::to_string(t) + ": even split exceeds edge " +
             std::to_string(e));
    }
    for (std::size_t i = 0; i < inst.num_tier2(); ++i)
      if (load[i] > inst.tier2_capacity[i] + 1e-9)
        fail("slot " + std::to_string(t) +
             ": even split exceeds tier-2 capacity " + std::to_string(i));
  }

  for (double c : inst.tier2_capacity)
    if (c < 0.0) fail("negative tier-2 capacity");
  for (double b : inst.tier2_reconfig)
    if (b < 0.0) fail("negative reconfiguration price");

  if (inst.has_tier1()) {
    if (inst.tier1_capacity.size() != inst.num_tier1() ||
        inst.tier1_reconfig.size() != inst.num_tier1() ||
        inst.tier1_price.size() != inst.horizon)
      fail("tier-1 dimension size mismatch");
    // Paper feasibility condition: C_j >= lambda_jt for all t.
    for (std::size_t t = 0; t < inst.horizon && report.ok; ++t)
      for (std::size_t j = 0; j < inst.num_tier1(); ++j)
        if (inst.demand[t][j] > inst.tier1_capacity[j] + 1e-9)
          fail("tier-1 capacity below demand at slot " + std::to_string(t));
  }

  return report;
}

}  // namespace sora::cloudnet
