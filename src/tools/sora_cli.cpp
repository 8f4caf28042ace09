// sora_cli — run any of the library's allocation policies on a configurable
// cloud-network instance from the command line.
//
//   sora_cli --algorithm roa --workload wikipedia --hours 120 --b 1000
//   sora_cli --algorithm rfhc --window 6 --error 0.10
//   sora_cli --algorithm all --trace my_demand.csv --out run.csv
//
// Flags (all optional):
//   --algorithm   roa|greedy|offline|lcpm|dcnc|fhc|rhc|rfhc|rrhc|afhc|all [roa]
//   --workload    wikipedia|worldcup      (ignored when --trace given)
//   --trace       CSV file with one demand column (peak normalized to 1)
//   --hours       horizon in slots                                [120]
//   --tier2/--tier1  topology sizes                               [6/12]
//   --k           SLA size (closest tier-2 clouds per edge cloud) [1]
//   --b           reconfiguration weight                          [1000]
//   --eps         regularization epsilon (ROA/RFHC/RRHC)          [0.01]
//   --window      prediction window (FHC/RHC/RFHC/RRHC/AFHC)      [4]
//   --error       prediction noise (fraction of mean)             [0]
//   --model-tier1 include the F_1 processing term                 [false]
//   --seed        RNG seed                                        [42]
//   --simulate    replay each trajectory: drops, utilization, SLA [false]
//   --certify     build + check the competitive certificate       [false]
//   --out         write the per-slot cost series to this CSV
//   --metrics-out    write the metrics registry to this file
//   --metrics-format text|json (default: json, or text for .txt/.prom)
//   --trace-out      write a Chrome trace-event JSON to this file
//   --metrics-port P serve live Prometheus text on 127.0.0.1:P/metrics
//                    (enables metrics; same contract as SORA_METRICS_PORT)
//   --slot-budget-ms B  per-slot deadline budget for the SLO report
//                       (0 = quantiles only)                   [0]
//   --inject-faults RATE  force solver faults on ~RATE of slots (0 = off);
//                         exercises the resilience chain (docs/ROBUSTNESS.md)
//   --inject-seed S       fault-schedule seed                     [--seed]
//   --inject-attempts N   barrier attempts forced to fail per faulted slot:
//                         1 = warm slots restart cold, cold ones hold +
//                         repair; 2+ = every faulted slot holds + repairs
//                         [1; the outage lab defaults to 6]
//
// Adversarial scenario lab (docs/TESTING.md "Scenario suite"):
//   --scenario misreport|outage|rivals   run a lab instead of one algorithm
//   --greedy-frac F   misreport: fraction of greedy tier-1 sites   [0.25]
//   --inflate F       misreport: reported demand inflation factor  [1.8]
//   --dcnc-v V        DCNC drift-plus-penalty tradeoff             [1.0]
//   --outage-rate R   outage: events per region per 100 slots      [3.0]
//   --outage-duration D  outage: mean event length in slots        [3.0]
//   --seeds N         rivals: Monte Carlo sweep width              [5]
//   --scenario-out FILE  write the lab metrics as flat JSON (the
//                        golden-metrics diff input of sora_golden_check)
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "baselines/dcnc.hpp"
#include "baselines/lcp_m.hpp"
#include "baselines/offline.hpp"
#include "baselines/oneshot.hpp"
#include "core/certificate.hpp"
#include "core/competitive.hpp"
#include "core/cost.hpp"
#include "core/predictive.hpp"
#include "core/roa.hpp"
#include "eval/replay.hpp"
#include "eval/scenario_lab.hpp"
#include "obs/obs.hpp"
#include "testing/fault_injection.hpp"
#include "util/csv.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace {

using namespace sora;

struct NamedRun {
  std::string name;
  core::Trajectory trajectory;
  core::CostBreakdown cost;
  double seconds = 0.0;
  // Resilience accounting where the policy exposes it (ROA slot health,
  // predictive repair counters); zero on healthy solvers.
  std::size_t fallback_slots = 0;
  std::size_t degraded_slots = 0;
  std::size_t failed_repairs = 0;
  double repair_cost_delta = 0.0;
  // Slot-SLO rollup where the policy exposes it (ROA, predictive).
  obs::SlotSloReport slo;
};

NamedRun run_algorithm(const std::string& name, const core::Instance& inst,
                       const util::Options& opts) {
  util::Timer timer;
  NamedRun out;
  out.name = name;

  core::RoaOptions roa;
  roa.eps = roa.eps_prime = opts.get_double("eps", 1e-2);
  roa.slo.budget_seconds = opts.get_double("slot-budget-ms", 0.0) * 1e-3;
  core::ControlOptions control;
  control.window = static_cast<std::size_t>(opts.get_int("window", 4));
  control.prediction = {opts.get_double("error", 0.0),
                        static_cast<std::uint64_t>(opts.get_int("seed", 42))};
  control.roa = roa;

  const auto take_control = [&out](const core::ControlRun& run) {
    out.trajectory = run.trajectory;
    out.failed_repairs = run.failed_repairs;
    out.slo = run.slo;
  };
  if (name == "roa") {
    const core::RoaRun run = core::run_roa(inst, roa);
    out.trajectory = run.trajectory;
    out.fallback_slots = run.fallback_slots;
    out.degraded_slots = run.degraded_slots;
    out.repair_cost_delta = run.repair_cost_delta;
    out.slo = run.slo;
  } else if (name == "greedy") {
    out.trajectory = baselines::run_one_shot_sequence(inst).trajectory;
  } else if (name == "offline") {
    out.trajectory = baselines::run_offline_optimum(inst).trajectory;
  } else if (name == "lcpm") {
    out.trajectory = baselines::run_lcp_m(inst).trajectory;
  } else if (name == "dcnc") {
    baselines::DcncOptions dcnc;
    dcnc.V = opts.get_double("dcnc-v", 1.0);
    const baselines::DcncRun run = baselines::run_dcnc(inst, dcnc);
    out.trajectory = run.trajectory;
    std::printf("dcnc backlog: mean %.3f max %.3f final %.3f (demand units)\n",
                run.mean_backlog, run.max_backlog, run.final_backlog);
  } else if (name == "fhc") {
    take_control(core::run_fhc(inst, control));
  } else if (name == "rhc") {
    take_control(core::run_rhc(inst, control));
  } else if (name == "rfhc") {
    take_control(core::run_rfhc(inst, control));
  } else if (name == "rrhc") {
    take_control(core::run_rrhc(inst, control));
  } else if (name == "afhc") {
    take_control(core::run_afhc(inst, control));
  } else {
    std::cerr << "unknown algorithm: " << name << "\n";
    std::exit(2);
  }
  out.cost = core::total_cost(inst, out.trajectory);
  out.seconds = timer.seconds();
  return out;
}

void print_policy_rows(const std::vector<eval::PolicyOutcome>& rows) {
  std::printf("%-6s %12s %9s %9s %9s %9s %9s %9s\n", "policy", "cost",
              "welfare", "jainLong", "jainShrt", "effic", "grdAlloc",
              "backlog");
  for (const auto& p : rows)
    std::printf("%-6s %12.2f %9.4f %9.4f %9.4f %9.4f %9.4f %9.3f\n",
                p.policy.c_str(), p.cost.total(), p.fairness.welfare,
                p.fairness.jain_service_long, p.fairness.jain_service_short,
                p.fairness.mean_efficiency,
                p.fairness.greedy_allocation_share, p.mean_backlog);
}

void print_seed_stats(const char* name, const eval::SeedStats& s) {
  std::printf("%-14s %12.2f %12.2f %12.2f %5zu %5zu %6zu %6zu\n", name,
              s.mean, s.min, s.max, s.samples, s.failures,
              s.seeds_with_fallbacks, s.seeds_with_degradation);
}

// The adversarial scenario lab: --scenario misreport|outage|rivals. Builds
// the eval Scenario from the shared topology/workload flags, runs the lab,
// prints a comparison table, and (with --scenario-out) writes the flat
// metrics JSON consumed by sora_golden_check in CI.
int run_scenario_mode(const std::string& mode, const util::Options& opts) {
  eval::Scenario scenario;
  // The rivalry lab defaults to the bursty WorldCup-like trace — that is
  // the regime where the DCNC-vs-ROA tradeoff is interesting.
  const std::string workload = opts.get_string(
      "workload", mode == "rivals" ? "worldcup" : "wikipedia");
  scenario.workload = workload == "worldcup" ? eval::Workload::kWorldCup
                                             : eval::Workload::kWikipedia;
  scenario.sla_k = static_cast<std::size_t>(opts.get_int("k", 1));
  scenario.reconfig_weight = opts.get_double("b", 1000.0);
  scenario.seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));

  eval::EvalScale scale;
  scale.num_tier2 = static_cast<std::size_t>(opts.get_int("tier2", 6));
  scale.num_tier1 = static_cast<std::size_t>(opts.get_int("tier1", 12));
  const std::size_t hours =
      static_cast<std::size_t>(opts.get_int("hours", 120));
  scale.horizon_wikipedia = scale.horizon_worldcup = hours;

  eval::LabPolicies policies;
  policies.dcnc_options.V = opts.get_double("dcnc-v", 1.0);
  policies.control.window = static_cast<std::size_t>(opts.get_int("window", 4));

  std::map<std::string, double> metrics;
  if (mode == "misreport") {
    eval::MisreportSpec spec;
    spec.greedy_fraction = opts.get_double("greedy-frac", 0.25);
    spec.inflation = opts.get_double("inflate", 1.8);
    spec.seed = scenario.seed + 101;
    const auto result =
        eval::run_misreport_lab(scenario, scale, spec, policies);
    std::printf("misreport lab: %zu/%zu greedy sites, inflation %.2f\n\n",
                result.num_greedy, result.num_sites, spec.inflation);
    std::printf("-- planned on MISREPORTED demand --\n");
    print_policy_rows(result.misreported);
    std::printf("\n-- honest-reporting reference --\n");
    print_policy_rows(result.honest);
    metrics = eval::to_metrics(result);
  } else if (mode == "outage") {
    testing::RegionalOutagePlan plan;
    plan.events_per_100_slots = opts.get_double("outage-rate", 3.0);
    plan.mean_duration = opts.get_double("outage-duration", 3.0);
    plan.seed = scenario.seed + 31;
    plan.max_slots = hours;
    plan.forced_attempts =
        static_cast<std::size_t>(opts.get_int("inject-attempts", 6));
    const auto result = eval::run_outage_lab(scenario, scale, plan);
    std::printf(
        "outage lab: %zu events over %zu slots (max %zu clouds down, "
        "max %zu dark sites)\n"
        "  clean cost    %12.2f\n"
        "  faulted cost  %12.2f   (ratio %.3f, bound %.1fx: %s)\n"
        "  degraded %zu slots, fallbacks %zu\n",
        result.events, result.outage_slots, result.max_clouds_down,
        result.max_dark_sites, result.clean_cost, result.faulted_cost,
        result.cost_ratio, result.bound, result.bound_ok ? "ok" : "VIOLATED",
        result.degraded_slots, result.fallback_slots);
    metrics = eval::to_metrics(result);
  } else if (mode == "rivals") {
    const std::size_t seeds =
        static_cast<std::size_t>(opts.get_int("seeds", 5));
    const auto result =
        eval::run_rivalry_lab(scenario, scale, seeds, policies);
    std::printf("rivalry lab: %zu seeds, %s trace, V=%.2f\n\n", seeds,
                workload.c_str(), policies.dcnc_options.V);
    std::printf("%-14s %12s %12s %12s %5s %5s %6s %6s\n", "metric", "mean",
                "min", "max", "n", "fail", "fbk", "degr");
    print_seed_stats("roa_cost", result.roa_cost);
    print_seed_stats("rfhc_cost", result.rfhc_cost);
    print_seed_stats("dcnc_cost", result.dcnc_cost);
    print_seed_stats("dcnc_backlog", result.dcnc_backlog);
    metrics = eval::to_metrics(result);
  } else {
    std::cerr << "unknown scenario: " << mode
              << " (expected misreport|outage|rivals)\n";
    return 2;
  }

  const std::string out = opts.get_string("scenario-out", "");
  if (!out.empty()) {
    eval::write_metrics_json(metrics, out);
    std::cout << "\nscenario metrics written to " << out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout <<
          "usage: sora_cli [flags]\n"
          "  --algorithm roa|greedy|offline|lcpm|dcnc|fhc|rhc|rfhc|rrhc|afhc"
          "|all\n"
          "  --workload wikipedia|worldcup   --trace FILE.csv\n"
          "  --hours N --tier2 N --tier1 N --k K --b WEIGHT --eps EPS\n"
          "  --window W --error PCT --model-tier1 --seed S\n"
          "  --simulate   replay metrics (drops, utilization, SLA)\n"
          "  --certify    competitive certificate (Theorem 1 per run)\n"
          "  --out FILE   per-slot cumulative-cost CSV\n"
          "  --metrics-out FILE    solver/ROA metrics (json, or text for\n"
          "                        .txt/.prom; --metrics-format overrides)\n"
          "  --metrics-format text|json\n"
          "  --metrics-port P      live Prometheus scrape on 127.0.0.1:P\n"
          "                        (enables metrics; env: SORA_METRICS_PORT)\n"
          "  --slot-budget-ms B    per-slot SLO deadline budget in ms\n"
          "                        (default 0 = off)\n"
          "  --trace-out FILE      Chrome trace-event JSON (Perfetto)\n"
          "  --inject-faults RATE  force solver faults on ~RATE of slots\n"
          "  --inject-seed S       fault-schedule seed (default --seed)\n"
          "  --inject-attempts N   barrier attempts failed per faulted slot\n"
          "                        (1: warm restarts cold, cold holds+repairs;\n"
          "                        2+: every faulted slot holds+repairs)\n"
          "scenario lab (replaces the algorithm run):\n"
          "  --scenario misreport|outage|rivals\n"
          "  --greedy-frac F --inflate F     misreport knobs   [0.25 / 1.8]\n"
          "  --dcnc-v V                      DCNC tradeoff     [1.0]\n"
          "  --outage-rate R --outage-duration D  outage knobs [3.0 / 3.0]\n"
          "  --seeds N                       rivals sweep width [5]\n"
          "  --scenario-out FILE             flat metrics JSON for the\n"
          "                                  golden diff (sora_golden_check)\n";
      return 0;
    }
  }
  const auto opts = util::Options::parse(
      argc, argv,
      {"algorithm", "workload", "trace", "hours", "tier2", "tier1", "k", "b",
       "eps", "window", "error", "model-tier1", "seed", "simulate", "certify",
       "out", "metrics-out", "metrics-format", "metrics-port",
       "slot-budget-ms", "trace-out", "inject-faults",
       "inject-seed", "inject-attempts", "scenario", "greedy-frac", "inflate",
       "dcnc-v", "outage-rate", "outage-duration", "seeds", "scenario-out"});

  const std::string scenario_mode = opts.get_string("scenario", "");
  if (!scenario_mode.empty()) return run_scenario_mode(scenario_mode, opts);

  const std::string metrics_out = opts.get_string("metrics-out", "");
  const std::string trace_out = opts.get_string("trace-out", "");
  if (!metrics_out.empty()) obs::set_metrics_enabled(true);
  if (!trace_out.empty()) obs::set_trace_enabled(true);
  if (opts.has("metrics-port")) {
    const int port = opts.get_int("metrics-port", 0);
    obs::set_metrics_enabled(true);
    const int bound = obs::start_global_scrape_server(port);
    if (bound < 0) {
      std::cerr << "failed to start scrape server on port " << port << "\n";
      return 1;
    }
    std::cout << "metrics: live scrape at http://127.0.0.1:" << bound
              << "/metrics\n";
  }

  const core::Instance inst = cloudnet::instance_from_flags(opts);
  const auto report = cloudnet::validate_instance(inst);
  if (!report.ok) {
    std::cerr << "instance invalid: " << report.problems[0] << "\n";
    return 1;
  }
  std::cout << "instance: " << inst.num_tier2() << " tier-2 x "
            << inst.num_tier1() << " tier-1, " << inst.num_edges()
            << " edges, " << inst.horizon << " slots"
            << (inst.has_tier1() ? ", with F_1 term" : "") << "\n";

  // Optional fault injection: a seeded schedule forces per-slot solver
  // failures so the fallback chain (and its accounting) can be exercised
  // from the command line. RAII: the hook clears at scope exit.
  std::unique_ptr<testing::FaultInjector> injector;
  const double inject_rate = opts.get_double("inject-faults", 0.0);
  if (inject_rate > 0.0) {
    testing::FaultPlan plan;
    plan.fault_rate = inject_rate;
    plan.seed = static_cast<std::uint64_t>(
        opts.get_int("inject-seed", opts.get_int("seed", 42)));
    plan.forced_attempts =
        static_cast<std::size_t>(opts.get_int("inject-attempts", 1));
    injector = std::make_unique<testing::FaultInjector>(plan);
    std::size_t scheduled = 0;
    for (std::size_t t = 0; t < inst.horizon; ++t)
      if (injector->faulted(t)) ++scheduled;
    std::cout << "fault injection: rate " << inject_rate << ", seed "
              << plan.seed << ", " << plan.forced_attempts
              << " forced attempt(s) on " << scheduled << "/" << inst.horizon
              << " slots\n";
  }

  const std::string algorithm = opts.get_string("algorithm", "roa");
  std::vector<std::string> names;
  if (algorithm == "all") {
    names = {"greedy", "roa",  "lcpm", "dcnc",    "fhc",
             "rhc",    "rfhc", "rrhc", "offline"};
  } else {
    names = {algorithm};
  }

  std::vector<NamedRun> runs;
  for (const auto& name : names) runs.push_back(run_algorithm(name, inst, opts));

  std::printf("\n%-9s %14s %14s %14s %9s\n", "policy", "total", "allocation",
              "reconfig", "seconds");
  for (const auto& run : runs)
    std::printf("%-9s %14.2f %14.2f %14.2f %9.2f\n", run.name.c_str(),
                run.cost.total(), run.cost.allocation,
                run.cost.reconfiguration, run.seconds);

  // Solver-health table: shown whenever faults were injected or any run
  // actually fell back, so clean runs stay uncluttered.
  bool any_unhealthy = false;
  for (const auto& run : runs)
    any_unhealthy |= run.fallback_slots > 0 || run.degraded_slots > 0 ||
                     run.failed_repairs > 0;
  if (injector || any_unhealthy) {
    std::printf("\nsolver health:\n");
    std::printf("%-9s %10s %10s %14s %14s\n", "policy", "fallbacks",
                "degraded", "failed-repair", "repair-cost");
    for (const auto& run : runs)
      std::printf("%-9s %10zu %10zu %14zu %14.2f\n", run.name.c_str(),
                  run.fallback_slots, run.degraded_slots, run.failed_repairs,
                  run.repair_cost_delta);
    if (injector)
      std::printf("  faults delivered through the hook: %zu\n",
                  injector->injections());
  }

  // Slot-SLO table: shown for any policy that tracked per-slot latency
  // (ROA and the predictive controllers). Quantiles are the run's exact
  // nearest-rank values; the scrape endpoint exports the same latencies as
  // the sora_slot_latency_seconds histogram.
  bool any_slo = false;
  for (const auto& run : runs) any_slo |= run.slo.slots > 0;
  if (any_slo) {
    std::printf("\nslot SLO (ms):\n");
    std::printf("%-9s %9s %9s %9s %9s %9s %10s\n", "policy", "p50", "p95",
                "p99", "max", "budget", "misses");
    for (const auto& run : runs) {
      if (run.slo.slots == 0) continue;
      std::printf("%-9s %9.3f %9.3f %9.3f %9.3f %9.3f %6zu/%zu\n",
                  run.name.c_str(), run.slo.p50_seconds * 1e3,
                  run.slo.p95_seconds * 1e3, run.slo.p99_seconds * 1e3,
                  run.slo.max_seconds * 1e3, run.slo.budget_seconds * 1e3,
                  run.slo.deadline_misses, run.slo.slots);
    }
  }

  if (algorithm == "all") {
    const double opt = runs.back().cost.total();  // offline is last
    std::printf("\nratios vs offline optimum:\n");
    for (const auto& run : runs)
      std::printf("  %-9s %.3f\n", run.name.c_str(), run.cost.total() / opt);
  }

  if (opts.get_bool("simulate", false)) {
    std::printf("\nservice replay (true demand):\n");
    std::printf("%-9s %10s %12s %12s %14s\n", "policy", "drop%", "SLA-slots",
                "util(x)", "overprovision");
    for (const auto& run : runs) {
      const auto replay = eval::replay_trajectory(inst, run.trajectory);
      std::printf("%-9s %9.3f%% %12zu %12.3f %14.3f\n", run.name.c_str(),
                  100.0 * replay.drop_rate, replay.violation_slots,
                  replay.mean_tier2_utilization,
                  replay.overprovision_factor);
    }
  }

  if (opts.get_bool("certify", false)) {
    core::RoaOptions roa;
    roa.eps = roa.eps_prime = opts.get_double("eps", 1e-2);
    roa.ipm.tol = 1e-6;  // multiplier-quality sweet spot (certificate.hpp)
    const auto cert = core::verify_competitive_certificate(inst, roa);
    std::printf(
        "\ncompetitive certificate (Steps 2-4):\n"
        "  dual lower bound D:   %.2f\n"
        "  ROA cost:             %.2f\n"
        "  certified ratio:      %.3f\n"
        "  Theorem 1 bound r:    %.3f\n"
        "  dual violation (rel): %.2e\n"
        "  consistent:           %s\n",
        cert.dual_objective, cert.online_cost, cert.certified_ratio,
        cert.theorem1_ratio, cert.max_dual_violation,
        cert.consistent(2e-2) ? "yes" : "NO");
  }

  const std::string out_path = opts.get_string("out", "");
  if (!out_path.empty()) {
    std::vector<std::string> header{"hour", "demand"};
    for (const auto& run : runs) header.push_back(run.name + "_cumcost");
    util::CsvWriter csv(header);
    std::vector<std::vector<double>> curves;
    for (const auto& run : runs)
      curves.push_back(core::cumulative_cost(inst, run.trajectory));
    for (std::size_t t = 0; t < inst.horizon; ++t) {
      std::vector<double> row{static_cast<double>(t), inst.total_demand(t)};
      for (const auto& curve : curves) row.push_back(curve[t]);
      csv.add_numeric_row(row);
    }
    csv.write_file(out_path);
    std::cout << "\nper-slot series written to " << out_path << "\n";
  }

  if (!metrics_out.empty()) {
    // Default to JSON; .txt/.prom extensions mean Prometheus text, and an
    // explicit --metrics-format always wins.
    obs::MetricsFormat format = obs::MetricsFormat::kJson;
    const auto dot = metrics_out.rfind('.');
    const std::string ext =
        dot == std::string::npos ? "" : metrics_out.substr(dot);
    if (ext == ".txt" || ext == ".prom") format = obs::MetricsFormat::kText;
    if (opts.has("metrics-format"))
      format = obs::parse_metrics_format(opts.get_string("metrics-format", ""));
    obs::Registry::global().write_file(metrics_out, format);
    std::cout << "metrics written to " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    obs::write_trace_file(trace_out);
    std::cout << "trace written to " << trace_out << "\n";
  }
  return 0;
}
