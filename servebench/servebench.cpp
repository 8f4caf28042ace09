// servebench_pass — one pass of the serve-path benchmark: set up a daemon,
// stream a workload's ticks through it as a closed loop, check what it
// published, and print one JSON object with the raw samples.
//
//   servebench_pass --workload paper-wikipedia --seed 7
//                   [--short] [--traced --trace-out FILE]
//
// run.py in this directory starts one process per pass and turns the samples
// into metrics; this program computes no statistics of its own. A pass is
// one restart of the daemon: set-up (instance synthesis, validate_instance,
// ServeDaemon construction, repeated kSetupReps times because one set-up is
// too short to time) followed by the tick stream against the last daemon
// built: the whole stream, or with --short the per-layer run's prefix. The
// first tick is a cold solve and stays in the stream. After the stream the
// set-up is timed kSetupReps times more.
//
// Every input the program reads from the environment is set here:
// SORA_THREADS (before the shared pool is created), metrics, tracing, the
// slot budget, the incident directory and the log level. run.py also starts
// this process with every SORA_* variable removed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cloudnet/instance.hpp"
#include "cloudnet/workload.hpp"
#include "core/cost.hpp"
#include "obs/obs.hpp"
#include "serve/daemon.hpp"
#include "serve/tick.hpp"
#include "testing/generator.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace sora;

// The workload table. Why each exists is in NOTES.md.
struct Workload {
  const char* name;
  bool scaled;            // testing::generate_scaled_instance, else the paper
  // The paper trace's AR(1) noise comes from the run seed, else from the
  // deployment seed (the Fig.-5 horizon). Only paper-wikipedia is seeded:
  // the deadline stream's coverage misses compound, so other noise moved
  // its failing ticks (NOTES.md).
  bool seeded_trace;
  double budget_seconds;  // ServeOptions::roa.slo.budget_seconds; 0 = none
  std::size_t horizon;    // hours of demand and prices the instance holds
  // Ticks streamed from the start hour on. The deadline stream stops at
  // 50: it crosses two morning ramps, and two passes give slot_p90_ms 10
  // ticks beyond it in a run of under a minute (NOTES.md).
  std::size_t ticks;
  // Ticks of a --short pass, which the per-layer (--trace 1) run streams
  // twice, untraced and traced. Per-layer figures need no percentile, so
  // scaled-32x256 streams a prefix that still holds the cold first tick and
  // the stalled tick 21; the paper streams stay whole.
  std::size_t short_ticks;
  // The hour of the horizon the stream starts at. From hour 7 the scaled
  // stream's tick 21 stalls ADMM and demotes to the monolithic solve
  // (12-18 s, 169 MB), as from hour 10 but not from hours 1-6, 8 or 9.
  std::size_t start_hour;
};

constexpr Workload kWorkloads[] = {
    {"paper-wikipedia", false, true, 0.0, 120, 120, 120, 0},
    {"scaled-32x256", true, false, 0.0, 100, 100, 25, 7},
    {"paper-wikipedia-deadline", false, false, 1e-3, 120, 50, 50, 0},
};

// Shared-pool workers on every stream. With one, every fan-out runs inline
// and wall time follows CPU time: with two workers the paper stream waited
// on them for 2-17% of its wall time, and the scaled stream's wall time
// rose 62-78% between two sets while its CPU time rose 13%, as the host
// granted fewer cores (NOTES.md).
constexpr std::size_t kPoolThreads = 1;

// Set-ups per round, one round before the stream and one after it: one
// set-up is under a millisecond on the paper topology, too short to time
// alone. The first few of a process run cold and an occasional one is
// preempted, so the median of 15 still moved by a third between passes; the
// median of 100 sits on the warm plateau. A round lasts about 40 ms, and the
// host's speed differed by half between two such moments of one process, so
// the second round samples it at another moment (NOTES.md).
constexpr int kSetupReps = 100;

// Allocations within this of every P1 row count as feasible (the tolerance
// of core::is_feasible).
constexpr double kFeasTol = 1e-6;
// Daemon cost against core::total_cost over the published trajectory.
constexpr double kCostRelTol = 1e-9;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::string trace_out;
  bool short_stream = false;
};

[[noreturn]] void die(const std::string& message) {
  std::cerr << "servebench_pass: " << message << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    auto value = [&]() -> std::string {
      if (a + 1 >= argc) die("missing value for " + flag);
      return argv[++a];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--traced") {
      args.traced = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--short") {
      args.short_stream = true;
    } else {
      die("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed) die("need --workload and --seed");
  if (args.traced && args.trace_out.empty()) die("--traced needs --trace-out");
  return args;
}

// Deployment seeds. A new topology or price field per run seed moved a
// stream's work by up to 2x (NOTES.md), so the deployment is fixed.
constexpr std::uint64_t kPaperSeed = 42;   // sora_serve's default --seed
constexpr std::uint64_t kScaledSeed = 11;  // BM_SlotLatency*'s 32x256 seed

// The seed the stream's demand rows are drawn from.
std::uint64_t demand_seed(const Workload& w, std::uint64_t seed) {
  if (w.scaled) return kScaledSeed;
  return w.seeded_trace ? seed : kPaperSeed;
}

// What sora_serve builds at start-up from its flags: topology, capacities,
// prices and the demand horizon. Its demand rows are the tick stream (see
// make_tick_lines), rotated so slot t serves hour (t + start_hour) mod
// horizon; rotation keeps the peak, so the capacities stay the same.
core::Instance synthesize(const Workload& w, std::uint64_t seed) {
  core::Instance inst;
  if (w.scaled) {
    testing::ScaledTopologyConfig cfg;
    cfg.num_tier2 = 32;
    cfg.num_tier1 = 256;
    cfg.sla_k = 2;
    cfg.horizon = w.horizon;
    cfg.seed = kScaledSeed;
    inst = testing::generate_scaled_instance(cfg);
  } else {
    util::Rng rng(demand_seed(w, seed));
    const cloudnet::WorkloadTrace trace =
        cloudnet::wikipedia_like(w.horizon, rng);
    cloudnet::InstanceConfig cfg;
    cfg.num_tier2 = 18;
    cfg.num_tier1 = 48;
    cfg.sla_k = 2;
    cfg.reconfig_weight = 1e3;
    cfg.seed = kPaperSeed;
    inst = cloudnet::build_instance(cfg, trace);
  }
  std::rotate(inst.demand.begin(),
              inst.demand.begin() + static_cast<std::ptrdiff_t>(w.start_hour),
              inst.demand.end());
  return inst;
}

// The wire lines the daemon is fed, one per slot (requests_per_unit 1, so
// each parsed count is the instance's lambda_jt; check_tick_round_trip
// holds that exactly, which lets the audit read inst.demand).
std::vector<std::string> make_tick_lines(const core::Instance& inst,
                                         std::size_t ticks) {
  std::vector<std::string> lines;
  lines.reserve(ticks);
  for (std::size_t t = 0; t < ticks; ++t)
    lines.push_back(serve::format_tick_line(t, inst.demand[t]));
  return lines;
}

void check_tick_round_trip(const core::Instance& inst,
                           const std::vector<std::string>& lines) {
  for (std::size_t t = 0; t < lines.size(); ++t) {
    serve::Tick tick;
    std::string error;
    if (!serve::parse_tick_line(lines[t], inst.num_tier1(), tick, &error))
      die("generated tick " + std::to_string(t) + " does not parse: " + error);
    if (tick.slot != t || tick.requests != inst.demand[t])
      die("generated tick " + std::to_string(t) + " does not round-trip");
  }
}

serve::ServeOptions serve_options(const Workload& w) {
  serve::ServeOptions options;
  options.roa.eps = options.roa.eps_prime = 1e-2;
  options.roa.slo.budget_seconds = w.budget_seconds;
  options.requests_per_unit = 1.0;
  return options;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

bool all_finite(const core::Allocation& alloc) {
  for (const core::Vec* v : {&alloc.x, &alloc.y, &alloc.z})
    for (const double value : *v)
      if (!std::isfinite(value)) return false;
  return true;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

template <typename T, typename F>
std::string json_array(const std::vector<T>& values, F render) {
  std::string out = "[";
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k > 0) out += ",";
    out += render(values[k]);
  }
  return out + "]";
}

std::uint64_t spans_dropped(const std::string& trace_json) {
  const std::string key = "\"dropped\":";
  const std::size_t at = trace_json.rfind(key);
  if (at == std::string::npos) die("trace export has no dropped count");
  return std::stoull(trace_json.substr(at + key.size()));
}

struct TickRecord {
  double parse_s = 0.0;
  double step_s = 0.0;
  double latency_s = 0.0;  // SlotResult::latency_seconds
  bool deadline_miss = false;
  bool degraded = false;
  bool hold_repair = false;
  bool ok = false;          // finite and P1-feasible
  double violation = 0.0;   // core::slot_violation; NaN when not finite
};

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  die("built without NDEBUG: refusing to record numbers from a debug build");
#endif
  const Args args = parse_args(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) workload = &w;
  if (workload == nullptr) die("unknown workload " + args.workload);

  // The shared pool reads SORA_THREADS when first used, inside the first
  // tick; set it before anything can create the pool.
  if (setenv("SORA_THREADS", std::to_string(kPoolThreads).c_str(), 1) != 0)
    die("cannot set SORA_THREADS");
  obs::set_metrics_enabled(args.traced);
  obs::set_trace_enabled(args.traced);
  // A traced pass records about 170 spans per scaled-32x256 tick and under
  // 1,000 in all on the paper topology; 2^20 per thread keeps every span,
  // so obs.spans_dropped reads 0 unless a change multiplies the spans.
  obs::set_trace_max_events_per_thread(std::size_t{1} << 20);
  obs::FlightRecorder::global().set_incident_dir("");
  if (obs::ScrapeServer::global().running()) obs::ScrapeServer::global().stop();
  // The deadline stream logs about three lines per tick; the counts come
  // from SlotResult instead.
  util::set_log_level(util::LogLevel::kOff);

  const serve::ServeOptions options = serve_options(*workload);
  std::vector<double> instance_s;
  std::vector<double> daemon_s;
  // One round of timed set-ups; `inst` and `daemon` keep the last one.
  auto set_up = [&](std::unique_ptr<core::Instance>& inst,
                    std::unique_ptr<serve::ServeDaemon>& daemon) {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      daemon.reset();
      obs::Span setup_span("bench/setup");
      util::Timer timer;
      {
        obs::Span span("bench/instance_build");
        inst =
            std::make_unique<core::Instance>(synthesize(*workload, args.seed));
        const cloudnet::ValidationReport report =
            cloudnet::validate_instance(*inst);
        if (!report.ok) die("instance invalid: " + report.problems.front());
      }
      instance_s.push_back(timer.seconds());
      timer.reset();
      {
        obs::Span span("bench/daemon_construct");
        daemon = std::make_unique<serve::ServeDaemon>(*inst, options);
      }
      daemon_s.push_back(timer.seconds());
    }
  };
  std::unique_ptr<core::Instance> inst;
  std::unique_ptr<serve::ServeDaemon> daemon;
  set_up(inst, daemon);

  const std::vector<std::string> lines = make_tick_lines(
      *inst, args.short_stream ? workload->short_ticks : workload->ticks);
  check_tick_round_trip(*inst, lines);
  const std::size_t num_sites = inst->num_tier1();

  std::vector<TickRecord> records(lines.size());
  core::Trajectory trajectory;
  trajectory.slots.reserve(lines.size());
  std::vector<std::uint64_t> hashes;
  hashes.reserve(lines.size());
  std::size_t failed = 0;

  // The registry's own JSON export (%.17g, so sums survive exactly);
  // run.py takes the deltas.
  const std::string before =
      args.traced ? obs::Registry::global().render_json() : "";
  const double cpu_before = cpu_seconds();
  util::Timer stream_timer;
  for (std::size_t t = 0; t < lines.size(); ++t) {
    obs::Span tick_span("bench/tick");
    TickRecord& rec = records[t];
    serve::Tick tick;
    util::Timer timer;
    {
      obs::Span span("bench/tick_parse");
      if (!serve::parse_tick_line(lines[t], num_sites, tick))
        die("tick " + std::to_string(t) + " stopped parsing");
    }
    rec.parse_s = timer.seconds();
    timer.reset();
    serve::SlotResult result;
    try {
      obs::Span span("bench/step");
      result = daemon->step(tick);
    } catch (const std::exception& e) {
      // Not served: x_{t-1} stays deployed. The cost check then fails the
      // run as well.
      std::cerr << "servebench_pass: tick " << t << " failed: " << e.what()
                << "\n";
      ++failed;
      result.alloc = daemon->previous();
    }
    rec.step_s = timer.seconds();
    rec.latency_s = result.latency_seconds;
    rec.deadline_miss = result.deadline_miss;
    rec.degraded = result.degraded;
    rec.hold_repair = std::string(result.backend) == "hold_repair";
    hashes.push_back(result.alloc_hash);
    trajectory.slots.push_back(std::move(result.alloc));
  }
  const double stream_s = stream_timer.seconds();
  const double cpu_s = cpu_seconds() - cpu_before;
  const std::string after =
      args.traced ? obs::Registry::global().render_json() : "";
  util::set_log_level(util::LogLevel::kInfo);

  // Output checks. They never abort the pass: run.py turns them into the
  // result's `correct` flag and ok_share.
  std::size_t ok_ticks = 0;
  std::uint64_t fingerprint = 1469598103934665603ull;
  double cost_recomputed = 0.0;
  {
    obs::Span span("bench/checks");
    for (std::size_t t = 0; t < records.size(); ++t) {
      const core::Allocation& alloc = trajectory.slots[t];
      TickRecord& rec = records[t];
      const bool finite = all_finite(alloc);
      rec.violation = finite ? core::slot_violation(*inst, t, alloc) : NAN;
      rec.ok = finite && rec.violation <= kFeasTol;
      if (rec.ok) ++ok_ticks;
      fingerprint = (fingerprint ^ hashes[t]) * 1099511628211ull;
    }
    cost_recomputed = core::total_cost(*inst, trajectory).total();
  }
  const double cost_daemon = daemon->stats().cost.total();
  const bool cost_match = std::abs(cost_recomputed - cost_daemon) <=
                          kCostRelTol * std::abs(cost_daemon);
  {
    std::unique_ptr<core::Instance> spare_inst;
    std::unique_ptr<serve::ServeDaemon> spare_daemon;
    set_up(spare_inst, spare_daemon);
  }

  std::uint64_t dropped = 0;
  if (args.traced) {
    obs::set_trace_enabled(false);
    const std::string trace_json = obs::render_trace_json();
    dropped = spans_dropped(trace_json);
    std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
    if (f == nullptr) die("cannot open " + args.trace_out);
    const bool written =
        std::fwrite(trace_json.data(), 1, trace_json.size(), f) ==
        trace_json.size();
    if (std::fclose(f) != 0 || !written)
      die("short write to " + args.trace_out);
  }

  char fp_hex[17];
  std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  if (util::ThreadPool::shared().thread_count() != kPoolThreads)
    die("the shared pool was created before SORA_THREADS was set");

  std::ostringstream out;
  out << "{\"workload\":" << json_string(workload->name)
      << ",\"seed\":" << args.seed
      << ",\"start_hour\":" << workload->start_hour
      << ",\"demand_seed\":" << demand_seed(*workload, args.seed)
      << ",\"ticks\":" << lines.size()
      << ",\"traced\":" << (args.traced ? "true" : "false")
      << ",\"pool_threads\":" << kPoolThreads
      << ",\"compiler\":" << json_string(__VERSION__)
      << ",\"setup_instance_s\":" << json_array(instance_s, json_number)
      << ",\"setup_daemon_s\":" << json_array(daemon_s, json_number)
      << ",\"stream_s\":" << json_number(stream_s)
      << ",\"cpu_s\":" << json_number(cpu_s)
      << ",\"peak_rss_kb\":" << peak_rss_kb() << ",\"failed\":" << failed;
  auto field = [&](const char* name, auto get) {
    out << ",\"" << name << "\":" << json_array(records, get);
  };
  field("parse_s", [](const TickRecord& r) { return json_number(r.parse_s); });
  field("step_s", [](const TickRecord& r) { return json_number(r.step_s); });
  field("latency_s",
        [](const TickRecord& r) { return json_number(r.latency_s); });
  field("violation",
        [](const TickRecord& r) { return json_number(r.violation); });
  auto flag = [](bool b) { return std::string(b ? "1" : "0"); };
  field("deadline_miss",
        [&](const TickRecord& r) { return flag(r.deadline_miss); });
  field("degraded", [&](const TickRecord& r) { return flag(r.degraded); });
  field("hold_repair",
        [&](const TickRecord& r) { return flag(r.hold_repair); });
  field("ok", [&](const TickRecord& r) { return flag(r.ok); });
  out << ",\"ok_ticks\":" << ok_ticks
      << ",\"cost_daemon\":" << json_number(cost_daemon)
      << ",\"cost_recomputed\":" << json_number(cost_recomputed)
      << ",\"cost_match\":" << (cost_match ? "true" : "false")
      << ",\"fingerprint\":\"" << fp_hex << "\"";
  if (args.traced)
    out << ",\"registry_before\":" << before.substr(0, before.size() - 1)
        << ",\"registry_after\":" << after.substr(0, after.size() - 1)
        << ",\"spans_dropped\":" << dropped;
  out << "}\n";
  std::cout << out.str();
  return 0;
}
