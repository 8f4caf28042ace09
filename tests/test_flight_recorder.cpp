// Flight recorder: ring overwrite semantics, incident JSON round-trip,
// anomaly determinism under seeded fault injection, the P1 window-LP
// iteration-limit regression (the incident the recorder exists to capture),
// and the n-tier chain filing a Newton-budget fallback as iteration_limit.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ntier.hpp"
#include "core/p1_model.hpp"
#include "core/resilience.hpp"
#include "core/roa.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "testing/fault_injection.hpp"
#include "testing/generator.hpp"
#include "util/rng.hpp"

namespace sora {
namespace {

using obs::Anomaly;
using obs::FlightRecord;
using obs::FlightRecorder;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

FlightRecord make_record(std::size_t slot, Anomaly anomaly = Anomaly::kNone) {
  FlightRecord rec;
  rec.context = "test";
  rec.slot = slot;
  rec.backend = "warm_ipm";
  rec.status = anomaly == Anomaly::kNone ? "optimal" : "iteration_limit";
  rec.anomaly = anomaly;
  return rec;
}

TEST(FlightRecorderRing, OverwritesOldestBeyondCapacity) {
  FlightRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  for (std::size_t t = 0; t < 6; ++t) rec.record(make_record(t));

  const auto ring = rec.snapshot();
  ASSERT_EQ(ring.size(), 4u);
  // Oldest first: slots 2..5 survive, 0 and 1 were overwritten.
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(ring[k].slot, k + 2);
  // Sequences are recorder-assigned and strictly increasing.
  for (std::size_t k = 1; k < 4; ++k)
    EXPECT_EQ(ring[k].sequence, ring[k - 1].sequence + 1);
  EXPECT_EQ(rec.total_records(), 6u);
  EXPECT_EQ(rec.total_anomalies(), 0u);
}

TEST(FlightRecorderRing, SetCapacityDropsContents) {
  FlightRecorder rec(4);
  rec.record(make_record(0));
  rec.set_capacity(2);
  EXPECT_TRUE(rec.snapshot().empty());
  for (std::size_t t = 0; t < 3; ++t) rec.record(make_record(t));
  EXPECT_EQ(rec.snapshot().size(), 2u);
}

TEST(FlightRecorderIncident, JsonWrittenOnAnomalyAndParses) {
  FlightRecorder rec(8);
  rec.set_incident_dir(::testing::TempDir());

  // Clean records never produce files.
  EXPECT_EQ(rec.record(make_record(0)), "");
  EXPECT_EQ(rec.incidents_written(), 0u);

  FlightRecord bad = make_record(7, Anomaly::kIterationLimit);
  bad.detail = "pdhg: iteration_limit (kkt primal 0.0036)";
  bad.fell_back = true;
  bad.attempts = 2;
  const std::string path = rec.record(bad);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(rec.incidents_written(), 1u);
  EXPECT_EQ(rec.last_incident_path(), path);
  EXPECT_EQ(rec.total_anomalies(), 1u);

  const obs::json::Value doc = obs::json::parse(slurp(path));
  EXPECT_EQ(doc.at("version").as_number(), 1.0);
  const obs::json::Value& trigger = doc.at("incident");
  EXPECT_EQ(trigger.at("slot").as_number(), 7.0);
  EXPECT_EQ(trigger.at("anomaly").as_string(), "iteration_limit");
  EXPECT_EQ(trigger.at("attempts").as_number(), 2.0);
  EXPECT_NE(trigger.at("detail").as_string().find("iteration_limit"),
            std::string::npos);
  // The ring snapshot includes the clean record before the anomaly: the
  // whole point of always-on recording is that context precedes the crash.
  const obs::json::Value& ring = doc.at("ring");
  ASSERT_EQ(ring.as_array().size(), 2u);
  EXPECT_EQ(ring.as_array()[0].at("anomaly").as_string(), "none");
  std::remove(path.c_str());
}

TEST(FlightRecorderIncident, PerProcessCapAndDisabledDir) {
  FlightRecorder rec(4);
  rec.set_incident_dir(::testing::TempDir());
  rec.set_max_incidents(2);
  std::vector<std::string> paths;
  for (std::size_t t = 0; t < 3; ++t)
    paths.push_back(rec.record(make_record(t, Anomaly::kDegradation)));
  EXPECT_FALSE(paths[0].empty());
  EXPECT_FALSE(paths[1].empty());
  EXPECT_EQ(paths[2], "");  // over the cap: counted, not written
  EXPECT_EQ(rec.incidents_written(), 2u);
  EXPECT_EQ(rec.total_anomalies(), 3u);
  for (const auto& p : paths)
    if (!p.empty()) std::remove(p.c_str());

  FlightRecorder quiet(4);  // no dir: anomalies counted, never written
  EXPECT_EQ(quiet.record(make_record(0, Anomaly::kExhaustion)), "");
  EXPECT_EQ(quiet.total_anomalies(), 1u);
  EXPECT_EQ(quiet.incidents_written(), 0u);
}

TEST(FlightRecorderIncident, RenderEscapesAndParses) {
  FlightRecord rec = make_record(1, Anomaly::kNumericalError);
  rec.detail = "quote \" backslash \\ newline \n tab \t";
  const std::string body = obs::render_incident_json(rec, {rec});
  const obs::json::Value doc = obs::json::parse(body);
  EXPECT_EQ(doc.at("incident").at("detail").as_string(), rec.detail);
}

// Two runs with the same fault schedule must produce byte-identical anomaly
// streams: incident forensics are only trustworthy if replayable.
TEST(FlightRecorderDeterminism, SeededFaultsReplayIdentically) {
  testing::GeneratorConfig cfg;
  cfg.regime = testing::Regime::kSmooth;
  cfg.seed = 23;
  const core::Instance inst = testing::generate_instance(cfg);

  const auto run_once = [&]() {
    FlightRecorder& rec = FlightRecorder::global();
    rec.set_incident_dir("");
    rec.clear();
    testing::FaultPlan plan;
    plan.fault_rate = 1.0;
    plan.seed = 99;
    plan.mix_kinds = false;  // pure iteration-limit faults
    testing::FaultInjector injector(plan);
    (void)core::run_roa(inst);
    std::vector<std::string> anomalies;
    for (const auto& r : rec.snapshot())
      if (r.anomaly != Anomaly::kNone)
        anomalies.push_back(r.context + "/" + std::to_string(r.slot) + "/" +
                            obs::to_string(r.anomaly));
    return anomalies;
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_FALSE(first.empty());  // rate 1.0 over the horizon must hit
  EXPECT_EQ(first, second);
  // A warm slot's failed attempt is rescued by the cold restart and filed
  // as an iteration limit; a cold primary (slot 0 at least) has no second
  // start and is held + repaired.
  bool restarted = false;
  for (const auto& a : first) {
    const bool limit = a.find("iteration_limit") != std::string::npos;
    restarted = restarted || limit;
    EXPECT_TRUE(limit || a.find("degradation") != std::string::npos) << a;
  }
  EXPECT_TRUE(restarted);
  EXPECT_EQ(first.front(), "p2_slot/0/degradation");
  FlightRecorder::global().clear();
}

// Regression for the Fig.5-scale P1 window-LP abort: a PDHG primary that
// starves at its iteration budget must (a) fall back instead of killing the
// run and (b) leave an iteration_limit incident behind.
TEST(FlightRecorderP1, WindowLpIterationLimitLeavesIncident) {
  testing::GeneratorConfig cfg;
  cfg.regime = testing::Regime::kSmooth;
  cfg.seed = 5;
  const core::Instance inst = testing::generate_instance(cfg);

  FlightRecorder& rec = FlightRecorder::global();
  rec.set_incident_dir(::testing::TempDir());
  rec.clear();

  solver::LpSolveOptions opts;
  opts.method = solver::LpMethod::kPdhg;  // primary PDHG...
  opts.pdhg.max_iterations = 1;           // ...starved into iteration_limit
  opts.simplex_size_limit = 1 << 20;      // keep the simplex rescue viable
  const auto inputs = core::InputSeries::truth(inst);
  const auto prev = core::Allocation::zeros(inst.num_edges());
  const auto traj =
      solve_p1_window(inst, inputs, 0, inst.horizon, prev, nullptr, opts);
  ASSERT_TRUE(traj.has_value());  // the fallback rescued the solve
  EXPECT_EQ(traj->horizon(), inst.horizon);

  bool found = false;
  for (const auto& r : rec.snapshot()) {
    if (r.context != "p1_window") continue;
    found = true;
    EXPECT_EQ(r.anomaly, Anomaly::kIterationLimit);
    EXPECT_TRUE(r.fell_back);
    EXPECT_NE(r.signature.find("window[0," + std::to_string(inst.horizon)),
              std::string::npos);
  }
  EXPECT_TRUE(found);
  EXPECT_GE(rec.incidents_written(), 1u);
  const std::string path = rec.last_incident_path();
  ASSERT_FALSE(path.empty());
  const obs::json::Value doc = obs::json::parse(slurp(path));
  EXPECT_EQ(doc.at("incident").at("context").as_string(), "p1_window");
  EXPECT_EQ(doc.at("incident").at("anomaly").as_string(), "iteration_limit");
  std::remove(path.c_str());
  rec.set_incident_dir("");
  rec.clear();
}

// An n-tier slot whose barrier runs out of Newton budget is held and
// repaired. Its trail must lead the barrier stage with the status, so the
// iteration limit that forced the degradation stays greppable in the
// record, not buried as a numerical error.
TEST(FlightRecorderNTier, NewtonBudgetFallbackIsIterationLimit) {
  core::NTierConfig config;
  config.tier_sizes = {6, 4, 2};
  util::Rng rng(3);
  const core::NTierInstance inst =
      core::build_ntier_instance(config, {1.0, 0.8, 0.6}, rng);
  core::NTierRoaOptions options;
  options.ipm.max_newton_steps = 1;
  options.ipm.acceptable_gap = 1e-12;

  FlightRecorder& rec = FlightRecorder::global();
  rec.set_incident_dir("");
  rec.clear();
  const core::NTierTrajectory traj = core::run_ntier_roa(inst, options);
  ASSERT_EQ(traj.slots.size(), inst.horizon);

  std::size_t slots = 0;
  for (const auto& r : rec.snapshot()) {
    if (r.context != "ntier_slot") continue;
    ++slots;
    EXPECT_TRUE(r.fell_back);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.backend, "hold_repair");
    EXPECT_EQ(r.anomaly, Anomaly::kDegradation) << r.detail;
    EXPECT_EQ(r.detail.rfind("cold_ipm: iteration_limit (", 0), 0u)
        << r.detail;
    EXPECT_EQ(r.detail.find("numerical_error"), std::string::npos)
        << r.detail;
  }
  EXPECT_EQ(slots, inst.horizon);
  rec.clear();
}

}  // namespace
}  // namespace sora
