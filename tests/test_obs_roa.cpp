// Regression: the metrics the obs registry collects during run_roa must
// agree with the aggregates the returned RoaRun reports, and the emitted
// trace must nest slot -> build -> barrier spans.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/roa.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "testing/generator.hpp"

namespace sora {
namespace {

core::Instance make_instance() {
  testing::GeneratorConfig cfg;
  cfg.regime = testing::Regime::kSmooth;
  cfg.seed = 7;
  return testing::generate_instance(cfg);
}

TEST(ObsRoa, RegistryDeltasMatchRoaRunAggregates) {
  obs::set_metrics_enabled(true);
  auto& reg = obs::Registry::global();
  reg.reset_all();

  const core::Instance inst = make_instance();
  const core::RoaRun run = core::run_roa(inst);
  obs::set_metrics_enabled(false);

  const obs::RegistrySnapshot snap = reg.snapshot();
  const auto counter = [&](const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const auto histogram = [&](const std::string& name) {
    const auto it = snap.histograms.find(name);
    EXPECT_NE(it, snap.histograms.end()) << name;
    return it == snap.histograms.end() ? obs::HistogramSnapshot{} : it->second;
  };

  const std::uint64_t horizon = inst.horizon;
  EXPECT_EQ(run.slot_timings.size(), horizon);
  EXPECT_EQ(counter("sora_roa_runs_total"), 1u);
  EXPECT_EQ(counter("sora_roa_slots_total"), horizon);

  // Per-slot histograms see exactly one observation per slot, and their sums
  // are the same doubles the RoaRun aggregates accumulated (single-threaded
  // run, identical addition order, fresh registry -> tight tolerance).
  const auto barrier = histogram("sora_p2_barrier_seconds");
  EXPECT_EQ(barrier.count, horizon);
  EXPECT_NEAR(barrier.sum, run.barrier_seconds,
              1e-12 * (1.0 + run.barrier_seconds));

  const auto build = histogram("sora_p2_build_seconds");
  EXPECT_EQ(build.count, horizon);
  EXPECT_NEAR(build.sum, run.build_seconds, 1e-12 * (1.0 + run.build_seconds));

  // One barrier solve per slot feeds the ipm-level Newton histogram.
  const auto newton = histogram("sora_ipm_newton_steps");
  EXPECT_EQ(newton.count, horizon);
  EXPECT_DOUBLE_EQ(newton.sum, static_cast<double>(run.newton_steps));

  // Each slot fact has one instrument: run_roa's own histograms hold only
  // what no other layer observes, not copies of the P2 and IPM ones.
  for (const auto& entry : snap.histograms) {
    if (entry.first.rfind("sora_roa_", 0) == 0) {
      EXPECT_EQ(entry.first, "sora_roa_reconfig_magnitude");
    }
  }

  const auto reconfig = histogram("sora_roa_reconfig_magnitude");
  EXPECT_EQ(reconfig.count, horizon);

  // Warm + cold starts partition the slots.
  EXPECT_EQ(counter("sora_p2_warm_starts_total") +
                counter("sora_p2_cold_starts_total"),
            horizon);
}

struct SpanRecord {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  double depth = 0.0;
  double end() const { return ts + dur; }
};

TEST(ObsRoa, TraceNestsSlotBuildBarrier) {
  obs::set_trace_enabled(true);
  obs::trace_clear();
  const core::Instance inst = make_instance();
  (void)core::run_roa(inst);
  obs::set_trace_enabled(false);

  const obs::json::Value doc = obs::json::parse(obs::render_trace_json());
  std::vector<SpanRecord> spans;
  for (const obs::json::Value& ev : doc.at("traceEvents").as_array()) {
    spans.push_back({ev.at("name").as_string(), ev.at("ts").as_number(),
                     ev.at("dur").as_number(),
                     ev.at("args").at("depth").as_number()});
  }
  obs::trace_clear();

  const auto all_named = [&](const std::string& name) {
    std::vector<SpanRecord> out;
    for (const SpanRecord& s : spans)
      if (s.name == name) out.push_back(s);
    return out;
  };
  const auto runs = all_named("roa/run");
  const auto slots = all_named("roa/slot");
  const auto builds = all_named("p2/build");
  const auto barriers = all_named("p2/barrier");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(slots.size(), inst.horizon);
  EXPECT_EQ(builds.size(), inst.horizon);
  EXPECT_EQ(barriers.size(), inst.horizon);
  EXPECT_EQ(all_named("roa/cost_eval").size(), 1u);

  // Depths reflect the nesting run > slot > {build, barrier}.
  EXPECT_EQ(runs[0].depth, 0.0);
  const double eps = 2e-3;  // exporter rounds to 1e-3 us
  for (const auto& slot : slots) {
    EXPECT_EQ(slot.depth, 1.0);
    EXPECT_LE(runs[0].ts, slot.ts + eps);
    EXPECT_GE(runs[0].end() + eps, slot.end());
  }
  // Every build/barrier span is contained in some slot span.
  const auto contained_in_a_slot = [&](const SpanRecord& s) {
    for (const auto& slot : slots)
      if (slot.ts <= s.ts + eps && slot.end() + eps >= s.end()) return true;
    return false;
  };
  for (const auto& b : builds) {
    EXPECT_EQ(b.depth, 2.0);
    EXPECT_TRUE(contained_in_a_slot(b));
  }
  for (const auto& b : barriers) {
    EXPECT_EQ(b.depth, 2.0);
    EXPECT_TRUE(contained_in_a_slot(b));
  }
}

}  // namespace
}  // namespace sora
