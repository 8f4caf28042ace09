// The serving layer: tick wire-format parsing, batch-vs-streaming
// equivalence, snapshot atomicity and versioning, kill-and-restore
// bit-identical continuation, and deadline-miss degradation.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/roa.hpp"
#include "obs/obs.hpp"
#include "serve/daemon.hpp"
#include "serve/snapshot.hpp"
#include "serve/tick.hpp"
#include "testing/generator.hpp"
#include "util/rng.hpp"

namespace sora::serve {
namespace {

using cloudnet::InstanceConfig;
using cloudnet::WorkloadTrace;
using core::Instance;

Instance make_instance(std::size_t horizon, std::uint64_t seed = 3,
                       std::size_t num_tier2 = 4, std::size_t num_tier1 = 6,
                       std::size_t k = 2, bool model_tier1 = false) {
  util::Rng rng(seed);
  const WorkloadTrace trace = cloudnet::wikipedia_like(horizon, rng);
  InstanceConfig cfg;
  cfg.num_tier2 = num_tier2;
  cfg.num_tier1 = num_tier1;
  cfg.sla_k = k;
  cfg.reconfig_weight = 10.0;
  cfg.seed = seed;
  cfg.model_tier1 = model_tier1;
  return cloudnet::build_instance(cfg, trace);
}

// A tick carrying slot t of the instance's own demand trace, scaled into
// raw request counts. x4 is exact in binary floating point, so the daemon's
// division recovers lambda bitwise and streaming must equal batch.
constexpr double kRequestsPerUnit = 4.0;

Tick demand_tick(const Instance& inst, std::size_t slot) {
  Tick tick;
  tick.kind = Tick::Kind::kTick;
  tick.slot = slot;
  tick.requests.resize(inst.num_tier1());
  const auto& row = inst.demand[slot % inst.horizon];
  for (std::size_t j = 0; j < row.size(); ++j)
    tick.requests[j] = row[j] * kRequestsPerUnit;
  return tick;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// ---- wire format -----------------------------------------------------------

TEST(TickParse, DenseFrame) {
  Tick tick;
  std::string error;
  ASSERT_TRUE(parse_tick_line("tick 7 1.5 0 2e3", 3, tick, &error)) << error;
  EXPECT_EQ(tick.kind, Tick::Kind::kTick);
  EXPECT_EQ(tick.slot, 7u);
  ASSERT_EQ(tick.requests.size(), 3u);
  EXPECT_DOUBLE_EQ(tick.requests[0], 1.5);
  EXPECT_DOUBLE_EQ(tick.requests[1], 0.0);
  EXPECT_DOUBLE_EQ(tick.requests[2], 2000.0);
}

TEST(TickParse, SparseFrame) {
  Tick tick;
  ASSERT_TRUE(parse_tick_line("tick 0 2:9.25 0:1", 4, tick));
  ASSERT_EQ(tick.requests.size(), 4u);
  EXPECT_DOUBLE_EQ(tick.requests[0], 1.0);
  EXPECT_DOUBLE_EQ(tick.requests[1], 0.0);
  EXPECT_DOUBLE_EQ(tick.requests[2], 9.25);
  EXPECT_DOUBLE_EQ(tick.requests[3], 0.0);
}

TEST(TickParse, CommandsAndNoise) {
  Tick tick;
  EXPECT_TRUE(parse_tick_line("snapshot", 2, tick));
  EXPECT_EQ(tick.kind, Tick::Kind::kSnapshot);
  EXPECT_TRUE(parse_tick_line("quit", 2, tick));
  EXPECT_EQ(tick.kind, Tick::Kind::kQuit);
  EXPECT_TRUE(parse_tick_line("", 2, tick));
  EXPECT_EQ(tick.kind, Tick::Kind::kIgnore);
  EXPECT_TRUE(parse_tick_line("# comment", 2, tick));
  EXPECT_EQ(tick.kind, Tick::Kind::kIgnore);
}

TEST(TickParse, RejectsMalformedFrames) {
  Tick tick;
  std::string error;
  EXPECT_FALSE(parse_tick_line("tick", 2, tick, &error));          // no slot
  EXPECT_FALSE(parse_tick_line("tick 0 1", 2, tick, &error));      // count
  EXPECT_FALSE(parse_tick_line("tick 0 1 2 3", 2, tick, &error));  // count
  EXPECT_FALSE(parse_tick_line("tick 0 5:1", 2, tick, &error));    // index
  EXPECT_FALSE(parse_tick_line("tick 0 -1 2", 2, tick, &error));   // negative
  EXPECT_FALSE(parse_tick_line("tick x 1 2", 2, tick, &error));    // slot
  EXPECT_FALSE(parse_tick_line("tick 0 nan 1", 2, tick, &error));  // nan
  EXPECT_FALSE(parse_tick_line("hello", 2, tick, &error));         // verb
  EXPECT_FALSE(error.empty());
}

TEST(TickParse, FormatRoundTripsBitwise) {
  const std::vector<double> requests = {0.1, 3.0, 123456.789, 1e-12};
  const std::string line = format_tick_line(42, requests);
  Tick tick;
  ASSERT_TRUE(parse_tick_line(line, requests.size(), tick));
  EXPECT_EQ(tick.slot, 42u);
  for (std::size_t j = 0; j < requests.size(); ++j)
    EXPECT_EQ(std::memcmp(&tick.requests[j], &requests[j], sizeof(double)), 0)
        << "request " << j << " did not round-trip bitwise";
}

// ---- streaming vs batch ----------------------------------------------------

TEST(ServeDaemon, MatchesBatchRoaBitwise) {
  const Instance inst = make_instance(8);
  const core::RoaOptions roa;
  const core::RoaRun batch = core::run_roa(inst, roa);

  ServeOptions options;
  options.roa = roa;
  options.requests_per_unit = kRequestsPerUnit;
  ServeDaemon daemon(inst, options);
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    const SlotResult result = daemon.step(demand_tick(inst, t));
    EXPECT_EQ(result.slot, t);
    EXPECT_EQ(result.alloc_hash,
              ServeDaemon::hash_allocation(batch.trajectory.slots[t]))
        << "slot " << t << " diverged from the batch trajectory";
  }
  EXPECT_NEAR(daemon.stats().cost.total(), batch.cost.total(),
              1e-9 * batch.cost.total());
}

// ---- snapshots -------------------------------------------------------------

TEST(Snapshot, EncodeDecodeRoundTrip) {
  ServeSnapshot snap;
  snap.next_slot = 17;
  snap.num_tier1 = 6;
  snap.num_tier2 = 4;
  snap.num_edges = 12;
  snap.prev = core::Allocation::zeros(12);
  snap.prev.x[3] = 1.25;
  snap.prev.y[11] = 0.5;
  snap.has_warm = true;
  snap.warm = {1.0, 2.0, 3.0};
  snap.cost.allocation = 100.5;
  snap.cost.reconfiguration = 7.25;
  snap.slots = 17;
  snap.degraded_slots = 2;
  snap.deadline_misses = 1;

  ServeSnapshot out;
  std::string error;
  ASSERT_TRUE(decode_snapshot(encode_snapshot(snap), out, &error)) << error;
  EXPECT_EQ(out.next_slot, 17u);
  EXPECT_EQ(out.num_edges, 12u);
  EXPECT_EQ(out.prev.x, snap.prev.x);
  EXPECT_EQ(out.prev.y, snap.prev.y);
  EXPECT_EQ(out.prev.z, snap.prev.z);
  EXPECT_TRUE(out.has_warm);
  EXPECT_EQ(out.warm, snap.warm);
  EXPECT_DOUBLE_EQ(out.cost.allocation, 100.5);
  EXPECT_EQ(out.degraded_slots, 2u);
  EXPECT_EQ(out.deadline_misses, 1u);
}

TEST(Snapshot, DecodeRejectsCorruption) {
  ServeSnapshot snap;
  snap.num_edges = 2;
  snap.prev = core::Allocation::zeros(2);
  const std::string bytes = encode_snapshot(snap);

  ServeSnapshot out;
  std::string error;
  EXPECT_FALSE(decode_snapshot("garbage", out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);

  std::string truncated = bytes.substr(0, bytes.size() - 3);
  EXPECT_FALSE(decode_snapshot(truncated, out, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos);

  std::string flipped = bytes;
  flipped[20] ^= 0x40;
  EXPECT_FALSE(decode_snapshot(flipped, out, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos);
}

// FNV-1a matching the snapshot trailer, for crafting version-bumped bytes.
std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(Snapshot, DecodeRejectsFutureVersion) {
  ServeSnapshot snap;
  snap.num_edges = 1;
  snap.prev = core::Allocation::zeros(1);
  std::string bytes = encode_snapshot(snap);
  // Patch the version field (right after the 8 magic bytes) and re-seal the
  // checksum so ONLY the version check can reject it.
  const std::uint32_t future = kSnapshotVersion + 9;
  std::memcpy(&bytes[8], &future, sizeof future);
  const std::uint64_t sum = fnv1a(bytes.data(), bytes.size() - 8);
  std::memcpy(&bytes[bytes.size() - 8], &sum, sizeof sum);

  ServeSnapshot out;
  std::string error;
  EXPECT_FALSE(decode_snapshot(bytes, out, &error));
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(Snapshot, StaleTmpFileDoesNotShadowSnapshot) {
  const std::string path = temp_path("serve_snap_atomic.bin");
  ServeSnapshot snap;
  snap.next_slot = 5;
  snap.num_edges = 1;
  snap.prev = core::Allocation::zeros(1);
  std::string error;
  ASSERT_TRUE(write_snapshot(path, snap, &error)) << error;

  // A crash between write and rename leaves a .tmp behind; the committed
  // snapshot must stay loadable and the tmp must never be read.
  std::ofstream tmp(path + ".tmp", std::ios::binary | std::ios::trunc);
  tmp << "partial garbage from a crashed writer";
  tmp.close();

  ServeSnapshot out;
  ASSERT_TRUE(read_snapshot(path, out, &error)) << error;
  EXPECT_EQ(out.next_slot, 5u);
  std::remove((path + ".tmp").c_str());
  std::remove(path.c_str());
}

// ---- kill and restore ------------------------------------------------------

// Golden uninterrupted run, then a run that dies after `crash_after` slots
// without a graceful shutdown, then a daemon restored from the last
// committed snapshot (taken every `every` slots): from the snapshot's slot
// on it must retrace the golden trajectory bit for bit, since the
// warm-start state and x_{t-1} both come from the snapshot, and end on the
// golden run's counters and cost, which the snapshot carries too.
void expect_restore_bit_identical(const Instance& inst, const char* name,
                                  std::size_t every, std::size_t crash_after,
                                  double budget_seconds = 0.0) {
  const std::string path = temp_path(name);
  ServeOptions options;
  options.requests_per_unit = kRequestsPerUnit;
  options.snapshot_path = path;
  options.snapshot_every = every;
  options.roa.slo.budget_seconds = budget_seconds;

  std::vector<std::uint64_t> golden;
  ServeStats golden_stats;
  {
    ServeDaemon daemon(inst, options);
    for (std::size_t t = 0; t < inst.horizon; ++t)
      golden.push_back(daemon.step(demand_tick(inst, t)).alloc_hash);
    golden_stats = daemon.stats();
  }
  {
    ServeDaemon daemon(inst, options);
    for (std::size_t t = 0; t < crash_after; ++t)
      daemon.step(demand_tick(inst, t));
  }
  {
    ServeDaemon daemon(inst, options);
    std::string error;
    ASSERT_TRUE(daemon.restore(&error)) << error;
    const std::size_t resume = crash_after / every * every;
    EXPECT_EQ(daemon.next_slot(), resume);
    for (std::size_t t = resume; t < inst.horizon; ++t) {
      const SlotResult result = daemon.step(demand_tick(inst, t));
      EXPECT_EQ(result.alloc_hash, golden[t])
          << "slot " << t << " diverged after restore";
    }
    const ServeStats& stats = daemon.stats();
    EXPECT_EQ(stats.slots, golden_stats.slots);
    EXPECT_EQ(stats.fallback_slots, golden_stats.fallback_slots);
    EXPECT_EQ(stats.degraded_slots, golden_stats.degraded_slots);
    EXPECT_EQ(stats.deadline_misses, golden_stats.deadline_misses);
    EXPECT_EQ(stats.cost.allocation, golden_stats.cost.allocation);
    EXPECT_EQ(stats.cost.reconfiguration,
              golden_stats.cost.reconfiguration);
  }
  std::remove(path.c_str());
}

TEST(ServeDaemon, RestoreContinuesBitIdentically) {
  // Dies after slot 7; the last committed snapshot is the one taken when
  // next_slot hit 5.
  expect_restore_bit_identical(make_instance(12), "serve_snap_restore.bin", 5,
                               8);
}

TEST(ServeDaemon, RestoreContinuesBitIdenticallyAtScale) {
  // 512 edges over 256 tier-1 sites. Unlike the 12-edge instance above,
  // every solve here runs the sparse Newton path with its cached symbolic
  // analysis, which a restored daemon rebuilds from scratch.
  testing::ScaledTopologyConfig cfg;
  cfg.num_tier2 = 32;
  cfg.num_tier1 = 256;
  cfg.sla_k = 2;
  cfg.horizon = 5;
  cfg.seed = 11;
  expect_restore_bit_identical(testing::generate_scaled_instance(cfg),
                               "serve_snap_restore_scaled.bin", 2, 3);
}

TEST(ServeDaemon, RestoreKeepsTheDeadlineMissCount) {
  // An impossible budget: every slot misses its deadline and is held and
  // repaired, so the miss count the snapshot carries is the slot count.
  const Instance inst = make_instance(12);
  expect_restore_bit_identical(inst, "serve_snap_restore_deadline.bin", 5, 8,
                               1e-12);
}

TEST(ServeDaemon, RestoreRejectsMismatchedTopology) {
  const Instance small = make_instance(6, 3, 4, 6);
  const Instance large = make_instance(6, 3, 4, 8);
  const std::string path = temp_path("serve_snap_mismatch.bin");

  ServeOptions options;
  options.requests_per_unit = kRequestsPerUnit;
  options.snapshot_path = path;
  {
    ServeDaemon daemon(small, options);
    daemon.step(demand_tick(small, 0));
    ASSERT_TRUE(daemon.write_snapshot_now());
  }
  {
    ServeDaemon daemon(large, options);
    std::string error;
    EXPECT_FALSE(daemon.restore(&error));
    EXPECT_NE(error.find("topology"), std::string::npos);
    EXPECT_EQ(daemon.next_slot(), 0u);  // left cold, not half-restored
  }
  std::remove(path.c_str());
}

// ---- deadline-or-degrade ---------------------------------------------------

TEST(ServeDaemon, DeadlineMissDegradesInsteadOfCrashing) {
  const Instance inst = make_instance(4);
  ServeOptions options;
  options.requests_per_unit = kRequestsPerUnit;
  // An impossible budget: every solve lands late, so every slot must be
  // re-routed into hold-and-repair rather than aborting.
  options.roa.slo.budget_seconds = 1e-12;
  ServeDaemon daemon(inst, options);

  // Every tick also lands in the global slot-SLO metrics a scrape reads.
  const auto global_misses = [] {
    const auto snap = obs::Registry::global().snapshot();
    const auto it = snap.counters.find("sora_slot_deadline_miss_total");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  obs::set_metrics_enabled(true);
  const std::uint64_t misses_before = global_misses();
  for (std::size_t t = 0; t < inst.horizon; ++t) {
    const SlotResult result = daemon.step(demand_tick(inst, t));
    EXPECT_TRUE(result.deadline_miss) << "slot " << t;
    EXPECT_TRUE(result.degraded) << "slot " << t;
    EXPECT_STREQ(result.backend, "hold_repair");
  }
  obs::set_metrics_enabled(false);
  EXPECT_EQ(daemon.stats().deadline_misses, inst.horizon);
  EXPECT_EQ(daemon.stats().degraded_slots, inst.horizon);
  EXPECT_EQ(global_misses() - misses_before, inst.horizon);

  // A late tick whose repair LP is infeasible publishes x_{t-1} unrepaired:
  // not degraded, yet still a fallback slot.
  Tick flood;
  ASSERT_TRUE(parse_tick_line("tick " + std::to_string(inst.horizon) +
                                  " 0:1e9",
                              inst.num_tier1(), flood));
  const SlotResult held = daemon.step(flood);
  EXPECT_STREQ(held.backend, "hold_repair");
  EXPECT_FALSE(held.degraded);
  EXPECT_EQ(daemon.stats().fallback_slots, inst.horizon + 1);
}

// ---- over-capacity ticks ---------------------------------------------------

TEST(ServeDaemon, OverCapacityTickPublishesHeldDecision) {
  // A well-formed tick whose demand no allocation can cover: the slot has
  // no strict interior and its repair LP is infeasible, so the daemon must
  // publish x_{t-1} (status not ok) instead of aborting, then serve the
  // next tick normally.
  const Instance inst = make_instance(4);
  ServeOptions options;
  options.requests_per_unit = kRequestsPerUnit;
  ServeDaemon daemon(inst, options);
  const SlotResult first = daemon.step(demand_tick(inst, 0));

  Tick flood;
  ASSERT_TRUE(parse_tick_line("tick 1 0:1e9", inst.num_tier1(), flood));
  const SlotResult held = daemon.step(flood);
  EXPECT_STREQ(held.backend, "hold_repair");
  EXPECT_FALSE(held.degraded);  // the repair failed: x_{t-1} verbatim
  EXPECT_EQ(held.alloc_hash, first.alloc_hash);
  EXPECT_EQ(daemon.stats().degraded_slots, 0u);

  const SlotResult next = daemon.step(demand_tick(inst, 2));
  EXPECT_EQ(next.slot, 2u);
  EXPECT_NE(std::string(next.backend), "hold_repair");
  EXPECT_FALSE(next.degraded);
  EXPECT_EQ(daemon.next_slot(), 3u);
}

}  // namespace
}  // namespace sora::serve
