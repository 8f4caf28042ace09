// Slot-SLO telemetry: exact tracker rollups, the registry's slot-latency
// histogram, and a live HTTP scrape round-trip.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/scrape_server.hpp"
#include "obs/slo.hpp"
#include "util/rng.hpp"

namespace sora::obs {
namespace {

struct MetricsOn {
  MetricsOn() { set_metrics_enabled(true); }
  ~MetricsOn() { set_metrics_enabled(false); }
};

// Nearest rank: the ceil(q * n)-th smallest value.
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::max<std::size_t>(rank, 1) - 1];
}

// The tracker counts latency and deadlines only; a slot's health is
// ChainHealth's and the sora_resilience_* metrics'.
TEST(SlotSloTracker, ReportAggregatesDeadlinesAndHealth) {
  SlotSloOptions opts;
  opts.budget_seconds = 0.010;
  SlotSloTracker tracker(opts);

  for (int i = 0; i < 8; ++i) tracker.record(0.002);
  tracker.record(0.050);  // misses the 10ms budget
  tracker.record(0.001);

  const SlotSloReport report = tracker.report();
  EXPECT_EQ(report.slots, 10u);
  EXPECT_EQ(report.deadline_misses, 1u);
  EXPECT_DOUBLE_EQ(report.budget_seconds, 0.010);
  EXPECT_FALSE(report.met_slo());
  EXPECT_GT(report.p99_seconds, report.p50_seconds);
  EXPECT_DOUBLE_EQ(report.max_seconds, 0.050);
}

TEST(SlotSloTracker, ZeroBudgetDisablesDeadlineAccounting) {
  SlotSloTracker tracker;  // budget 0
  tracker.record(123.0);
  const SlotSloReport report = tracker.report();
  EXPECT_EQ(report.deadline_misses, 0u);
  EXPECT_TRUE(report.met_slo());
}

TEST(SlotSloTracker, ReportQuantilesAreExactNearestRank) {
  util::Rng rng(5);
  SlotSloOptions opts;
  opts.budget_seconds = 0.006;
  SlotSloTracker tracker(opts);
  std::vector<double> xs;
  for (int i = 0; i < 120; ++i) {
    // Lognormal latencies around 4 ms.
    const double v = 0.004 * std::exp(0.5 * rng.normal());
    xs.push_back(v);
    tracker.record(v);
  }
  const SlotSloReport report = tracker.report();
  EXPECT_EQ(report.slots, 120u);
  EXPECT_EQ(report.p50_seconds, exact_quantile(xs, 0.50));
  EXPECT_EQ(report.p95_seconds, exact_quantile(xs, 0.95));
  EXPECT_EQ(report.p99_seconds, exact_quantile(xs, 0.99));
  EXPECT_EQ(report.max_seconds, *std::max_element(xs.begin(), xs.end()));
  EXPECT_EQ(report.deadline_misses,
            static_cast<std::size_t>(std::count_if(
                xs.begin(), xs.end(), [](double v) { return v > 0.006; })));
  EXPECT_EQ(SlotSloTracker().report().p99_seconds, 0.0);  // empty run
}

HistogramSnapshot slot_latency_histogram() {
  const RegistrySnapshot snap = Registry::global().snapshot();
  const auto it = snap.histograms.find("sora_slot_latency_seconds");
  EXPECT_NE(it, snap.histograms.end());
  return it == snap.histograms.end() ? HistogramSnapshot{} : it->second;
}

TEST(SlotSlo, GlobalMetricsAndSummaryRenderWhenEnabled) {
  MetricsOn on;
  Registry::global().reset_all();
  record_slot(0.004, 0.010);
  record_slot(0.200, 0.010);  // budget miss

  const HistogramSnapshot hist = slot_latency_histogram();
  EXPECT_EQ(hist.count, 2u);
  EXPECT_DOUBLE_EQ(hist.sum, 0.204);
  ASSERT_EQ(hist.bounds.size(), 27u);
  EXPECT_DOUBLE_EQ(hist.bounds.front(), 1e-6);

  const std::string full = Registry::global().render_text();
  EXPECT_NE(full.find("# TYPE sora_slot_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(full.find("sora_slot_latency_seconds_count 2"),
            std::string::npos);
  EXPECT_NE(full.find("sora_slot_deadline_miss_total 1"), std::string::npos);
  EXPECT_NE(full.find("sora_slot_deadline_hit_total 1"), std::string::npos);

  // The JSON export carries it too, and reset_all() clears it.
  EXPECT_NE(Registry::global().render_json().find(
                "\"name\":\"sora_slot_latency_seconds\""),
            std::string::npos);
  Registry::global().reset_all();
  EXPECT_EQ(slot_latency_histogram().count, 0u);
}

TEST(SlotSlo, DisabledRecordingIsDropped) {
  set_metrics_enabled(false);
  Registry::global().reset_all();
  record_slot(1.0, 0.5);
  // Registered at load, so the snapshot holds it, empty.
  EXPECT_EQ(slot_latency_histogram().count, 0u);
  EXPECT_EQ(Registry::global()
                .snapshot()
                .counters.at("sora_slot_deadline_miss_total"),
            0u);
}

// ---- live scrape round-trip ------------------------------------------------

std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed";
    return {};
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n"
      "Connection: close\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  ::close(fd);
  return response;
}

TEST(ScrapeServerTest, ServesMetricsOnEphemeralPort) {
  MetricsOn on;
  Registry::global().reset_all();
  record_slot(0.008, 0.0);

  ScrapeServer server;
  const int port = server.start(0);
  ASSERT_GT(port, 0);
  EXPECT_TRUE(server.running());
  EXPECT_EQ(server.port(), port);

  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("sora_slot_latency_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("sora_slot_latency_seconds_count 1"),
            std::string::npos);

  const std::string health = http_get(port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string missing = http_get(port, "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  // Idempotent stop and restartability.
  server.stop();
  const int port2 = server.start(0);
  ASSERT_GT(port2, 0);
  server.stop();
}

TEST(ScrapeServerTest, DoubleStartFails) {
  ScrapeServer server;
  const int port = server.start(0);
  ASSERT_GT(port, 0);
  // Distinguishable from a bind failure (-1): the server is simply occupied.
  EXPECT_EQ(server.start(0), ScrapeServer::kAlreadyRunning);
  server.stop();
}

}  // namespace
}  // namespace sora::obs
