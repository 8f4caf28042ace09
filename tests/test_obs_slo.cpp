// Slot-SLO telemetry: digest accuracy against exact quantiles, tracker
// rollups, Prometheus rendering, and a live HTTP scrape round-trip.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
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

double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  // Nearest-rank, matching SloDigest's convention.
  const auto n = xs.size();
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(n) + 0.5);
  rank = std::max<std::size_t>(rank, 1);
  return xs[std::min(rank, n) - 1];
}

// Half-octave buckets with geometric interpolation: worst-case relative
// error is sqrt(2)-1 ~ 41% at a bucket edge, but for smooth distributions
// the interpolated estimate lands well inside; we assert the documented
// bucket-width bound rather than the optimistic typical case.
constexpr double kBucketBound = 0.42;

TEST(SloDigest, QuantilesTrackExactWithinBucketResolution) {
  util::Rng rng(7);
  SloDigest digest;
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform latencies over [50us, 500ms] — spans ~13 buckets.
    const double v = 50e-6 * std::pow(1e4, rng.uniform());
    xs.push_back(v);
    digest.observe(v);
  }
  EXPECT_EQ(digest.count(), 20000u);
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = exact_quantile(xs, q);
    const double est = digest.quantile(q);
    EXPECT_NEAR(est / exact, 1.0, kBucketBound)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(SloDigest, ExtremesClampAndMaxIsExact) {
  SloDigest digest;
  digest.observe(1e-9);   // below the grid: first bucket
  digest.observe(1e9);    // above the grid: last bucket
  EXPECT_EQ(digest.count(), 2u);
  EXPECT_DOUBLE_EQ(digest.max(), 1e9);
  // The p100 estimate is clamped to the observed max, never extrapolated
  // beyond it.
  EXPECT_LE(digest.quantile(1.0), 1e9);
  EXPECT_GT(digest.quantile(1.0), 0.0);
}

TEST(SloDigest, EmptyReturnsZeroAndResetClears) {
  SloDigest digest;
  EXPECT_EQ(digest.quantile(0.5), 0.0);
  digest.observe(0.25);
  EXPECT_GT(digest.quantile(0.5), 0.0);
  digest.reset();
  EXPECT_EQ(digest.count(), 0u);
  EXPECT_EQ(digest.quantile(0.5), 0.0);
}

TEST(SloDigest, ConcurrentObservesAreLossless) {
  SloDigest digest;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w)
    workers.emplace_back([&digest, w] {
      for (int i = 0; i < kPerThread; ++i)
        digest.observe(1e-3 * (1 + w));
    });
  for (auto& t : workers) t.join();
  EXPECT_EQ(digest.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
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

TEST(SlotSlo, GlobalMetricsAndSummaryRenderWhenEnabled) {
  MetricsOn on;
  reset_global_slot_slo();
  record_slot(0.004, 0.010);
  record_slot(0.200, 0.010);  // budget miss

  EXPECT_EQ(global_slot_digest().count(), 2u);
  const std::string text = render_slo_text();
  EXPECT_NE(text.find("sora_slot_latency_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sora_slot_latency_seconds_count 2"),
            std::string::npos);

  // The summary also rides along with the registry's full exposition via
  // the text-extension hook.
  const std::string full = Registry::global().render_text();
  EXPECT_NE(full.find("sora_slot_latency_seconds{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(full.find("sora_slot_deadline_miss_total 1"), std::string::npos);
  EXPECT_NE(full.find("sora_slot_deadline_hit_total 1"), std::string::npos);
}

TEST(SlotSlo, DisabledRecordingIsDropped) {
  set_metrics_enabled(false);
  reset_global_slot_slo();
  record_slot(1.0, 0.0);
  EXPECT_EQ(global_slot_digest().count(), 0u);
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
  reset_global_slot_slo();
  record_slot(0.008, 0.0);

  ScrapeServer server;
  const int port = server.start(0);
  ASSERT_GT(port, 0);
  EXPECT_TRUE(server.running());
  EXPECT_EQ(server.port(), port);

  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("sora_slot_latency_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("sora_slot_solves_total"), std::string::npos);

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
