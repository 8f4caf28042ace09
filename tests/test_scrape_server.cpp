// ScrapeServer lifecycle and robustness: restart cycles, distinguishable
// start() failures, query-string routing, and the wedged-client regression
// (a connected peer that never reads must not hang stop()).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/scrape_server.hpp"

namespace sora::obs {
namespace {

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

TEST(ScrapeServerLifecycle, RestartCyclesOnSameAndFreshPorts) {
  ScrapeServer server;
  const int port = server.start(0);
  ASSERT_GT(port, 0);
  EXPECT_NE(http_get(port, "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();
  EXPECT_FALSE(server.running());

  // Same port again (SO_REUSEADDR makes this deterministic), then a fresh
  // ephemeral one; each cycle must serve.
  const int again = server.start(port);
  ASSERT_EQ(again, port);
  EXPECT_NE(http_get(again, "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();

  const int fresh = server.start(0);
  ASSERT_GT(fresh, 0);
  EXPECT_NE(http_get(fresh, "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();
}

TEST(ScrapeServerLifecycle, StartFailuresAreDistinguishable) {
  ScrapeServer server;
  EXPECT_EQ(server.start(-1), -1);      // invalid port while stopped
  EXPECT_EQ(server.start(70000), -1);   // out of range
  EXPECT_FALSE(server.running());

  const int port = server.start(0);
  ASSERT_GT(port, 0);
  EXPECT_EQ(server.start(0), ScrapeServer::kAlreadyRunning);
  EXPECT_EQ(server.port(), port);  // the running server is untouched

  // A second server on the SAME port is a genuine bind failure, not
  // kAlreadyRunning.
  ScrapeServer rival;
  EXPECT_EQ(rival.start(port), -1);
  server.stop();
}

TEST(ScrapeServerRouting, QueryStringsResolveToThePlainPath) {
  set_metrics_enabled(true);
  ScrapeServer server;
  const int port = server.start(0);
  ASSERT_GT(port, 0);

  EXPECT_NE(http_get(port, "/metrics?query=sora_slot").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/healthz?verbose=1").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/nope?still=404").find("HTTP/1.1 404"),
            std::string::npos);
  server.stop();
  set_metrics_enabled(false);
}

// Regression: a client that connects, sends a request, and then never reads
// the response fills the kernel buffers; without a send timeout and the
// stop()-side connection shutdown, send_all() blocks forever and stop()'s
// join hangs. Registered LAST in this binary: the oversized counter below
// cannot be unregistered.
TEST(ScrapeServerRobustness, WedgedClientDoesNotHangStop) {
  set_metrics_enabled(true);
  // A response far bigger than the combined socket buffers, so send() must
  // actually block on the unread peer rather than fire-and-forget.
  Registry::global().counter("scrape_test_oversized_total",
                             std::string(32u << 20, '#'));

  ScrapeServer server;
  const int port = server.start(0);
  ASSERT_GT(port, 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 1;  // clamp the receive window before connecting
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string req = "GET /metrics HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  // Give the server time to accept and wedge mid-send; never read.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const auto before = std::chrono::steady_clock::now();
  server.stop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before)
          .count();
  EXPECT_FALSE(server.running());
  EXPECT_LT(seconds, 8.0) << "stop() hung on the wedged connection";
  ::close(fd);
  set_metrics_enabled(false);
}

}  // namespace
}  // namespace sora::obs
