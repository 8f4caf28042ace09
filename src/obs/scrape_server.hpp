// Minimal Prometheus scrape endpoint: a single-threaded HTTP server that
// serves the registry's exposition text (slot latency included, as the
// sora_slot_latency_seconds histogram) on GET /metrics, so a live run can
// be watched instead of post-mortemed from exit dumps.
//
//   GET /metrics  -> 200, Prometheus text format 0.0.4
//   GET /healthz  -> 200, "ok"
//   anything else -> 404
//
// Query strings are ignored: Prometheus federation and ad-hoc `curl
// '/metrics?query=...'` both resolve to the plain path.
//
// The server binds the loopback interface only, runs one accept-loop thread,
// and handles one connection at a time (a scrape is a handful of packets; a
// concurrent server would be over-engineering for a diagnostics port).
// Enable with SORA_METRICS_PORT=<port> (also flips metrics on) or
// `sora_cli --metrics-port`. Port 0 binds an ephemeral port — start()
// returns the actual port, which is how tests avoid collisions.
#pragma once

#include <string>

namespace sora::obs {

class ScrapeServer {
 public:
  ScrapeServer();
  ~ScrapeServer();  // stops and joins
  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// The process-wide server used by the env contract and sora_cli.
  static ScrapeServer& global();

  /// start() while the server is already running returns this (and leaves
  /// the running server untouched) so callers can tell "occupied" from a
  /// genuine socket/bind failure.
  static constexpr int kAlreadyRunning = -2;

  /// Bind 127.0.0.1:<port> (0 = ephemeral) and start the accept loop.
  /// Returns the bound port, kAlreadyRunning when the server is already up,
  /// or -1 on a socket/bind/invalid-port failure. A stopped server can be
  /// started again (same or different port).
  int start(int port);

  /// Shut the listener down and join the accept thread. Idempotent. Also
  /// shuts down an in-flight connection, so a wedged client (connected but
  /// never reading) cannot hang the join.
  void stop();

  bool running() const;
  int port() const;  ///< bound port while running, else -1

 private:
  struct Impl;
  Impl* impl_;
};

/// start() on the global server with a log line either way; returns the
/// bound port or -1. An already-running global server counts as success and
/// returns its existing port. Convenience for the env contract and CLI
/// wiring.
int start_global_scrape_server(int port);

}  // namespace sora::obs
