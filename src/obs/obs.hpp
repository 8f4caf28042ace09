// sora_obs umbrella: the metrics registry + scoped tracing, plus the
// process-level toggles shared by every binary.
//
// Environment contract (read once at process start by any binary linking
// sora_obs):
//
//   SORA_METRICS=1|on           enable metric collection
//   SORA_METRICS=<file>         enable AND export to <file> at exit
//                               (.txt/.prom -> Prometheus text, else JSON;
//                               SORA_METRICS_FORMAT=text|json overrides)
//   SORA_TRACE=1|on             enable span tracing
//   SORA_TRACE=<file>           enable AND export Chrome trace JSON at exit
//   SORA_TRACE_MAX_EVENTS=N     per-thread span cap (default 65536)
//   SORA_METRICS_PORT=<port>    enable metrics AND serve GET /metrics on
//                               127.0.0.1:<port> (live Prometheus scrape;
//                               0 = ephemeral port, logged at startup;
//                               unparseable values warn and are ignored)
//   SORA_INCIDENT_DIR=<dir>     write flight-recorder incident JSONs here
//                               (see obs/flight_recorder.hpp)
//
// CLI front-ends (sora_cli, bench/run_benchmarks.sh) expose the same knobs
// as --metrics-out / --metrics-format / --trace-out / --metrics-port. The
// per-slot deadline budget has no environment knob: it comes from
// RoaOptions::slo, which sora_cli and sora_serve set from --slot-budget-ms.
// See docs/OBSERVABILITY.md for the metric-name catalogue.
#pragma once

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape_server.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace sora::obs {

/// Apply the SORA_METRICS / SORA_TRACE environment contract. Called
/// automatically at static-init time by any binary linking sora_obs;
/// idempotent and safe to call again (e.g. after a test flips env vars).
void configure_from_env();

/// Paths configured via environment (empty when unset). Exports to these
/// paths run automatically at normal process exit.
const std::string& metrics_out_path();
const std::string& trace_out_path();

/// Write the registered exit exports now (no-op for unset paths). Exposed
/// so tests and tools can flush without exiting.
void flush_exports();

}  // namespace sora::obs
