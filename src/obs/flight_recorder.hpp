// Solver flight recorder: a bounded ring of per-solve forensic records plus
// anomaly-triggered JSON incident reports.
//
// Every slot-granular solve (P2 chain, n-tier, the offline P1 window LP)
// appends one FlightRecord describing what happened: which
// backend produced the answer, how deep the fallback chain went, iteration
// counts, the solver's own diagnostic string (KKT gap, step diagnostics),
// and the instance signature. Recording is a single short mutex-guarded ring
// push — negligible next to a solve — and is always on, so when something
// finally goes wrong the *preceding* solves are already captured.
//
// When a record carries an anomaly (iteration_limit, NaN demotion,
// degradation, chain exhaustion) the recorder counts it and, when an
// incident directory is configured (SORA_INCIDENT_DIR or
// set_incident_dir()), dumps a JSON incident report: the triggering record
// plus the full ring snapshot, parseable by obs::json::parse. Reports are
// capped per process so a fault storm cannot flood the disk.
//
// docs/OBSERVABILITY.md ("Slot SLOs & flight recorder") documents the file
// format and the `sora_flight_*` metric family.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sora::obs {

/// Why a record triggered an incident. Classification from raw solve
/// outcomes lives in core::resilience (obs stays below core).
enum class Anomaly {
  kNone = 0,
  kIterationLimit,   // a backend gave up at its iteration budget
  kNumericalError,   // a backend reported numerical failure
  kNanDemotion,      // an "optimal" solve was poisoned by NaN/Inf
  kDegradation,      // the chain fell through to hold-and-repair
  kExhaustion,       // no backend produced a usable decision
};

const char* to_string(Anomaly anomaly);

/// One solve as seen by the flight recorder. Backend/status are carried as
/// strings (the resilience taxonomy's to_string names) so obs does not
/// depend on core.
struct FlightRecord {
  std::uint64_t sequence = 0;  ///< assigned by the recorder, monotone
  std::string context;         ///< pipeline stage: "p2_slot", "p1_window", ...
  std::size_t slot = 0;
  std::string backend;         ///< producing backend ("" = none)
  std::string status;          ///< terminal SolveStatus / LP status name
  std::size_t attempts = 1;    ///< fallback-chain depth
  bool fell_back = false;
  bool degraded = false;
  double latency_seconds = 0.0;
  double repair_cost_delta = 0.0;
  std::uint64_t iterations = 0;  ///< producing stage's Newton steps or
                                 ///< simplex/PDHG iterations
  std::string detail;            ///< solver diagnostic (KKT gap, step info)
  std::string signature;         ///< instance/problem signature when known
  Anomaly anomaly = Anomaly::kNone;
};

/// Bounded forensic ring. Thread-safe; one mutex push per record.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;
  static constexpr std::size_t kDefaultMaxIncidents = 16;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
  ~FlightRecorder();

  /// The process-wide recorder (leaked, like Registry::global()).
  static FlightRecorder& global();

  /// Append one record (sequence is assigned here). If `rec.anomaly` is not
  /// kNone this bumps the anomaly counters and, when an incident directory
  /// is configured and the per-process cap allows, writes an incident JSON.
  /// Returns the incident file path, or "" when no file was written.
  std::string record(FlightRecord rec);

  /// Ring contents, oldest first.
  std::vector<FlightRecord> snapshot() const;

  std::uint64_t total_records() const;
  std::uint64_t total_anomalies() const;
  std::uint64_t incidents_written() const;
  std::string last_incident_path() const;

  std::size_t capacity() const;
  /// Resize the ring (drops current contents).
  void set_capacity(std::size_t capacity);

  /// "" disables incident files (anomalies are still counted and ring-kept).
  void set_incident_dir(std::string dir);
  std::string incident_dir() const;

  void set_max_incidents(std::size_t n);

  /// Drop all records and counters (incident dir/caps survive). Tests only.
  void clear();

 private:
  struct Impl;
  Impl& impl() const { return *impl_; }
  std::unique_ptr<Impl> impl_;
};

/// Incident report body: {"incident": <trigger>, "ring": [<records>...]}.
/// Exposed for tests; FlightRecorder::record uses it for the dump files.
std::string render_incident_json(const FlightRecord& trigger,
                                 const std::vector<FlightRecord>& ring);

}  // namespace sora::obs
