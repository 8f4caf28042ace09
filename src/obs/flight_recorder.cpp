#include "obs/flight_recorder.hpp"

#include <cstdio>
#include <mutex>
#include <sstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace sora::obs {

const char* to_string(Anomaly anomaly) {
  switch (anomaly) {
    case Anomaly::kNone: return "none";
    case Anomaly::kIterationLimit: return "iteration_limit";
    case Anomaly::kNumericalError: return "numerical_error";
    case Anomaly::kNanDemotion: return "nan_demotion";
    case Anomaly::kDegradation: return "degradation";
    case Anomaly::kExhaustion: return "exhaustion";
  }
  return "?";
}

namespace {

void append_record_json(std::ostringstream& os, const FlightRecord& r) {
  os << "{\"sequence\":" << r.sequence
     << ",\"context\":\"" << json::escape(r.context) << "\""
     << ",\"slot\":" << r.slot
     << ",\"backend\":\"" << json::escape(r.backend) << "\""
     << ",\"status\":\"" << json::escape(r.status) << "\""
     << ",\"attempts\":" << r.attempts
     << ",\"fell_back\":" << (r.fell_back ? "true" : "false")
     << ",\"degraded\":" << (r.degraded ? "true" : "false")
     << ",\"latency_seconds\":" << json::number(r.latency_seconds)
     << ",\"repair_cost_delta\":" << json::number(r.repair_cost_delta)
     << ",\"iterations\":" << r.iterations
     << ",\"detail\":\"" << json::escape(r.detail) << "\""
     << ",\"signature\":\"" << json::escape(r.signature) << "\""
     << ",\"anomaly\":\"" << to_string(r.anomaly) << "\"}";
}

/// Keep file names shell-friendly (mirrors testing::default_repro_path).
std::string sanitize_label(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '-';
  }
  return out.empty() ? std::string("solve") : out;
}

struct FlightMetrics {
  Counter* records;
  Counter* anomalies;
  Counter* incidents;
};

FlightMetrics& flight_metrics() {
  static FlightMetrics* m = [] {
    auto& reg = Registry::global();
    return new FlightMetrics{
        &reg.counter("sora_flight_records_total",
                     "Solve records appended to the flight-recorder ring"),
        &reg.counter("sora_flight_anomalies_total",
                     "Flight records carrying a non-none anomaly"),
        &reg.counter("sora_flight_incidents_total",
                     "Incident JSON reports written to SORA_INCIDENT_DIR"),
    };
  }();
  return *m;
}

}  // namespace

struct FlightRecorder::Impl {
  mutable std::mutex mu;
  std::vector<FlightRecord> ring;  // ring.size() <= capacity
  std::size_t capacity;
  std::size_t head = 0;            // next write position once full
  std::uint64_t next_sequence = 0;
  std::uint64_t anomalies = 0;
  std::uint64_t incidents = 0;
  std::size_t max_incidents = kDefaultMaxIncidents;
  std::string incident_dir;
  std::string last_incident;
};

FlightRecorder::FlightRecorder(std::size_t capacity)
    : impl_(std::make_unique<Impl>()) {
  impl_->capacity = capacity == 0 ? 1 : capacity;
  impl_->ring.reserve(impl_->capacity);
}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = new FlightRecorder;  // leaked
  return *recorder;
}

std::string FlightRecorder::record(FlightRecord rec) {
  Impl& im = impl();
  std::string incident_path;
  bool write_incident = false;
  std::vector<FlightRecord> ring_copy;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    rec.sequence = im.next_sequence++;
    if (im.ring.size() < im.capacity) {
      im.ring.push_back(rec);
    } else {
      im.ring[im.head] = rec;
      im.head = (im.head + 1) % im.capacity;
    }
    if (rec.anomaly != Anomaly::kNone) {
      ++im.anomalies;
      if (!im.incident_dir.empty() && im.incidents < im.max_incidents) {
        ++im.incidents;
        write_incident = true;
        incident_path = im.incident_dir + "/sora-incident-" +
                        sanitize_label(rec.context) + "-slot" +
                        std::to_string(rec.slot) + "-" +
                        std::to_string(rec.sequence) + ".json";
        im.last_incident = incident_path;
        // Snapshot under the lock, render/write outside it.
        ring_copy.reserve(im.ring.size());
        for (std::size_t k = 0; k < im.ring.size(); ++k)
          ring_copy.push_back(
              im.ring[(im.head + k) % im.ring.size()]);
      }
    }
  }
  FlightMetrics& m = flight_metrics();
  m.records->inc();
  if (rec.anomaly != Anomaly::kNone) m.anomalies->inc();
  if (!write_incident) return "";

  const std::string body = render_incident_json(rec, ring_copy);
  std::FILE* f = std::fopen(incident_path.c_str(), "w");
  if (f == nullptr) return "";  // forensics must never take the solve down
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) return "";
  m.incidents->inc();
  return incident_path;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<FlightRecord> out;
  out.reserve(im.ring.size());
  for (std::size_t k = 0; k < im.ring.size(); ++k)
    out.push_back(im.ring[(im.head + k) % im.ring.size()]);
  return out;
}

std::uint64_t FlightRecorder::total_records() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.next_sequence;
}

std::uint64_t FlightRecorder::total_anomalies() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.anomalies;
}

std::uint64_t FlightRecorder::incidents_written() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.incidents;
}

std::string FlightRecorder::last_incident_path() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.last_incident;
}

std::size_t FlightRecorder::capacity() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.capacity;
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.capacity = capacity == 0 ? 1 : capacity;
  im.ring.clear();
  im.ring.reserve(im.capacity);
  im.head = 0;
}

void FlightRecorder::set_incident_dir(std::string dir) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.incident_dir = std::move(dir);
}

std::string FlightRecorder::incident_dir() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.incident_dir;
}

void FlightRecorder::set_max_incidents(std::size_t n) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.max_incidents = n;
}

void FlightRecorder::clear() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.ring.clear();
  im.head = 0;
  im.next_sequence = 0;
  im.anomalies = 0;
  im.incidents = 0;
  im.last_incident.clear();
}

std::string render_incident_json(const FlightRecord& trigger,
                                 const std::vector<FlightRecord>& ring) {
  std::ostringstream os;
  os << "{\"version\":1,\"incident\":";
  append_record_json(os, trigger);
  os << ",\"ring\":[";
  for (std::size_t k = 0; k < ring.size(); ++k) {
    if (k != 0) os << ",";
    append_record_json(os, ring[k]);
  }
  os << "]}\n";
  return os.str();
}

}  // namespace sora::obs
