#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <mutex>
#include <sstream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace sora::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
void auto_configure();  // obs.cpp: env contract + atexit export
}  // namespace detail

namespace {
// Any binary using metrics links this TU; run the env contract at load.
[[maybe_unused]] const bool g_auto_configured = (detail::auto_configure(), true);
}  // namespace

void set_metrics_enabled(bool enabled) {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  SORA_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket");
  SORA_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                     std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                         bounds_.end(),
                 "histogram bounds must be strictly increasing");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t k = 0; k <= bounds_.size(); ++k) counts_[k] = 0;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (std::size_t k = 0; k <= bounds_.size(); ++k)
    out[k] = counts_[k].load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() {
  for (std::size_t k = 0; k <= bounds_.size(); ++k)
    counts_[k].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count) {
  SORA_CHECK(start > 0.0 && factor > 1.0 && count > 0);
  std::vector<double> bounds(count);
  double b = start;
  for (std::size_t k = 0; k < count; ++k, b *= factor) bounds[k] = b;
  return bounds;
}

std::vector<double> linear_buckets(double start, double width,
                                   std::size_t count) {
  SORA_CHECK(width > 0.0 && count > 0);
  std::vector<double> bounds(count);
  for (std::size_t k = 0; k < count; ++k)
    bounds[k] = start + width * static_cast<double>(k);
  return bounds;
}

MetricsFormat parse_metrics_format(const std::string& name) {
  if (name == "text" || name == "prom" || name == "prometheus")
    return MetricsFormat::kText;
  return MetricsFormat::kJson;
}

namespace {

enum class Kind { kCounter, kGauge, kHistogram };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

struct Entry {
  std::string name;
  std::string unit;
  std::string help;
  Kind kind;
  Counter* counter = nullptr;
  Gauge* gauge = nullptr;
  Histogram* histogram = nullptr;
};

}  // namespace

struct Registry::Impl {
  mutable std::mutex mu;
  // Deques give stable addresses under growth; instruments are never erased.
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::vector<Entry> entries;  // registration order
  std::map<std::string, std::size_t> index;

  Entry* find(const std::string& name, Kind kind) {
    auto it = index.find(name);
    if (it == index.end()) return nullptr;
    Entry& e = entries[it->second];
    SORA_CHECK_MSG(e.kind == kind,
                   "metric '" + name + "' already registered as " +
                       kind_name(e.kind) + ", requested " + kind_name(kind));
    return &e;
  }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry* registry = new Registry;  // leaked: outlives atexit hooks
  return *registry;
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (Entry* e = im.find(name, Kind::kCounter)) return *e->counter;
  im.counters.emplace_back();
  Entry e{name, "", help, Kind::kCounter, &im.counters.back(), nullptr,
          nullptr};
  im.index[name] = im.entries.size();
  im.entries.push_back(std::move(e));
  return im.counters.back();
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (Entry* e = im.find(name, Kind::kGauge)) return *e->gauge;
  im.gauges.emplace_back();
  Entry e{name, "", help, Kind::kGauge, nullptr, &im.gauges.back(), nullptr};
  im.index[name] = im.entries.size();
  im.entries.push_back(std::move(e));
  return im.gauges.back();
}

Histogram& Registry::histogram(const std::string& name, const std::string& unit,
                               const std::string& help,
                               std::vector<double> bounds) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (Entry* e = im.find(name, Kind::kHistogram)) return *e->histogram;
  im.histograms.emplace_back(std::move(bounds));
  Entry e{name, unit, help, Kind::kHistogram, nullptr, nullptr,
          &im.histograms.back()};
  im.index[name] = im.entries.size();
  im.entries.push_back(std::move(e));
  return im.histograms.back();
}

RegistrySnapshot Registry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  RegistrySnapshot snap;
  for (const Entry& e : im.entries) {
    switch (e.kind) {
      case Kind::kCounter:
        snap.counters[e.name] = e.counter->value();
        break;
      case Kind::kGauge:
        snap.gauges[e.name] = e.gauge->value();
        break;
      case Kind::kHistogram: {
        HistogramSnapshot h;
        h.bounds = e.histogram->bounds();
        h.counts = e.histogram->bucket_counts();
        h.count = e.histogram->count();
        h.sum = e.histogram->sum();
        snap.histograms[e.name] = std::move(h);
        break;
      }
    }
  }
  return snap;
}

std::string Registry::render_text() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::ostringstream os;
  for (const Entry& e : im.entries) {
    if (!e.help.empty()) os << "# HELP " << e.name << " " << e.help << "\n";
    os << "# TYPE " << e.name << " " << kind_name(e.kind) << "\n";
    switch (e.kind) {
      case Kind::kCounter:
        os << e.name << " " << e.counter->value() << "\n";
        break;
      case Kind::kGauge:
        os << e.name << " " << json::number(e.gauge->value()) << "\n";
        break;
      case Kind::kHistogram: {
        const auto& bounds = e.histogram->bounds();
        const auto counts = e.histogram->bucket_counts();
        std::uint64_t cumulative = 0;
        for (std::size_t k = 0; k < bounds.size(); ++k) {
          cumulative += counts[k];
          os << e.name << "_bucket{le=\"" << json::number(bounds[k]) << "\"} "
             << cumulative << "\n";
        }
        os << e.name << "_bucket{le=\"+Inf\"} " << e.histogram->count()
           << "\n";
        os << e.name << "_sum " << json::number(e.histogram->sum()) << "\n";
        os << e.name << "_count " << e.histogram->count() << "\n";
        break;
      }
    }
  }
  return os.str();
}

std::string Registry::render_json() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::ostringstream os;
  os << "{\"metrics\":[";
  bool first = true;
  for (const Entry& e : im.entries) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json::escape(e.name) << "\",\"type\":\""
       << kind_name(e.kind) << "\"";
    if (!e.unit.empty()) os << ",\"unit\":\"" << json::escape(e.unit) << "\"";
    if (!e.help.empty()) os << ",\"help\":\"" << json::escape(e.help) << "\"";
    switch (e.kind) {
      case Kind::kCounter:
        os << ",\"value\":" << e.counter->value();
        break;
      case Kind::kGauge:
        os << ",\"value\":" << json::number(e.gauge->value());
        break;
      case Kind::kHistogram: {
        const auto& bounds = e.histogram->bounds();
        const auto counts = e.histogram->bucket_counts();
        os << ",\"buckets\":[";
        for (std::size_t k = 0; k < bounds.size(); ++k) {
          if (k != 0) os << ",";
          os << "{\"le\":" << json::number(bounds[k]) << ",\"count\":"
             << counts[k] << "}";
        }
        os << ",{\"le\":\"+Inf\",\"count\":" << counts[bounds.size()] << "}]";
        os << ",\"sum\":" << json::number(e.histogram->sum());
        os << ",\"count\":" << e.histogram->count();
        break;
      }
    }
    os << "}";
  }
  os << "]}\n";
  return os.str();
}

void Registry::write_file(const std::string& path, MetricsFormat format) const {
  const std::string body =
      format == MetricsFormat::kText ? render_text() : render_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  SORA_CHECK_MSG(f != nullptr, "cannot open metrics file " + path);
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  SORA_CHECK_MSG(written == body.size(), "short write to " + path);
}

void Registry::reset_all() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (Counter& c : im.counters) c.reset();
  for (Gauge& g : im.gauges) g.reset();
  for (Histogram& h : im.histograms) h.reset();
}

}  // namespace sora::obs
