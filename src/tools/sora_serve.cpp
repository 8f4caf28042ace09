// sora_serve — long-lived streaming allocation daemon.
//
// Reads workload ticks (serve/tick.hpp wire format) from a file, stdin, or
// a loopback TCP socket, runs the warm-started per-slot P2 solve against a
// persistent workspace, and publishes one line per served slot:
//
//   slot <t> hash=<hex> cost=<c> cum=<c> backend=<b> attempts=<n>
//     degraded=<0|1> miss=<0|1> latency_ms=<l>     (one line per slot)
//
// Fields after (and including) `miss=` are timing-dependent; the
// differential restore check strips them (see tests/serve_smoke.sh).
//
//   sora_serve --workload wikipedia --hours 48 --ticks trace.txt
//   sora_serve --listen 7071 --snapshot state.snap --snapshot-every 10
//   sora_serve --restore --snapshot state.snap --ticks -
//
// Flags (instance construction matches sora_cli):
//   --workload wikipedia|worldcup  --trace FILE  --hours T
//   --tier2 I --tier1 J --k K --b W --eps E --model-tier1 --seed S
// serving:
//   --ticks FILE          tick source; "-" = stdin            [-]
//   --listen PORT         accept loopback tick streams instead of --ticks
//                         (one client at a time; 0 = ephemeral port)
//   --requests-per-unit R raw requests per unit of lambda     [1.0]
//   --slot-budget-ms B    deadline; a late solve is discarded and the slot
//                         re-routed to hold-and-repair          [0 = none]
//   --out FILE            per-slot output (default stdout)
//   --max-slots N         stop after serving N slots
// snapshots:
//   --snapshot PATH       snapshot file (atomic write-then-rename)
//   --snapshot-every N    auto-snapshot every N served slots
//   --restore             resume from --snapshot before serving; stale
//                         ticks (slot < resume point) are skipped
// observability:
//   --metrics-port P      live Prometheus scrape on 127.0.0.1:P
// test / CI harness:
//   --emit-ticks N        print N ticks derived from the instance's demand
//                         trace (slot cycling) and exit
//   --kill-after N        simulate a crash: after serving N slots, flush
//                         output and _Exit(137) without snapshotting
//   --tick-delay-ms D     sleep D ms after each served slot
#include <unistd.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "cloudnet/instance.hpp"
#include "cloudnet/workload.hpp"
#include "obs/obs.hpp"
#include "serve/daemon.hpp"
#include "serve/tick.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace {

using namespace sora;

core::Instance build(const util::Options& opts) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const std::size_t hours =
      static_cast<std::size_t>(opts.get_int("hours", 120));
  cloudnet::WorkloadTrace trace;
  const std::string trace_path = opts.get_string("trace", "");
  if (!trace_path.empty()) {
    trace = cloudnet::load_csv_trace(trace_path);
    if (trace.hours() > hours && opts.has("hours")) trace.demand.resize(hours);
  } else {
    util::Rng rng(seed);
    const std::string kind = opts.get_string("workload", "wikipedia");
    trace = kind == "worldcup" ? cloudnet::worldcup_like(hours, rng)
                               : cloudnet::wikipedia_like(hours, rng);
  }

  cloudnet::InstanceConfig cfg;
  cfg.num_tier2 = static_cast<std::size_t>(opts.get_int("tier2", 6));
  cfg.num_tier1 = static_cast<std::size_t>(opts.get_int("tier1", 12));
  cfg.sla_k = static_cast<std::size_t>(opts.get_int("k", 1));
  cfg.reconfig_weight = opts.get_double("b", 1000.0);
  cfg.seed = seed;
  cfg.model_tier1 = opts.get_bool("model-tier1", false);
  return cloudnet::build_instance(cfg, trace);
}

// Line-at-a-time source over stdin, a file, or one loopback TCP client.
// next_line() returns false only at end-of-stream (for the socket source:
// after the client disconnects AND the listener is told not to re-accept).
class TickSource {
 public:
  virtual ~TickSource() = default;
  virtual bool next_line(std::string& line) = 0;
};

class StreamSource : public TickSource {
 public:
  explicit StreamSource(std::istream& in) : in_(in) {}
  bool next_line(std::string& line) override {
    return static_cast<bool>(std::getline(in_, line));
  }

 private:
  std::istream& in_;
};

class SocketSource : public TickSource {
 public:
  // Binds 127.0.0.1:port (0 = ephemeral). bound_port() < 0 on failure.
  explicit SocketSource(int port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return;
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(listen_fd_, 1) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0)
      bound_port_ = ntohs(bound.sin_port);
  }
  ~SocketSource() override {
    if (client_fd_ >= 0) ::close(client_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  int bound_port() const { return bound_port_; }

  bool next_line(std::string& line) override {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line = buffer_.substr(0, nl);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        buffer_.erase(0, nl + 1);
        return true;
      }
      if (client_fd_ < 0) {
        client_fd_ = ::accept(listen_fd_, nullptr, nullptr);
        if (client_fd_ < 0) return flush_tail(line);
      }
      char chunk[4096];
      const ssize_t n = ::read(client_fd_, chunk, sizeof chunk);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      // Client gone: serve whatever partial line is left, then wait for
      // the next client. A `quit` line is the only graceful way out.
      ::close(client_fd_);
      client_fd_ = -1;
      if (!buffer_.empty()) return flush_tail(line);
    }
  }

 private:
  bool flush_tail(std::string& line) {
    if (buffer_.empty()) return false;
    line.swap(buffer_);
    buffer_.clear();
    return true;
  }
  int listen_fd_ = -1;
  int client_fd_ = -1;
  int bound_port_ = -1;
  std::string buffer_;
};

void print_slot(std::ostream& out, const serve::SlotResult& r) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(r.alloc_hash));
  char nums[96];
  std::snprintf(nums, sizeof nums, "cost=%.17g cum=%.17g", r.slot_cost,
                r.cumulative_cost);
  out << "slot " << r.slot << " hash=" << hex << ' ' << nums
      << " backend=" << r.backend << " attempts=" << r.attempts
      << " degraded=" << (r.degraded ? 1 : 0)
      << " miss=" << (r.deadline_miss ? 1 : 0) << " latency_ms=" << std::fixed
      << r.latency_seconds * 1e3 << "\n";
  out.unsetf(std::ios::floatfield);
  out.flush();
}

int emit_ticks(const core::Instance& inst, std::size_t count,
               double requests_per_unit) {
  std::vector<double> requests(inst.num_tier1());
  for (std::size_t t = 0; t < count; ++t) {
    const auto& row = inst.demand[t % inst.horizon];
    for (std::size_t j = 0; j < requests.size(); ++j)
      requests[j] = row[j] * requests_per_unit;
    std::cout << serve::format_tick_line(t, requests) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: sora_serve [instance flags] [serving flags]\n"
                   "see the header comment of src/tools/sora_serve.cpp and\n"
                   "docs/SERVING.md for the full contract\n";
      return 0;
    }
  }
  const auto opts = util::Options::parse(
      argc, argv,
      {"workload", "trace", "hours", "tier2", "tier1", "k", "b", "eps",
       "model-tier1", "seed", "ticks", "listen", "requests-per-unit",
       "slot-budget-ms", "out", "max-slots", "snapshot", "snapshot-every",
       "restore", "metrics-port", "emit-ticks", "kill-after",
       "tick-delay-ms"});

  const core::Instance inst = build(opts);
  const auto report = cloudnet::validate_instance(inst);
  if (!report.ok) {
    std::cerr << "instance invalid: " << report.problems[0] << "\n";
    return 1;
  }

  serve::ServeOptions serve_opts;
  serve_opts.roa.eps = serve_opts.roa.eps_prime = opts.get_double("eps", 1e-2);
  serve_opts.roa.slo.budget_seconds =
      opts.get_double("slot-budget-ms", 0.0) * 1e-3;
  serve_opts.requests_per_unit = opts.get_double("requests-per-unit", 1.0);
  serve_opts.snapshot_path = opts.get_string("snapshot", "");
  serve_opts.snapshot_every =
      static_cast<std::size_t>(opts.get_int("snapshot-every", 0));

  if (opts.has("emit-ticks"))
    return emit_ticks(inst,
                      static_cast<std::size_t>(opts.get_int("emit-ticks", 0)),
                      serve_opts.requests_per_unit);

  if (opts.has("metrics-port")) {
    obs::set_metrics_enabled(true);
    const int bound = obs::start_global_scrape_server(
        static_cast<int>(opts.get_int("metrics-port", 0)));
    if (bound < 0) {
      std::cerr << "failed to start scrape server\n";
      return 1;
    }
    std::cerr << "metrics: live scrape at http://127.0.0.1:" << bound
              << "/metrics\n";
  }

  serve::ServeDaemon daemon(inst, serve_opts);
  if (opts.get_bool("restore", false)) {
    std::string error;
    if (!daemon.restore(&error)) {
      std::cerr << "restore failed: " << error << "\n";
      return 1;
    }
    std::cerr << "restored; resuming at slot " << daemon.next_slot() << "\n";
  }

  std::ofstream out_file;
  const std::string out_path = opts.get_string("out", "");
  if (!out_path.empty()) {
    out_file.open(out_path, std::ios::app);
    if (!out_file) {
      std::cerr << "cannot open --out " << out_path << "\n";
      return 1;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : out_file;

  std::ifstream tick_file;
  std::unique_ptr<TickSource> source;
  if (opts.has("listen")) {
    auto sock =
        std::make_unique<SocketSource>(static_cast<int>(opts.get_int("listen", 0)));
    if (sock->bound_port() < 0) {
      std::cerr << "cannot listen on 127.0.0.1:" << opts.get_int("listen", 0)
                << "\n";
      return 1;
    }
    std::cerr << "listening for ticks on 127.0.0.1:" << sock->bound_port()
              << "\n";
    source = std::move(sock);
  } else {
    const std::string ticks = opts.get_string("ticks", "-");
    if (ticks != "-") {
      tick_file.open(ticks);
      if (!tick_file) {
        std::cerr << "cannot open --ticks " << ticks << "\n";
        return 1;
      }
    }
    source = std::make_unique<StreamSource>(ticks == "-" ? std::cin
                                                         : tick_file);
  }

  const std::size_t max_slots =
      static_cast<std::size_t>(opts.get_int("max-slots", 0));
  const std::size_t kill_after =
      static_cast<std::size_t>(opts.get_int("kill-after", 0));
  const long tick_delay_ms = opts.get_int("tick-delay-ms", 0);

  std::size_t served = 0;
  std::string line;
  while (source->next_line(line)) {
    serve::Tick tick;
    std::string error;
    if (!serve::parse_tick_line(line, inst.num_tier1(), tick, &error)) {
      std::cerr << "bad tick line: " << error << "\n";
      continue;
    }
    if (tick.kind == serve::Tick::Kind::kIgnore) continue;
    if (tick.kind == serve::Tick::Kind::kQuit) break;
    if (tick.kind == serve::Tick::Kind::kSnapshot) {
      std::string snap_error;
      if (!daemon.write_snapshot_now(&snap_error))
        std::cerr << "snapshot failed: " << snap_error << "\n";
      continue;
    }
    if (tick.slot < daemon.next_slot()) continue;  // restore replay
    if (tick.slot > daemon.next_slot())
      std::cerr << "warning: tick slot " << tick.slot
                << " skips ahead of next slot " << daemon.next_slot()
                << " (serving as slot " << daemon.next_slot() << ")\n";

    print_slot(out, daemon.step(tick));
    ++served;

    if (tick_delay_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(tick_delay_ms));
    if (kill_after > 0 && served >= kill_after) {
      // Crash simulation for the restore CI check: flush what a real
      // failure would have already published, then die without the
      // graceful-shutdown snapshot below.
      out.flush();
      std::_Exit(137);
    }
    if (max_slots > 0 && served >= max_slots) break;
  }

  if (!serve_opts.snapshot_path.empty()) {
    std::string snap_error;
    if (!daemon.write_snapshot_now(&snap_error))
      std::cerr << "final snapshot failed: " << snap_error << "\n";
  }

  const serve::ServeStats& stats = daemon.stats();
  std::cerr << "served " << stats.slots << " slots, cost " << stats.cost.total()
            << " (degraded " << stats.degraded_slots << ", fallback "
            << stats.fallback_slots << ", deadline misses "
            << stats.deadline_misses << ", snapshots "
            << stats.snapshots_written << ")\n";
  obs::flush_exports();
  return 0;
}
