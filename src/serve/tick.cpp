#include "serve/tick.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace sora::serve {
namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

bool parse_count(const std::string& token, double& value) {
  errno = 0;
  char* end = nullptr;
  value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) return false;
  return std::isfinite(value) && value >= 0.0;
}

}  // namespace

bool parse_tick_line(const std::string& line, std::size_t num_sites, Tick& out,
                     std::string* error) {
  out = Tick{};
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb) || verb[0] == '#') {
    out.kind = Tick::Kind::kIgnore;
    return true;
  }
  if (verb == "snapshot") {
    out.kind = Tick::Kind::kSnapshot;
    return true;
  }
  if (verb == "quit") {
    out.kind = Tick::Kind::kQuit;
    return true;
  }
  if (verb != "tick") {
    set_error(error, "unknown verb \"" + verb + "\"");
    return false;
  }

  std::string slot_token;
  if (!(in >> slot_token)) {
    set_error(error, "tick: missing slot index");
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long slot = std::strtoull(slot_token.c_str(), &end, 10);
  if (end == slot_token.c_str() || *end != '\0' || errno == ERANGE ||
      slot_token[0] == '-') {
    set_error(error, "tick: bad slot index \"" + slot_token + "\"");
    return false;
  }
  out.slot = static_cast<std::size_t>(slot);
  out.requests.assign(num_sites, 0.0);

  std::string token;
  bool sparse = false;
  std::size_t dense_count = 0;
  while (in >> token) {
    const std::size_t colon = token.find(':');
    if (colon != std::string::npos) {  // sparse <j>:<requests>
      if (dense_count > 0) {
        set_error(error, "tick: mixed dense and sparse counts");
        return false;
      }
      sparse = true;
      errno = 0;
      char* idx_end = nullptr;
      const std::string idx_token = token.substr(0, colon);
      const unsigned long long j =
          std::strtoull(idx_token.c_str(), &idx_end, 10);
      if (idx_end == idx_token.c_str() || *idx_end != '\0' ||
          errno == ERANGE || j >= num_sites) {
        set_error(error, "tick: bad site index \"" + idx_token + "\" (J=" +
                             std::to_string(num_sites) + ")");
        return false;
      }
      double value = 0.0;
      if (!parse_count(token.substr(colon + 1), value)) {
        set_error(error, "tick: bad request count \"" + token + "\"");
        return false;
      }
      out.requests[j] = value;
    } else {  // dense positional count
      if (sparse) {
        set_error(error, "tick: mixed dense and sparse counts");
        return false;
      }
      if (dense_count >= num_sites) {
        set_error(error, "tick: more than " + std::to_string(num_sites) +
                             " dense counts");
        return false;
      }
      double value = 0.0;
      if (!parse_count(token, value)) {
        set_error(error, "tick: bad request count \"" + token + "\"");
        return false;
      }
      out.requests[dense_count++] = value;
    }
  }
  if (!sparse && dense_count != num_sites) {
    set_error(error, "tick: expected " + std::to_string(num_sites) +
                         " dense counts, got " + std::to_string(dense_count));
    return false;
  }
  out.kind = Tick::Kind::kTick;
  return true;
}

std::string format_tick_line(std::size_t slot,
                             const std::vector<double>& requests) {
  std::string line = "tick " + std::to_string(slot);
  char buf[32];
  for (const double r : requests) {
    std::snprintf(buf, sizeof buf, " %.17g", r);
    line += buf;
  }
  return line;
}

}  // namespace sora::serve
