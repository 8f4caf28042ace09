#include "serve/snapshot.hpp"

#include <cstdio>
#include <cstring>

#include <fstream>

namespace sora::serve {
namespace {

constexpr char kMagic[8] = {'S', 'O', 'R', 'A', 'S', 'N', 'A', 'P'};

std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void put_f64(std::string& out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void put_vec(std::string& out, const core::Vec& v) {
  for (const double x : v) put_f64(out, x);
}

class Reader {
 public:
  Reader(const std::string& bytes) : bytes_(bytes) {}

  bool u32(std::uint32_t& v) { return copy(&v, 4); }
  bool u64(std::uint64_t& v) { return copy(&v, 8); }
  bool f64(double& v) { return copy(&v, 8); }
  bool vec(core::Vec& v, std::size_t n) {
    // Check the header's count against the bytes left before allocating.
    if (n > (bytes_.size() - pos_) / 8) return false;
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      if (!f64(v[i])) return false;
    return true;
  }
  std::size_t pos() const { return pos_; }

 private:
  bool copy(void* dst, std::size_t n) {
    if (pos_ + n > bytes_.size()) return false;
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

std::string encode_snapshot(const ServeSnapshot& snap) {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kSnapshotVersion);
  put_u32(out, snap.has_warm ? 1u : 0u);
  put_u64(out, snap.next_slot);
  put_u64(out, snap.num_tier1);
  put_u64(out, snap.num_tier2);
  put_u64(out, snap.num_edges);
  put_u64(out, snap.has_warm ? snap.warm.size() : 0);
  put_f64(out, snap.cost.allocation);
  put_f64(out, snap.cost.reconfiguration);
  put_u64(out, snap.slots);
  put_u64(out, snap.degraded_slots);
  put_u64(out, snap.fallback_slots);
  put_u64(out, snap.deadline_misses);
  put_vec(out, snap.prev.x);
  put_vec(out, snap.prev.y);
  put_vec(out, snap.prev.z);
  if (snap.has_warm) put_vec(out, snap.warm);
  put_u64(out, fnv1a(out.data(), out.size()));
  return out;
}

bool decode_snapshot(const std::string& bytes, ServeSnapshot& out,
                     std::string* error) {
  out = ServeSnapshot{};
  if (bytes.size() < sizeof kMagic + 8 ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    set_error(error, "not a sora_serve snapshot (bad magic)");
    return false;
  }
  std::uint64_t trailer = 0;
  std::memcpy(&trailer, bytes.data() + bytes.size() - 8, 8);
  if (fnv1a(bytes.data(), bytes.size() - 8) != trailer) {
    set_error(error, "snapshot checksum mismatch (truncated or corrupt)");
    return false;
  }

  Reader r(bytes);
  std::uint32_t magic_skip[2];
  r.u32(magic_skip[0]);
  r.u32(magic_skip[1]);  // the 8 magic bytes
  std::uint32_t version = 0, flags = 0;
  std::uint64_t next_slot = 0, j = 0, i = 0, e = 0, warm_size = 0;
  if (!r.u32(version) || !r.u32(flags) || !r.u64(next_slot) || !r.u64(j) ||
      !r.u64(i) || !r.u64(e) || !r.u64(warm_size)) {
    set_error(error, "snapshot header truncated");
    return false;
  }
  if (version != kSnapshotVersion) {
    set_error(error, "unsupported snapshot version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kSnapshotVersion) + ")");
    return false;
  }
  out.next_slot = next_slot;
  out.num_tier1 = j;
  out.num_tier2 = i;
  out.num_edges = e;
  out.has_warm = (flags & 1u) != 0;
  if (!r.f64(out.cost.allocation) || !r.f64(out.cost.reconfiguration) ||
      !r.u64(out.slots) || !r.u64(out.degraded_slots) ||
      !r.u64(out.fallback_slots) || !r.u64(out.deadline_misses) ||
      !r.vec(out.prev.x, e) || !r.vec(out.prev.y, e) ||
      !r.vec(out.prev.z, e) || !r.vec(out.warm, out.has_warm ? warm_size : 0)) {
    set_error(error, "snapshot body truncated");
    return false;
  }
  if (r.pos() + 8 != bytes.size()) {
    set_error(error, "snapshot has trailing bytes");
    return false;
  }
  return true;
}

bool write_snapshot(const std::string& path, const ServeSnapshot& snap,
                    std::string* error) {
  const std::string bytes = encode_snapshot(snap);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      set_error(error, "cannot open " + tmp + " for writing");
      return false;
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      set_error(error, "short write to " + tmp);
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "rename " + tmp + " -> " + path + " failed");
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool read_snapshot(const std::string& path, ServeSnapshot& out,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    set_error(error, "cannot open snapshot " + path);
    return false;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return decode_snapshot(bytes, out, error);
}

}  // namespace sora::serve
