#include "fault/failpoint.h"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace esd::fault {

std::atomic<int> g_active_points{0};

namespace {

bool SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Symbolic errno names accepted by error(...). Numeric codes also parse.
struct ErrnoName {
  const char* name;
  int code;
};
constexpr ErrnoName kErrnoNames[] = {
    {"EIO", EIO},       {"ENOSPC", ENOSPC}, {"ENOENT", ENOENT},
    {"EINTR", EINTR},   {"EACCES", EACCES}, {"EAGAIN", EAGAIN},
    {"EMFILE", EMFILE}, {"ENOMEM", ENOMEM}, {"EDQUOT", EDQUOT},
    {"EROFS", EROFS},   {"EBADF", EBADF},   {"ENODEV", ENODEV},
    // Network IO sites (net.read / net.write / net.accept).
    {"ECONNRESET", ECONNRESET},
    {"ECONNREFUSED", ECONNREFUSED},
    {"EPIPE", EPIPE},
    {"ETIMEDOUT", ETIMEDOUT},
};

/// Decimal digits only; refuses a value above UINT64_MAX instead of wrapping.
bool ParseUint(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseErrno(std::string_view text, int* code) {
  for (const ErrnoName& e : kErrnoNames) {
    if (text == e.name) {
      *code = e.code;
      return true;
    }
  }
  uint64_t value = 0;
  if (!ParseUint(text, &value) || value == 0 || value > INT_MAX) return false;
  *code = static_cast<int>(value);
  return true;
}

/// "name(arg)" -> arg; empty view when the shape does not match.
std::string_view CallArg(std::string_view text, std::string_view fn) {
  if (text.size() < fn.size() + 2 || text.substr(0, fn.size()) != fn ||
      text[fn.size()] != '(' || text.back() != ')') {
    return {};
  }
  return text.substr(fn.size() + 1, text.size() - fn.size() - 2);
}

uint64_t Splitmix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

FailPointRegistry& FailPointRegistry::Global() {
  static FailPointRegistry* registry = [] {
    auto* r = new FailPointRegistry();
    if (const char* seed = std::getenv("ESD_FAILPOINT_SEED")) {
      uint64_t value = 0;
      if (ParseUint(seed, &value)) r->SetSeed(value);
    }
    if (const char* spec = std::getenv("ESD_FAILPOINTS")) {
      std::string error;
      if (!r->Configure(spec, &error)) {
        std::fprintf(stderr, "esd: bad ESD_FAILPOINTS entry ignored: %s\n",
                     error.c_str());
      }
    }
    return r;
  }();
  return *registry;
}

bool FailPointRegistry::ParseSpec(std::string_view spec, Point* out,
                                  std::string* error) {
  Point p;
  std::string_view rest = spec;

  // Optional frequency prefix, "freq*action" (or a bare freq).
  const size_t star = rest.find('*');
  std::string_view freq = star == std::string_view::npos
                              ? std::string_view{}
                              : rest.substr(0, star);
  bool have_freq = false;
  auto parse_freq = [&p](std::string_view text) {
    const size_t in = text.find("in");
    if (in != std::string_view::npos && in > 0) {
      uint64_t num = 0, den = 0;
      if (ParseUint(text.substr(0, in), &num) &&
          ParseUint(text.substr(in + 2), &den) && num > 0 && num <= den) {
        p.freq = Freq::kProb;
        p.freq_a = num;
        p.freq_b = den;
        return true;
      }
      return false;
    }
    if (std::string_view arg = CallArg(text, "nth"); !arg.empty()) {
      p.freq = Freq::kNth;
      return ParseUint(arg, &p.freq_a) && p.freq_a > 0;
    }
    if (std::string_view arg = CallArg(text, "after"); !arg.empty()) {
      p.freq = Freq::kAfter;
      return ParseUint(arg, &p.freq_a);
    }
    if (ParseUint(text, &p.freq_a) && p.freq_a > 0) {
      p.freq = Freq::kTimes;
      return true;
    }
    return false;
  };
  if (!freq.empty()) {
    if (!parse_freq(freq)) {
      return SetError(error, "bad fail-point frequency: '" +
                                 std::string(freq) + "'");
    }
    have_freq = true;
    rest = rest.substr(star + 1);
  }

  // Action (or a bare frequency, which defaults to error(EIO)).
  if (rest == "error") {
    p.action = Action::kError;
    p.error_code = EIO;
  } else if (std::string_view arg = CallArg(rest, "error"); !arg.empty()) {
    p.action = Action::kError;
    if (!ParseErrno(arg, &p.error_code)) {
      return SetError(error,
                      "bad fail-point errno: '" + std::string(arg) + "'");
    }
  } else if (std::string_view arg = CallArg(rest, "delay"); !arg.empty()) {
    p.action = Action::kDelay;
    uint64_t ms = 0;
    if (!ParseUint(arg, &ms) || ms > 60'000) {
      return SetError(error,
                      "bad fail-point delay: '" + std::string(arg) + "'");
    }
    p.delay_ms = static_cast<uint32_t>(ms);
  } else if (rest == "park") {
    p.action = Action::kPark;
  } else if (!have_freq && parse_freq(rest)) {
    p.action = Action::kError;  // bare frequency: "1in5", "nth(3)", "2"
    p.error_code = EIO;
  } else {
    return SetError(error,
                    "bad fail-point spec: '" + std::string(spec) + "'");
  }
  *out = p;
  return true;
}

bool FailPointRegistry::Set(std::string_view name, std::string_view spec,
                            std::string* error) {
  if (name.empty()) return SetError(error, "empty fail-point name");
  if (spec == "off") {
    Clear(name);
    return true;
  }
  Point p;
  if (!ParseSpec(spec, &p, error)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = points_.insert_or_assign(std::string(name), p);
  (void)it;
  if (inserted) g_active_points.fetch_add(1, std::memory_order_relaxed);
  ++resets_;
  parked_.notify_all();
  return true;
}

bool FailPointRegistry::Configure(std::string_view list, std::string* error) {
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t end = list.find(';', begin);
    if (end == std::string_view::npos) end = list.size();
    const std::string_view entry = list.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return SetError(error, "bad fail-point entry (want name=spec): '" +
                                 std::string(entry) + "'");
    }
    if (!Set(entry.substr(0, eq), entry.substr(eq + 1), error)) return false;
  }
  return true;
}

void FailPointRegistry::Clear(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it != points_.end()) {
    points_.erase(it);
    g_active_points.fetch_sub(1, std::memory_order_relaxed);
  }
  ++resets_;
  parked_.notify_all();
}

void FailPointRegistry::ClearAll() {
  std::lock_guard<std::mutex> lock(mu_);
  g_active_points.fetch_sub(static_cast<int>(points_.size()),
                            std::memory_order_relaxed);
  points_.clear();
  ++resets_;
  parked_.notify_all();
}

void FailPointRegistry::Release(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) return;
  ++it->second.releases;
  parked_.notify_all();
}

void FailPointRegistry::SetSeed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_state_ = seed;
}

uint64_t FailPointRegistry::NextRandom() { return Splitmix64(&rng_state_); }

FaultHit FailPointRegistry::Evaluate(std::string_view name) {
  uint32_t delay_ms = 0;
  FaultHit hit;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = points_.find(name);
    if (it == points_.end()) return hit;
    Point& p = it->second;
    ++p.hits;
    bool fire = false;
    switch (p.freq) {
      case Freq::kAlways:
        fire = true;
        break;
      case Freq::kProb:
        fire = NextRandom() % p.freq_b < p.freq_a;
        break;
      case Freq::kNth:
        fire = p.hits == p.freq_a;
        break;
      case Freq::kAfter:
        fire = p.hits > p.freq_a;
        break;
      case Freq::kTimes:
        fire = p.hits <= p.freq_a;
        break;
    }
    if (!fire) return hit;
    ++p.fires;
    switch (p.action) {
      case Action::kError:
        hit.fired = true;
        hit.error_code = p.error_code;
        break;
      case Action::kDelay:
        delay_ms = p.delay_ms;  // sleep outside the lock
        break;
      case Action::kPark: {
        // Wait for a Release of this point or any reset; `p` may be gone
        // by then.
        const uint64_t resets = resets_, releases = p.releases;
        parked_.wait(lock, [&] {
          const auto at = points_.find(name);
          return resets_ != resets || at == points_.end() ||
                 at->second.releases != releases;
        });
        break;
      }
    }
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return hit;
}

uint64_t FailPointRegistry::HitCount(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FailPointRegistry::FireCount(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.fires;
}

std::vector<std::string> FailPointRegistry::ActiveNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, point] : points_) names.push_back(name);
  return names;
}

FaultHit EvaluateSlow(std::string_view name) {
  return FailPointRegistry::Global().Evaluate(name);
}

std::vector<FailPointSite> BuiltinFailPointSites() {
  // Keep sorted by name; one entry per site.
  return {
      {"index_io.dir_fsync", "index directory fsync fails (save succeeds)"},
      {"index_io.fsync", "index temp-file fsync fails; old file kept"},
      {"index_io.load", "index file read fails typed (open/parse path)"},
      {"index_io.open", "index temp-file open fails; old file kept"},
      {"index_io.rename", "index atomic rename fails; old file kept"},
      {"index_io.save", "index file write fails typed"},
      {"index_io.write", "index body write fails; old file kept"},
      {"live.refreeze",
       "background epoch rebuild fails; feeds the refreeze circuit "
       "breaker"},
      {"net.accept", "accept() fails; listener logs and keeps polling"},
      {"net.read", "connection read fails; connection is torn down"},
      {"net.write", "connection write fails; connection is torn down"},
      {"pool.post", "thread-pool task submission drops the task"},
      {"pool.task", "thread-pool task body fails/stalls (delay actions)"},
      {"recovery.replay", "WAL replay record fails -> torn-tail handling"},
      {"serve.admission", "admission sheds the request (typed rejection)"},
      {"serve.worker", "serving worker stalls (delay) before batch pickup"},
      {"snapshot.dir_fsync", "snapshot directory fsync fails"},
      {"snapshot.fsync", "snapshot data fsync fails"},
      {"snapshot.open", "snapshot temp-file open fails"},
      {"snapshot.rename", "snapshot atomic rename fails"},
      {"snapshot.write", "snapshot body write fails"},
      {"wal.append",
       "WAL record append fails; exhausting retries flips the index "
       "read-only"},
      {"wal.fsync", "WAL fsync fails"},
      {"wal.open", "WAL open at boot fails"},
      {"wal.short_write",
       "WAL append writes a short prefix, simulating a torn record"},
      {"wal.truncate", "WAL truncate (checkpoint / torn-tail repair) fails"},
  };
}

}  // namespace esd::fault
