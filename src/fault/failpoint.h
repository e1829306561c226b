#ifndef ESD_FAULT_FAILPOINT_H_
#define ESD_FAULT_FAILPOINT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// Deterministic fail-point framework (the fail-rs / TiKV idea): IO and
/// scheduling edges evaluate `ESD_FAILPOINT("name")` and, when that point
/// has been activated, receive an injected fault — an errno-style error, a
/// delay, probabilistically or on a chosen hit. Points are activated
/// programmatically (tests) or through the environment:
///
///   ESD_FAILPOINTS="wal.append=error(ENOSPC);snapshot.rename=1in5"
///   ESD_FAILPOINT_SEED=42
///
/// Spec grammar, one entry per point:
///   spec   := 'off' | [freq '*'] action | freq
///   freq   := N 'in' M          fire with probability N/M (seeded RNG)
///           | 'nth(' N ')'      fire only on the Nth hit (1-based)
///           | 'after(' N ')'    fire on every hit after the first N
///           | N                 fire on the first N hits, then stop
///   action := 'error' ['(' code ')']   inject errno `code` (default EIO;
///                                      symbolic like ENOSPC, or numeric)
///           | 'delay(' MS ')'          sleep MS milliseconds, then proceed
///           | 'park'                   block until Release(name) or until
///                                      the point is cleared or reset
/// A bare freq defaults to error(EIO): "1in5" == "1in5*error(EIO)".
///
/// `park` makes race tests deterministic: a test parks one side at a
/// point, waits for FireCount to show it arrived, drives the other side,
/// then releases it. Clearing the point (Clear, ClearAll, or Set again)
/// releases every thread parked there, so a failing test cannot hang.
///
/// Cost model: compiled out entirely under -DESD_FAULT=OFF (the macro
/// expands to an empty constexpr hit); compiled in but unconfigured, a
/// point is one relaxed atomic load of the process-wide active count.
#ifndef ESD_FAULT_ENABLED
#define ESD_FAULT_ENABLED 1
#endif

namespace esd::fault {

/// True when ESD_FAILPOINT call sites were compiled in (-DESD_FAULT=ON).
/// The registry itself always exists; with this false, activating a point
/// affects only direct Evaluate calls, never the instrumented code paths.
inline constexpr bool kFailPointsCompiledIn = ESD_FAULT_ENABLED != 0;

/// One instrumented call site, for operator discovery (esd_server's
/// `FAILPOINT LIST`): the point name a chaos schedule would target and
/// what failing it simulates.
struct FailPointSite {
  std::string_view name;
  std::string_view description;
};

/// The curated registry of compiled-in call sites, sorted by name. Names
/// outside it (test-only points) still show up in FAILPOINT LIST because
/// the registry tracks any evaluated name.
std::vector<FailPointSite> BuiltinFailPointSites();

/// What one ESD_FAILPOINT evaluation injected. `fired` is true only for
/// error actions — the call site must fail with `error_code`. Delay and
/// park actions wait inside Evaluate and return fired == false, so call
/// sites need no handling of their own.
struct FaultHit {
  bool fired = false;
  int error_code = 0;  ///< errno value; meaningful only when fired
  explicit operator bool() const { return fired; }
};

/// Process-wide registry of activated fail points. All operations are
/// thread-safe; Evaluate is called concurrently from IO and worker
/// threads. The probabilistic trigger draws from one seeded splitmix64
/// stream shared by every point, so a fixed seed plus a deterministic
/// evaluation order reproduces a fault schedule exactly.
class FailPointRegistry {
 public:
  /// The registry ESD_FAILPOINT consults. First use activates any points
  /// named in $ESD_FAILPOINTS (parse errors are reported to stderr and
  /// skipped) and seeds the RNG from $ESD_FAILPOINT_SEED.
  static FailPointRegistry& Global();

  FailPointRegistry() = default;
  FailPointRegistry(const FailPointRegistry&) = delete;
  FailPointRegistry& operator=(const FailPointRegistry&) = delete;

  /// Activates (or reconfigures — hit counts reset) one point. A spec of
  /// "off" deactivates. Returns false with *error set on a bad spec.
  bool Set(std::string_view name, std::string_view spec, std::string* error);

  /// Parses a full "name=spec;name=spec" list (the env-var syntax).
  /// Stops at the first bad entry.
  bool Configure(std::string_view list, std::string* error);

  void Clear(std::string_view name);
  void ClearAll();

  /// Lets every thread parked at `name` proceed. Later hits park again.
  void Release(std::string_view name);

  /// Reseeds the probabilistic-trigger RNG (also resets the stream).
  void SetSeed(uint64_t seed);

  /// Evaluates one point: counts the hit, decides whether the trigger
  /// fires, executes delay and park actions, and returns error actions to
  /// the call site. Unconfigured names return an empty hit.
  FaultHit Evaluate(std::string_view name);

  /// Introspection: total evaluations / fires of a point (0 if unknown).
  uint64_t HitCount(std::string_view name) const;
  uint64_t FireCount(std::string_view name) const;

  /// Names of every activated point, sorted.
  std::vector<std::string> ActiveNames() const;

 private:
  enum class Freq : uint8_t { kAlways, kProb, kNth, kAfter, kTimes };
  enum class Action : uint8_t { kError, kDelay, kPark };

  struct Point {
    Freq freq = Freq::kAlways;
    uint64_t freq_a = 0;  ///< numerator / N of nth/after/times
    uint64_t freq_b = 0;  ///< denominator of kProb
    Action action = Action::kError;
    int error_code = 0;
    uint32_t delay_ms = 0;
    uint64_t hits = 0;
    uint64_t fires = 0;
    uint64_t releases = 0;  ///< Release calls; a parked hit waits for one
  };

  static bool ParseSpec(std::string_view spec, Point* out,
                        std::string* error);
  uint64_t NextRandom();  // splitmix64; caller holds mu_

  mutable std::mutex mu_;
  std::condition_variable parked_;  ///< signalled by Release and clears
  uint64_t resets_ = 0;  ///< Set, Clear and ClearAll calls; wake parked hits
  std::map<std::string, Point, std::less<>> points_;
  uint64_t rng_state_ = 0x9E3779B97F4A7C15ull;
};

/// Process-wide count of activated points; ESD_FAILPOINT's fast path.
extern std::atomic<int> g_active_points;

FaultHit EvaluateSlow(std::string_view name);

inline FaultHit Evaluate(std::string_view name) {
  if (g_active_points.load(std::memory_order_relaxed) == 0) return FaultHit{};
  return EvaluateSlow(name);
}

}  // namespace esd::fault

#if ESD_FAULT_ENABLED
#define ESD_FAILPOINT(name) (::esd::fault::Evaluate(name))
#else
#define ESD_FAILPOINT(name) (::esd::fault::FaultHit{})
#endif

#endif  // ESD_FAULT_FAILPOINT_H_
