// Deterministic fault injection: named failpoints threaded through the
// storage and pipeline IO paths.
//
// A Failpoint is a named hook compiled into production code at the exact
// call sites where the process talks to the outside world (block writes,
// fsyncs, renames, block reads, chunk fetches). Disarmed — the only
// state production ever sees — a check is ONE relaxed atomic load and a
// predictable branch, so the ~2.2 GB/s ingest paths keep their numbers.
// Armed (by a test, or by the RANDRECON_FAILPOINTS environment variable)
// a failpoint counts its hits and, on the configured hit, either returns
// an error Status through the normal Status plumbing or kills the
// process with _Exit (no destructors, no buffer flushes — the closest
// portable stand-in for a power cut), which is what the crash-recovery
// torture tests in tests/data/store_recovery_test.cc are built on.
//
// Registration is by construction: defining a `Failpoint` object (at
// namespace scope in the .cc that uses it) registers its name in a
// process-wide registry, so tests and tools can enumerate every
// injection point the binary actually links (ListFailpoints) and arm
// each in turn. Names are dotted "<layer>.<operation>" strings, e.g.
// "roll.write", "store.fsync", "manifest.rename", "store.read_block".
//
// Environment arming: RANDRECON_FAILPOINTS="name=action[@hit];..." is
// parsed once, lazily, when the registry first materializes — no main()
// cooperation needed, which is what lets CI drive the fault-injection
// matrix through unmodified example binaries. Actions: "error" (returns
// IoError), "unavailable" (returns Unavailable, the retryable-transient
// code), "crash" (_Exit(kFailpointCrashExitCode)). "@hit" is the
// 1-based armed-hit number that fires (default 1); a fired error action
// stays armed but fires only `fire_count` times (default once), so a
// retry can observe the fault clearing.

#ifndef RANDRECON_COMMON_FAILPOINT_H_
#define RANDRECON_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace randrecon {

/// What an armed failpoint does on its trigger hit.
enum class FailpointAction {
  /// Return a Status with the configured code through the call site.
  kError,
  /// _Exit(kFailpointCrashExitCode): no destructors, no stream flushes —
  /// a simulated power cut for crash-recovery tests.
  kCrash,
};

/// The exit code a kCrash failpoint terminates with — distinguishable by
/// a torture test's waitpid from both clean exits and real aborts.
constexpr int kFailpointCrashExitCode = 42;

/// Fires on every armed hit from the trigger onward.
constexpr uint64_t kFailpointFireForever = ~uint64_t{0};

/// Arming configuration (see ArmFailpoint).
struct FailpointConfig {
  FailpointAction action = FailpointAction::kError;
  /// Status code a kError action returns (kIoError or kUnavailable make
  /// sense at IO seams; anything non-OK is accepted).
  StatusCode code = StatusCode::kIoError;
  /// 1-based armed-hit number of the first firing.
  uint64_t trigger_hit = 1;
  /// How many consecutive hits fire, starting at trigger_hit
  /// (kFailpointFireForever = never stop). Irrelevant for kCrash.
  uint64_t fire_count = 1;
};

/// One named injection point. Define at namespace scope in the .cc that
/// checks it; construction registers the name for the process lifetime.
/// Checks are safe from any thread; arming/disarming is serialized by
/// the registry and may race benignly with in-flight checks (a check
/// concurrent with Arm may or may not count — tests arm before running).
class Failpoint {
 public:
  /// `name` must be a string literal (or otherwise outlive the process);
  /// registering two failpoints with one name is a fatal programmer
  /// error.
  explicit Failpoint(const char* name);

  const char* name() const { return name_; }

  /// True iff armed — the disarmed fast path is this single relaxed
  /// load. Call through RR_FAILPOINT so the slow path stays out of line.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Slow path: counts the hit and applies the armed action. OK when the
  /// hit is outside the configured firing window.
  Status Fire();

 private:
  friend class FailpointRegistry;

  const char* name_;
  std::atomic<bool> armed_{false};
  // Guarded by the registry mutex (slow path only).
  FailpointConfig config_;
  uint64_t hits_ = 0;   ///< Checks observed while armed.
  uint64_t fired_ = 0;  ///< Error firings so far.
};

/// Checks `failpoint` inside a function returning Status or Result<T>:
/// disarmed this is one relaxed load; armed it may return the injected
/// error or _Exit.
#define RR_FAILPOINT(failpoint)                          \
  do {                                                   \
    if ((failpoint).armed()) {                           \
      ::randrecon::Status _fp_status = (failpoint).Fire(); \
      if (!_fp_status.ok()) return _fp_status;           \
    }                                                    \
  } while (false)

/// Arms the failpoint registered as `name` (hit/fired counters reset).
/// NotFound if no such failpoint is registered in this binary,
/// InvalidArgument on a nonsensical config (OK error code, zero
/// trigger_hit or fire_count).
Status ArmFailpoint(const std::string& name, const FailpointConfig& config);

/// Convenience: error action with the given code, firing once at
/// `trigger_hit`.
Status ArmFailpoint(const std::string& name, FailpointAction action,
                    uint64_t trigger_hit = 1);

/// Disarms `name`; true iff it was registered (armed or not).
bool DisarmFailpoint(const std::string& name);

/// Disarms every registered failpoint and zeroes its counters.
void DisarmAllFailpoints();

/// Every registered failpoint name, sorted.
std::vector<std::string> ListFailpoints();

/// The subset of registered names currently armed, sorted — what the
/// stats server's /statusz reports so an operator can tell at a glance
/// whether a live daemon is running under injected faults.
std::vector<std::string> ListArmedFailpoints();

/// Armed-hit count of `name` since it was last armed (0 if unregistered
/// or never armed).
uint64_t FailpointHitCount(const std::string& name);

/// Parses and arms "name=action[@hit];name=action[@hit];..." where
/// action is "error", "unavailable" or "crash". Empty spec is OK.
/// InvalidArgument names the offending clause; NotFound names an
/// unregistered failpoint.
Status ArmFailpointsFromSpec(const std::string& spec);

/// The lenient variant the RANDRECON_FAILPOINTS environment path uses:
/// a malformed clause or unknown name is RR_LOG(kWarning)-ed and
/// SKIPPED instead of aborting the whole spec, so one typo cannot
/// silently disarm every other clause. Returns the number of clauses
/// skipped with a warning (0 = every clause armed).
///
/// With `allow_pending` (the environment path — the TU defining a name
/// may not have initialized yet) an unknown name is deferred rather
/// than warned here; a deferred name no registration ever claims is
/// reported by WarnUnclaimedPendingFailpoints(), which the registry
/// runs automatically at process exit when the environment armed
/// anything.
size_t ArmFailpointsFromSpecLenient(const std::string& spec,
                                    bool allow_pending = false);

/// Environment-armed failpoint names still waiting for a registration
/// that never came — i.e. names that will NEVER fire (a typo, or a TU
/// this binary does not link). Sorted.
std::vector<std::string> UnclaimedPendingFailpoints();

/// RR_LOG(kWarning) for every unclaimed pending name (see above);
/// returns how many were reported. Registered with atexit by the
/// environment arming path; exposed so the warning is unit-testable.
size_t WarnUnclaimedPendingFailpoints();

/// The spec the RANDRECON_FAILPOINTS environment variable held when the
/// registry first materialized ("" when unset) — exposed so tools can
/// report what was armed under them.
const std::string& FailpointEnvSpec();

}  // namespace randrecon

#endif  // RANDRECON_COMMON_FAILPOINT_H_
