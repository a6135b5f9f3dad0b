#pragma once

/// \file fault.hpp
/// Deterministic, seeded fault injection for chaos testing the serving
/// stack (and anything else that marks a fault point).
///
/// Call sites name themselves once:
///
///   COASTAL_FAULT_POINT("serve.forward");
///
/// and a schedule — installed programmatically or from the
/// `COASTAL_FAULTS` environment variable — decides per *hit* whether the
/// site fires and what happens:
///
///   serve.forward:throw@0.05;rollout.step:nan@0.01;serve.worker:hang@1x1
///
/// Grammar, per `;`-separated entry:
///
///   site ':' action ['=' duration] ['@' probability] ['x' max_fires]
///
///   action      throw | nan | delay | hang | drop
///   duration    delay only: e.g. 20ms, 250us, 1s (default ms)
///   probability [0,1], default 1 (every hit fires)
///   max_fires   cap on total fires for the site, default unlimited
///
/// Decisions are a pure function of (seed, site, hit index) — re-running
/// the same schedule with the same seed yields the same fire/no-fire
/// sequence per site, which is what makes chaos tests assertable.  Which
/// *thread* draws a given hit index may vary under races, but the set of
/// firing indices does not.
///
/// Actions `throw` (raises FaultInjectedError), `delay` (sleeps), and
/// `hang` (parks on a condition variable until release_hangs()/clear())
/// are performed inside fault_point(); `nan` and `drop` are returned to
/// the call site, which knows what data to poison or suppress.
///
/// Overhead when no schedule is installed is a single relaxed atomic
/// load — fault points are safe on hot paths.

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace coastal::util {

enum class FaultAction {
  kNone,   ///< site does not fire this hit
  kThrow,  ///< FaultInjectedError raised inside fault_point()
  kNan,    ///< caller poisons its payload with quiet NaNs
  kDelay,  ///< fault_point() sleeps for the scheduled duration
  kHang,   ///< fault_point() parks until release_hangs() / clear()
  kDrop,   ///< caller suppresses its message / result
};

/// Raised by a `throw`-scheduled fault point.  Deliberately NOT a
/// CheckError: retry layers treat it as a transient failure.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// Per-site counters for test assertions and the example's dashboard.
struct FaultSiteStats {
  uint64_t hits = 0;   ///< times an armed fault_point reached the site
  uint64_t fires = 0;  ///< times the schedule fired (capped at max_fires)
  /// Parked `hang` threads that were woken by release_hangs()/clear().
  /// Only maintained in the cumulative view (see cumulative_stats()) —
  /// a release typically races the schedule teardown that triggered it,
  /// so per-schedule counts would lose it.
  uint64_t released = 0;
};

/// Process-wide registry.  install()/clear() are meant for test or
/// deployment setup, not concurrent reconfiguration under load (decisions
/// taken mid-install may see either schedule).
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Replace the schedule (see file comment for the DSL).  An empty
  /// string disarms every site.  Counters reset.  Throws CheckError on a
  /// malformed schedule.
  void install(const std::string& schedule, uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Disarm all sites and wake every parked `hang`.
  void clear();

  /// Wake threads currently parked by a `hang` action (they resume as if
  /// the hang completed).  Hangs that begin afterwards park again.
  void release_hangs();

  bool armed() const;
  /// Threads currently parked by a `hang` action.
  int parked() const;

  FaultSiteStats site_stats(const std::string& site) const;
  std::map<std::string, FaultSiteStats> stats() const;

  /// Cumulative per-site counters since process start.  Unlike stats(),
  /// these survive install()/clear() — a dashboard or registry snapshot
  /// read after a chaos teardown still reports everything that fired —
  /// and they include `released` (hangs woken by release_hangs()/
  /// clear()), which the per-schedule view inherently loses because the
  /// release usually rides the teardown that erases the site.
  std::map<std::string, FaultSiteStats> cumulative_stats() const;

  /// The slow path of fault_point(); call through the macro instead.
  FaultAction decide_and_act(const char* site);

 private:
  FaultInjector();
};

/// True when any schedule is installed — the fast-path gate.
bool fault_armed();

/// Evaluate a named fault site: no-op (kNone) unless armed and scheduled.
/// throw/delay/hang are handled internally; kNan/kDrop are returned for
/// the caller to apply.
inline FaultAction fault_point(const char* site) {
  if (!fault_armed()) return FaultAction::kNone;
  return FaultInjector::instance().decide_and_act(site);
}

}  // namespace coastal::util

/// Named fault site.  Evaluates to the FaultAction so call sites that can
/// poison (nan) or suppress (drop) payloads may act on the result; pure
/// control-flow sites just ignore it.
#define COASTAL_FAULT_POINT(site) ::coastal::util::fault_point(site)
