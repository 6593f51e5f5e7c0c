#ifndef RELGRAPH_CORE_FAULT_INJECTION_H_
#define RELGRAPH_CORE_FAULT_INJECTION_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/status.h"

namespace relgraph {

/// Instrumented points in the stack where a fault can be forced. Each site
/// is compiled in permanently but disarmed by default, so production code
/// pays one branch per site hit.
enum class FaultSite {
  kAtomicWriteOpen = 0,   ///< temp-file open fails -> IoError
  kAtomicWriteShort,      ///< only half the payload reaches disk (torn write)
  kAtomicWriteRename,     ///< rename into place fails; target left untouched
  kCsvCellCorrupt,        ///< an ingested CSV cell is garbled before parsing
  kNanLoss,               ///< a training batch loss becomes NaN
  kNanGradient,           ///< one parameter gradient becomes NaN
  kServeSample,           ///< serving-path neighbor sampling fails
  kServeCheckpointLoad,   ///< serving checkpoint load fails -> IoError
  kServeSnapshotAdvance,  ///< snapshot advance poisoned after validation
  kServeAlloc,            ///< serving micro-batch allocation fails
  kAppendApply,           ///< streaming append-batch apply poisoned
  kCompact,               ///< segmented-CSR compaction poisoned
  kNumSites,              ///< sentinel, not a real site
};

/// Human-readable site name ("atomic_write_open", ...).
const char* FaultSiteName(FaultSite site);

/// Inverse of FaultSiteName; kNumSites when the name is unknown.
FaultSite FaultSiteFromName(const std::string& name);

/// Deterministic fault injector for robustness tests and chaos harnesses.
///
/// Two arming modes, both reproducible bit-for-bit:
///
///  - **Hit-count** (`Arm(site, skip, times)`): fires on hits
///    skip+1 .. skip+times of that site — the surgical mode robustness
///    tests use to provoke one exact failure.
///  - **Seeded-probabilistic** (`ArmProbability(site, p, seed)`): hit k of
///    the site fires iff a splitmix64 draw from (seed, k) lands below p.
///    The fired hit-index set is a pure function of (p, seed), never of
///    wall clock or thread scheduling; under single-threaded driving the
///    full fire sequence replays exactly, which is what the chaos tests
///    assert. This is the sustained-background-failure mode.
///
/// Sites can also be armed from the environment (`RELGRAPH_FAULTS`, see
/// ArmFromSpec) so chaos runs of unmodified binaries are one env var away.
///
/// All state is guarded by one mutex: ShouldFire may be called from any
/// number of serving threads; counters stay exact. A disarmed site is
/// answered from a per-site atomic flag without taking the mutex, so
/// production pays one load per site hit. Tests arm a site, run
/// the code under test, then assert on `fired()` and on the Status the
/// fault surfaced as. Always `Reset()` between tests.
class FaultInjector {
 public:
  /// Process-wide injector used by all instrumented sites.
  static FaultInjector& Global();

  /// Arms `site` in hit-count mode: skip the first `skip` hits, then fire
  /// `times` times (times < 0 means fire forever).
  void Arm(FaultSite site, int64_t skip = 0, int64_t times = 1);

  /// Arms `site` in seeded-probabilistic mode: each hit fires with
  /// probability `p` (clamped to [0, 1]), drawn deterministically from
  /// (seed, hit index).
  void ArmProbability(FaultSite site, double p, uint64_t seed = 1);

  void Disarm(FaultSite site);

  /// Disarms every site and zeroes all counters.
  void Reset();

  /// Arms sites from a comma-separated spec, e.g.
  ///   "serve_sample=p0.02@7,serve_snapshot_advance=3,nan_loss=+2x1"
  /// Entry grammar (whitespace-free):
  ///   name=N        hit-count: fire the first N hits (N < 0: forever)
  ///   name=+S xN    hit-count: skip S hits then fire N (written "+SxN")
  ///   name=pP       probabilistic with probability P, seed 1
  ///   name=pP@SEED  probabilistic with probability P and the given seed
  Status ArmFromSpec(const std::string& spec);

  /// Arms from the RELGRAPH_FAULTS environment variable (no-op when unset
  /// or empty). Returns the number of armed sites, or ArmFromSpec's parse
  /// error on a malformed spec.
  Result<int> ArmFromEnv();

  /// Called by instrumented code: counts the hit and reports whether the
  /// fault fires this time. Disarmed sites never fire and skip counting.
  bool ShouldFire(FaultSite site);

  /// Hits counted while the site was armed.
  int64_t hits(FaultSite site) const;

  /// Times the site actually fired.
  int64_t fired(FaultSite site) const;

 private:
  FaultInjector() = default;

  enum class Mode { kHitCount, kProbability };

  struct SiteState {
    Mode mode = Mode::kHitCount;
    int64_t skip = 0;
    int64_t times = 0;
    double probability = 0.0;
    uint64_t seed = 0;
    int64_t hits = 0;
    int64_t fired = 0;
  };

  mutable std::mutex mu_;
  std::array<SiteState, static_cast<size_t>(FaultSite::kNumSites)> sites_;
  /// Whether each site is armed: written under mu_, read lock-free by
  /// ShouldFire's disarmed check.
  std::array<std::atomic<bool>, static_cast<size_t>(FaultSite::kNumSites)>
      armed_{};
};

}  // namespace relgraph

#endif  // RELGRAPH_CORE_FAULT_INJECTION_H_
