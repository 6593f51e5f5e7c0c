#include "core/fault_injection.h"

#include <cstdlib>

#include "core/string_util.h"

namespace relgraph {

namespace {

// splitmix64 finalizer: the (seed, hit-index) -> uniform draw behind the
// probabilistic mode. Full-avalanche, so consecutive hit indices give
// independent-looking draws from one seed.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

inline double UnitDraw(uint64_t seed, uint64_t index) {
  // 53 mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(Mix64(seed ^ Mix64(index)) >> 11) *
         (1.0 / 9007199254740992.0);
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kAtomicWriteOpen:
      return "atomic_write_open";
    case FaultSite::kAtomicWriteShort:
      return "atomic_write_short";
    case FaultSite::kAtomicWriteRename:
      return "atomic_write_rename";
    case FaultSite::kCsvCellCorrupt:
      return "csv_cell_corrupt";
    case FaultSite::kNanLoss:
      return "nan_loss";
    case FaultSite::kNanGradient:
      return "nan_gradient";
    case FaultSite::kServeSample:
      return "serve_sample";
    case FaultSite::kServeCheckpointLoad:
      return "serve_checkpoint_load";
    case FaultSite::kServeSnapshotAdvance:
      return "serve_snapshot_advance";
    case FaultSite::kServeAlloc:
      return "serve_alloc";
    case FaultSite::kAppendApply:
      return "append_apply";
    case FaultSite::kCompact:
      return "compact";
    case FaultSite::kNumSites:
      break;
  }
  return "?";
}

FaultSite FaultSiteFromName(const std::string& name) {
  for (size_t i = 0; i < static_cast<size_t>(FaultSite::kNumSites); ++i) {
    const FaultSite site = static_cast<FaultSite>(i);
    if (name == FaultSiteName(site)) return site;
  }
  return FaultSite::kNumSites;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector instance;
  return instance;
}

void FaultInjector::Arm(FaultSite site, int64_t skip, int64_t times) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& s = sites_[static_cast<size_t>(site)];
  s = SiteState{};
  s.mode = Mode::kHitCount;
  s.skip = skip;
  s.times = times;
  armed_[static_cast<size_t>(site)].store(true, std::memory_order_relaxed);
}

void FaultInjector::ArmProbability(FaultSite site, double p, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& s = sites_[static_cast<size_t>(site)];
  s = SiteState{};
  s.mode = Mode::kProbability;
  s.probability = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  s.seed = seed;
  armed_[static_cast<size_t>(site)].store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm(FaultSite site) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_[static_cast<size_t>(site)].store(false, std::memory_order_relaxed);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : sites_) s = SiteState{};
  for (auto& a : armed_) a.store(false, std::memory_order_relaxed);
}

Status FaultInjector::ArmFromSpec(const std::string& spec) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("fault spec entry missing '=': " + entry);
    }
    const std::string name = entry.substr(0, eq);
    const std::string arg = entry.substr(eq + 1);
    const FaultSite site = FaultSiteFromName(name);
    if (site == FaultSite::kNumSites) {
      return Status::ParseError("unknown fault site: " + name);
    }
    if (arg.empty()) {
      return Status::ParseError("fault spec entry missing value: " + entry);
    }

    if (arg[0] == 'p') {
      // pP or pP@SEED — probabilistic.
      const size_t at = arg.find('@');
      const std::string p_str =
          at == std::string::npos ? arg.substr(1) : arg.substr(1, at - 1);
      auto p = ParseDouble(p_str);
      if (!p.ok()) {
        return Status::ParseError("bad fault probability in: " + entry);
      }
      uint64_t seed = 1;
      if (at != std::string::npos) {
        auto parsed = ParseInt64(arg.substr(at + 1));
        if (!parsed.ok()) {
          return Status::ParseError("bad fault seed in: " + entry);
        }
        seed = static_cast<uint64_t>(parsed.value());
      }
      ArmProbability(site, p.value(), seed);
    } else if (arg[0] == '+') {
      // +SxN — skip S hits, then fire N times.
      const size_t x = arg.find('x');
      if (x == std::string::npos) {
        return Status::ParseError("fault spec '+SxN' missing 'x': " + entry);
      }
      auto skip = ParseInt64(arg.substr(1, x - 1));
      auto times = ParseInt64(arg.substr(x + 1));
      if (!skip.ok() || !times.ok()) {
        return Status::ParseError("bad fault hit counts in: " + entry);
      }
      Arm(site, skip.value(), times.value());
    } else {
      // N — fire the first N hits (N < 0: forever).
      auto times = ParseInt64(arg);
      if (!times.ok()) {
        return Status::ParseError("bad fault count in: " + entry);
      }
      Arm(site, 0, times.value());
    }
  }
  return Status::OK();
}

Result<int> FaultInjector::ArmFromEnv() {
  const char* env = std::getenv("RELGRAPH_FAULTS");
  if (env == nullptr || env[0] == '\0') return 0;
  RELGRAPH_RETURN_IF_ERROR(ArmFromSpec(env));
  int armed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& a : armed_) {
      if (a.load(std::memory_order_relaxed)) ++armed;
    }
  }
  return armed;
}

bool FaultInjector::ShouldFire(FaultSite site) {
  // Arming and disarming store the flag under mu_, so a thread ordered
  // after the Arm call sees it; only hits racing the Arm call itself may
  // miss it, as they could miss the lock.
  if (!armed_[static_cast<size_t>(site)].load(std::memory_order_relaxed)) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_[static_cast<size_t>(site)].load(std::memory_order_relaxed)) {
    return false;  // disarmed while this hit waited for the lock
  }
  SiteState& s = sites_[static_cast<size_t>(site)];
  const int64_t hit = s.hits++;
  bool fire = false;
  if (s.mode == Mode::kHitCount) {
    fire = hit >= s.skip && (s.times < 0 || hit - s.skip < s.times);
  } else {
    fire = UnitDraw(s.seed, static_cast<uint64_t>(hit)) < s.probability;
  }
  if (fire) ++s.fired;
  return fire;
}

int64_t FaultInjector::hits(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_[static_cast<size_t>(site)].hits;
}

int64_t FaultInjector::fired(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_[static_cast<size_t>(site)].fired;
}

}  // namespace relgraph
