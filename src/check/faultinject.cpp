#include "check/faultinject.h"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace ntr::check::fault {

namespace {

constexpr std::array<SiteInfo, kFaultSiteCount> kSiteInfos{{
    {FaultSite::kCholeskyNotSpd, "cholesky-not-spd",
     runtime::StatusCode::kSingular},
    {FaultSite::kDcSingular, "dc-singular", runtime::StatusCode::kSingular},
    {FaultSite::kTransientNonFinite, "transient-nonfinite",
     runtime::StatusCode::kNonFinite},
    {FaultSite::kLdrgAllocation, "ldrg-allocation",
     runtime::StatusCode::kResourceExhausted},
    {FaultSite::kLdrgDeadline, "ldrg-deadline", runtime::StatusCode::kTimeout},
    {FaultSite::kTransientDeadline, "transient-deadline",
     runtime::StatusCode::kTimeout},
    {FaultSite::kServeQueuePush, "serve-queue-push",
     runtime::StatusCode::kResourceExhausted},
    {FaultSite::kServeJsonParse, "serve-json-parse",
     runtime::StatusCode::kBadInput},
    {FaultSite::kServeFrameDecode, "serve-frame-decode",
     runtime::StatusCode::kBadInput},
    {FaultSite::kServeWorkerDispatch, "serve-worker-dispatch",
     runtime::StatusCode::kInternal},
    {FaultSite::kIoNetParse, "io-net-parse", runtime::StatusCode::kBadInput},
}};

struct SiteState {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fired{0};
  /// 0 = disarmed; otherwise fire when hits reaches this value.
  std::atomic<std::uint64_t> fire_at{0};
};

struct Registry {
  std::array<SiteState, kFaultSiteCount> states{};
  /// Fast-path gate: true iff any site is armed. Lets poll() cost one
  /// relaxed load when injection is compiled in but quiescent.
  std::atomic<bool> any_armed{false};

  void refresh_any_armed() {
    for (const SiteState& s : states) {
      if (s.fire_at.load(std::memory_order_relaxed) != 0) {
        any_armed.store(true, std::memory_order_relaxed);
        return;
      }
    }
    any_armed.store(false, std::memory_order_relaxed);
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

std::size_t index_of(FaultSite site) { return static_cast<std::size_t>(site); }

void ensure_environment_loaded() {
  static const std::size_t armed = configure_from_environment();
  static_cast<void>(armed);
}

}  // namespace

std::span<const SiteInfo, kFaultSiteCount> sites() { return kSiteInfos; }

const SiteInfo& site_info(FaultSite site) {
  return kSiteInfos[static_cast<std::size_t>(site)];
}

bool compiled_in() {
#if defined(NTR_FAULT_INJECTION)
  return true;
#else
  return false;
#endif
}

void arm(FaultSite site, std::uint64_t fire_at_hit) {
  SiteState& s = registry().states[index_of(site)];
  s.hits.store(0, std::memory_order_relaxed);
  s.fire_at.store(fire_at_hit == 0 ? 1 : fire_at_hit, std::memory_order_relaxed);
  registry().any_armed.store(true, std::memory_order_relaxed);
}

void reset() {
  for (SiteState& s : registry().states) {
    s.hits.store(0, std::memory_order_relaxed);
    s.fired.store(0, std::memory_order_relaxed);
    s.fire_at.store(0, std::memory_order_relaxed);
  }
  registry().any_armed.store(false, std::memory_order_relaxed);
}

std::uint64_t hit_count(FaultSite site) {
  return registry().states[index_of(site)].hits.load(std::memory_order_relaxed);
}

std::uint64_t fired_count(FaultSite site) {
  return registry().states[index_of(site)].fired.load(std::memory_order_relaxed);
}

std::size_t configure_from_environment() {
  const char* spec = std::getenv("NTR_FAULT_SPEC");
  if (spec == nullptr || *spec == '\0') return 0;
  std::size_t armed = 0;
  std::stringstream stream{std::string(spec)};
  std::string entry;
  while (std::getline(stream, entry, ',')) {
    if (entry.empty()) continue;
    const std::size_t at = entry.find('@');
    const std::string name = entry.substr(0, at);
    std::uint64_t trigger = 1;
    if (at != std::string::npos) {
      char* end = nullptr;
      trigger = std::strtoull(entry.c_str() + at + 1, &end, 10);
      if (end == nullptr || *end != '\0' || trigger == 0) {
        std::fprintf(stderr, "ntr fault-injection: ignoring malformed entry '%s'\n",
                     entry.c_str());
        continue;
      }
    }
    bool found = false;
    for (const SiteInfo& info : kSiteInfos) {
      if (name == info.name) {
        arm(info.site, trigger);
        ++armed;
        found = true;
        break;
      }
    }
    if (!found)
      std::fprintf(stderr, "ntr fault-injection: unknown site '%s'\n", name.c_str());
  }
  return armed;
}

void poll(FaultSite site) {
  ensure_environment_loaded();
  Registry& r = registry();
  if (!r.any_armed.load(std::memory_order_relaxed)) return;

  SiteState& s = r.states[index_of(site)];
  const std::uint64_t trigger = s.fire_at.load(std::memory_order_relaxed);
  if (trigger == 0) return;
  const std::uint64_t hit = s.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (hit != trigger) return;

  // One shot: disarm before throwing so the ladder's retry rungs run
  // clean, then surface the typed failure this site models.
  s.fire_at.store(0, std::memory_order_relaxed);
  s.fired.fetch_add(1, std::memory_order_relaxed);
  r.refresh_any_armed();
  const SiteInfo& info = site_info(site);
  throw runtime::NtrError(info.code, std::string("injected fault at site '") +
                                         info.name + "' (hit " +
                                         std::to_string(hit) + ")");
}

}  // namespace ntr::check::fault
