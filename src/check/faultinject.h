#pragma once

#include <cstdint>
#include <span>

#include "runtime/status.h"

/// Deterministic, seeded fault injection for exercising the degradation
/// ladder in CI.
///
/// Production code marks recoverable failure boundaries with
///
///   NTR_FAULT_POINT(kCholeskyNotSpd);
///
/// naming a site from the fixed FaultSite table below. In a normal build
/// the macro expands to nothing (zero code, zero data). When the tree is
/// configured with -DNTR_FAULT_INJECTION=ON the macro polls the site: if
/// the site is armed and its hit counter reaches the armed trigger, the
/// poll throws runtime::NtrError with the site's StatusCode -- exactly
/// the typed failure the real fault would produce, at exactly the Nth
/// execution of that site, on every run. Tests arm sites through the
/// programmatic API; the CLI/CI arm them through the NTR_FAULT_SPEC
/// environment variable:
///
///   NTR_FAULT_SPEC="cholesky-not-spd@3,transient-nonfinite@1"
///
/// fires the cholesky-not-spd site on its 3rd hit and the transient-nonfinite
/// site on its 1st, then leaves them quiescent (one shot per arm).
namespace ntr::check::fault {

/// Every fault-injection site in the tree. Central (not discovered at
/// run time) so a chaos test can iterate all sites and prove each one
/// fires. Keep in sync with kSiteInfos in faultinject.cpp.
enum class FaultSite : std::uint8_t {
  kCholeskyNotSpd,       ///< dense/sparse Cholesky loses positive-definiteness
  kDcSingular,           ///< DC steady-state solve singular
  kTransientNonFinite,   ///< NaN/inf waveform mid time-march
  kLdrgAllocation,       ///< candidate-buffer allocation failure in LDRG
  kLdrgDeadline,         ///< deadline trip at an LDRG round boundary
  kTransientDeadline,    ///< deadline trip inside the transient march
  kServeQueuePush,       ///< admission failure pushing into the FairQueue
  kServeJsonParse,       ///< request-document JSON parse failure
  kServeFrameDecode,     ///< frame-header decode failure (stream poison)
  kServeWorkerDispatch,  ///< worker-lane dispatch failure in ntr_serve
  kIoNetParse,           ///< net-text parse failure in io::try_read_net
};
inline constexpr std::size_t kFaultSiteCount = 11;

struct SiteInfo {
  FaultSite site;
  const char* name;              ///< spec/spell-out name ("cholesky-not-spd")
  runtime::StatusCode code;      ///< what an injected failure throws
};

/// The full site table, indexed by static_cast<size_t>(site).
[[nodiscard]] std::span<const SiteInfo, kFaultSiteCount> sites();
[[nodiscard]] const SiteInfo& site_info(FaultSite site);

/// True when the tree was compiled with -DNTR_FAULT_INJECTION=ON.
[[nodiscard]] bool compiled_in();

/// Arms `site` to fire once, on its `fire_at_hit`-th poll from now
/// (1-based; 1 = the very next poll). Re-arming replaces the trigger.
void arm(FaultSite site, std::uint64_t fire_at_hit = 1);

/// Disarms every site and zeroes all hit/fired counters.
void reset();

/// Polls since the last reset() / arm() bookkeeping.
[[nodiscard]] std::uint64_t hit_count(FaultSite site);
/// How many times the site actually threw.
[[nodiscard]] std::uint64_t fired_count(FaultSite site);

/// Parses NTR_FAULT_SPEC ("name@N,name@N"; unknown names and malformed
/// entries are ignored with a note on stderr) and arms accordingly.
/// Returns the number of sites armed. Called lazily by the first poll,
/// so env-driven injection needs no tool support.
std::size_t configure_from_environment();

/// The runtime half of NTR_FAULT_POINT. Cheap when nothing is armed:
/// one relaxed atomic load. Throws runtime::NtrError when a trigger
/// fires. Thread-safe.
void poll(FaultSite site);

}  // namespace ntr::check::fault

#if defined(NTR_FAULT_INJECTION)
#define NTR_FAULT_POINT(site) \
  ::ntr::check::fault::poll(::ntr::check::fault::FaultSite::site)
#else
#define NTR_FAULT_POINT(site) static_cast<void>(0)
#endif
