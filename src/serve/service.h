#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/stop.h"
#include "serve/protocol.h"
#include "spice/technology.h"

/// The request handler: everything between a parsed Request and the
/// Response frames, independent of sockets so tests can drive it
/// directly.
///
/// Re-entrancy contract: handlers hold **no shared mutable state** -- the
/// evaluator, solver config, and synthetic STA design are constructed per
/// request, so any number of worker lanes may execute items concurrently
/// and a given request's routing is bit-identical no matter which lane
/// (or how loaded a server) produced it. `ntr_analyze --only
/// global-mutable-state --entry execute_work_item` certifies this in CI.
namespace ntr::serve {

struct ServiceConfig {
  spice::Technology tech = spice::kTable1Technology;
  /// Applied when a request carries no deadline_ms. 0 = unbounded.
  double default_deadline_ms = 0.0;
  /// Hard per-request cap (a client cannot buy more than this). 0 = no cap.
  double max_deadline_ms = 0.0;
  /// Honors Request::debug_wedge_ms (a deliberately wedged lane for the
  /// watchdog tests). Off by default; requests carrying the field are
  /// rejected as kBadRequest so production servers cannot be wedged.
  bool enable_test_hooks = false;
};

/// net_index value marking a flow-mode item that carries its whole batch.
inline constexpr std::size_t kWholeBatch = static_cast<std::size_t>(-1);

/// One unit of queued work: a solve-mode item routes nets[net_index] of
/// its request; a flow-mode item (net_index == kWholeBatch) runs the
/// whole batch through flow::run_timing_flow. The request is shared, not
/// copied, across a batch's items; the deadline is fixed at admission so
/// queueing delay spends the budget.
struct WorkItem {
  std::uint64_t client = 0;
  std::shared_ptr<const Request> request;
  std::size_t net_index = 0;
  runtime::Deadline deadline{};
};

/// The admission-time deadline for a request under this config: the
/// request's deadline_ms (clamped to max_deadline_ms) or the default;
/// unbounded when both are 0.
[[nodiscard]] runtime::Deadline admission_deadline(const Request& request,
                                                   const ServiceConfig& config);

/// Routes one net of a solve-mode request through the degradation ladder
/// (core::solve_resilient) and reports it exactly like `ntr_route`:
/// routing text, per-sink delays measured with the rung-appropriate
/// evaluator, wirelength. Never throws.
[[nodiscard]] Response route_net(const Request& request, std::size_t net_index,
                                 const ServiceConfig& config,
                                 const runtime::StopToken& stop);

/// Runs a flow-mode batch through flow::run_timing_flow on a synthetic
/// one-driver-per-net STA design: per-net frames (ladder outcomes
/// included) followed by one summary frame with the timing report.
/// Never throws.
[[nodiscard]] std::vector<Response> route_flow(const Request& request,
                                               const ServiceConfig& config,
                                               const runtime::StopToken& stop);

/// Executes one WorkItem: the response frames to stream back, in order.
/// Combines the item's admission deadline with the server's cancel token
/// (forced shutdown) into the StopToken threaded through the engine.
/// Never throws.
[[nodiscard]] std::vector<Response> execute_work_item(
    const WorkItem& item, const ServiceConfig& config,
    const runtime::CancelToken& cancel);

}  // namespace ntr::serve
