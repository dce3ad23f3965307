#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "check/faultinject.h"
#include "core/resilience.h"
#include "core/solver.h"
#include "delay/evaluator.h"
#include "flow/timing_flow.h"
#include "graph/net.h"
#include "graph/routing_graph.h"
#include "io/net_io.h"
#include "runtime/status.h"
#include "sta/timing_graph.h"

namespace ntr::serve {

using runtime::Status;
using runtime::StatusCode;

runtime::Deadline admission_deadline(const Request& request,
                                     const ServiceConfig& config) {
  double ms = request.deadline_ms > 0.0 ? request.deadline_ms
                                        : config.default_deadline_ms;
  if (config.max_deadline_ms > 0.0)
    ms = ms > 0.0 ? std::min(ms, config.max_deadline_ms)
                  : config.max_deadline_ms;
  if (ms <= 0.0) return runtime::Deadline{};  // unbounded
  return runtime::Deadline::after_ms(ms);
}

namespace {

/// Fills the measurement fields of a kNet response from a shipped
/// routing, mirroring ntr_route's reporting: a degraded routing came from
/// the Elmore rungs, so re-measuring it with the primary (transient)
/// evaluator could just re-hit the failure that forced the fallback --
/// report with the rung's model instead.
void report_routing(Response& r, const graph::RoutingGraph& routing,
                    const delay::DelayEvaluator& primary,
                    const ServiceConfig& config, bool degraded) {
  r.routing = io::write_routing(routing);
  r.wirelength_um = routing.total_wirelength();
  const delay::GraphElmoreEvaluator elmore(config.tech);
  const delay::DelayEvaluator& reporter =
      degraded ? static_cast<const delay::DelayEvaluator&>(elmore) : primary;
  try {
    r.delays_s = reporter.sink_delays(routing);
    r.evaluator = reporter.name();
  } catch (const std::exception&) {
    // The primary measurement failed post-solve (e.g. the budget ran out
    // between the solve and the report): fall back to the cheap model.
    r.delays_s = elmore.sink_delays(routing);
    r.evaluator = elmore.name();
  }
  r.max_delay_s = 0.0;
  for (const double d : r.delays_s) r.max_delay_s = std::max(r.max_delay_s, d);
}

/// Per-net failure fields from a resilient outcome whose net shipped no
/// routing. The code mirrors the CLI: a skip-policy drop is the requested
/// behavior (0); fail surfaces the typed failure; a degrade-policy
/// quarantine is the numerical bucket.
void report_quarantine(Response& r, const core::NetOutcome& outcome,
                       core::OnError policy) {
  r.error = outcome.status.to_string();
  r.rung = outcome.rung;
  if (policy == core::OnError::kSkip) {
    r.status = ResponseStatus::kQuarantined;
    r.code = response_code(ResponseStatus::kOk);
  } else if (policy == core::OnError::kFail) {
    r.status = status_from_error(outcome.status);
    r.code = response_code(r.status);
  } else {
    r.status = ResponseStatus::kQuarantined;
    r.code = response_code(ResponseStatus::kQuarantined);
  }
}

}  // namespace

Response route_net(const Request& request, std::size_t net_index,
                   const ServiceConfig& config,
                   const runtime::StopToken& stop) {
  Response r;
  r.id = request.id;
  r.kind = ResponseKind::kNet;
  r.net_index = net_index;
  r.net_count = request.nets.size();

  // Defense in depth: today every caller derives net_index from the
  // request's own net list, but this is the serve layer's public API and
  // an out-of-range index must fail the item, not the process.
  if (net_index >= request.nets.size()) {
    r.status = ResponseStatus::kBadRequest;
    r.code = response_code(r.status);
    r.error = "net index " + std::to_string(net_index) + " out of range";
    return r;
  }

  const runtime::StatusOr<graph::Net> net_or =
      io::try_read_net(request.nets[net_index]);
  if (!net_or.ok()) {
    r.status = ResponseStatus::kBadInput;
    r.code = response_code(r.status);
    r.error = net_or.status().to_string();
    return r;
  }

  const std::unique_ptr<delay::DelayEvaluator> evaluator =
      delay::make_evaluator(request.evaluator, config.tech, stop);
  if (evaluator == nullptr) {  // unreachable: names validated at parse
    r.status = ResponseStatus::kBadRequest;
    r.code = response_code(r.status);
    r.error = "unknown evaluator '" + request.evaluator + "'";
    return r;
  }

  core::SolverConfig solver;
  solver.tech = config.tech;
  solver.ldrg.max_added_edges = request.max_edges;
  core::ResilienceOptions resilience;
  resilience.on_error = request.on_error;
  resilience.stop = stop;
  const core::GuardedSolution guarded = core::solve_resilient(
      *net_or, request.strategy, *evaluator, solver, resilience);

  if (!guarded.solution) {
    report_quarantine(r, guarded.outcome, request.on_error);
    return r;
  }
  r.status = status_from_outcome(guarded.outcome);
  r.code = response_code(r.status);
  r.rung = guarded.outcome.rung;
  if (!guarded.outcome.status.ok()) r.error = guarded.outcome.status.to_string();
  report_routing(r, guarded.solution->graph, *evaluator, config,
                 guarded.outcome.disposition != core::NetDisposition::kOk);
  return r;
}

std::vector<Response> route_flow(const Request& request,
                                 const ServiceConfig& config,
                                 const runtime::StopToken& stop) {
  const std::size_t count = request.nets.size();

  // The STA design couples the batch, so a net that fails the io
  // validators fails the whole request -- unlike solve mode, where nets
  // are independent and fail independently.
  std::vector<graph::Net> nets;
  nets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    runtime::StatusOr<graph::Net> net_or = io::try_read_net(request.nets[i]);
    if (!net_or.ok()) {
      Response r = make_error_response(
          request.id, ResponseStatus::kBadInput,
          "net " + std::to_string(i) + ": " + net_or.status().to_string());
      return {std::move(r)};
    }
    nets.push_back(*std::move(net_or));
  }

  // Synthetic design: per net, a zero-delay driver reading a primary
  // input and one zero-delay receiver per sink driving a primary output.
  // Gate delays are uniform, so slacks are driven purely by the
  // interconnect delays the flow annotates.
  sta::TimingGraph design;
  std::vector<flow::BoundNet> bound(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string tag = std::to_string(i);
    const sta::NetId pi = design.add_net("pi" + tag);
    const sta::NetId sig = design.add_net("sig" + tag);
    design.add_gate("drv" + tag, 0.0, {pi}, sig);
    bound[i].name = "net" + tag;
    bound[i].net = nets[i];
    bound[i].sta_net = sig;
    const std::size_t sinks = nets[i].sink_count();
    bound[i].sink_gates.reserve(sinks);
    for (std::size_t j = 0; j < sinks; ++j) {
      const sta::NetId po = design.add_net("po" + tag + "_" + std::to_string(j));
      bound[i].sink_gates.push_back(
          design.add_gate("rx" + tag + "_" + std::to_string(j), 0.0, {sig}, po));
    }
  }

  const std::unique_ptr<delay::DelayEvaluator> evaluator =
      delay::make_evaluator(request.evaluator, config.tech, stop);
  if (evaluator == nullptr) {
    return {make_error_response(request.id, ResponseStatus::kBadRequest,
                                "unknown evaluator '" + request.evaluator + "'")};
  }

  flow::FlowOptions options;
  options.tech = config.tech;
  options.clock_period_s = request.clock_period_s;
  options.ldrg.max_added_edges = request.max_edges;
  options.resilience.on_error = request.on_error;
  options.resilience.stop = stop;

  flow::FlowResult result;
  try {
    result = flow::run_timing_flow(design, bound, *evaluator, options);
  } catch (const std::exception& e) {
    // OnError::kFail rethrows the first per-net failure; binding bugs
    // surface as kBadInput. Either way the batch yields one error frame.
    const Status status = runtime::exception_to_status(e);
    return {make_error_response(request.id, status_from_error(status),
                                status.to_string())};
  }

  std::vector<Response> frames;
  frames.reserve(count + 1);
  for (std::size_t i = 0; i < count; ++i) {
    Response r;
    r.id = request.id;
    r.kind = ResponseKind::kNet;
    r.net_index = i;
    r.net_count = count;
    const core::NetOutcome& outcome = result.outcomes[i];
    r.status = status_from_outcome(outcome);
    r.code = response_code(r.status);
    r.rung = outcome.rung;
    if (!outcome.status.ok()) r.error = outcome.status.to_string();
    report_routing(r, result.routings[i], *evaluator, config,
                   outcome.disposition != core::NetDisposition::kOk);
    frames.push_back(std::move(r));
  }

  Response summary;
  summary.id = request.id;
  summary.kind = ResponseKind::kSummary;
  summary.status = ResponseStatus::kOk;
  summary.code = response_code(ResponseStatus::kOk);
  summary.net_count = count;
  summary.iterations = result.iterations;
  summary.nets_rerouted = result.nets_rerouted;
  summary.initial_worst_slack_s = result.initial_report.worst_slack_s;
  summary.worst_slack_s = result.final_report.worst_slack_s;
  frames.push_back(std::move(summary));
  return frames;
}

std::vector<Response> execute_work_item(const WorkItem& item,
                                        const ServiceConfig& config,
                                        const runtime::CancelToken& cancel) {
  runtime::StopToken stop;
  stop.deadline = item.deadline;
  stop.cancel = cancel;
  const Request& request = *item.request;
  try {
    NTR_FAULT_POINT(kServeWorkerDispatch);
    if (request.debug_wedge_ms > 0.0) {
      if (!config.enable_test_hooks)
        return {make_error_response(request.id, ResponseStatus::kBadRequest,
                                    "debug_wedge_ms requires --enable-test-hooks")};
      // The deliberately wedged lane: spin past the deadline, honoring
      // only cancel -- exactly the stuck worker the watchdog exists for.
      const auto until =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(request.debug_wedge_ms));
      while (std::chrono::steady_clock::now() < until) {
        if (cancel.cancelled())
          return {make_error_response(request.id, ResponseStatus::kCancelled,
                                      "wedged worker cancelled")};
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (item.net_index == kWholeBatch)
      return route_flow(request, config, stop);
    return {route_net(request, item.net_index, config, stop)};
  } catch (const std::exception& e) {
    // route_net / route_flow are never-throws by contract; this is the
    // belt-and-suspenders boundary that keeps a worker lane alive.
    const Status status = runtime::exception_to_status(e);
    return {make_error_response(request.id, ResponseStatus::kInternal,
                                status.to_string())};
  }
}

}  // namespace ntr::serve
