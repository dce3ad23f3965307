#include "delay/evaluator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "delay/elmore.h"
#include "delay/incremental_elmore.h"
#include "delay/moments.h"
#include "spice/netlist.h"

namespace ntr::delay {

namespace {

std::vector<double> select_sinks(const graph::RoutingGraph& g,
                                 const std::vector<double>& per_node) {
  std::vector<double> out;
  const std::vector<graph::NodeId> sinks = g.sinks();
  out.reserve(sinks.size());
  for (const graph::NodeId s : sinks) out.push_back(per_node[s]);
  return out;
}

/// Incremental what-if scorer backed by the Sherman-Morrison Elmore
/// cache.
class IncrementalElmoreScorer final : public CandidateScorer {
 public:
  IncrementalElmoreScorer(const graph::RoutingGraph& g, const spice::Technology& tech)
      : engine_(g, tech) {}

  [[nodiscard]] std::vector<double> candidate_sink_delays(
      graph::NodeId u, graph::NodeId v) const override {
    std::vector<double> out(engine_.sink_count());
    engine_.candidate_sink_delays(u, v, out);
    return out;
  }

  void row_objectives(graph::NodeId u, std::span<const graph::NodeId> vs,
                      std::span<const double> criticality, double bound,
                      std::span<double> out) const override {
    engine_.row_objectives(u, vs, criticality, bound, out);
  }

  bool add_wire(graph::NodeId u, graph::NodeId v) override {
    return engine_.add_wire(u, v);
  }

 private:
  IncrementalElmore engine_;
};

}  // namespace

double sink_objective(std::span<const double> sink_delays,
                      std::span<const double> criticality) {
  if (criticality.empty()) {
    // Four running maxima: max is exact and order-free, so this is the
    // serial maximum without its one long dependency chain.
    double w0 = 0.0, w1 = 0.0, w2 = 0.0, w3 = 0.0;
    const std::size_t n = sink_delays.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      w0 = std::max(w0, sink_delays[i]);
      w1 = std::max(w1, sink_delays[i + 1]);
      w2 = std::max(w2, sink_delays[i + 2]);
      w3 = std::max(w3, sink_delays[i + 3]);
    }
    for (; i < n; ++i) w0 = std::max(w0, sink_delays[i]);
    return std::max(std::max(w0, w1), std::max(w2, w3));
  }
  if (criticality.size() != sink_delays.size())
    throw std::invalid_argument("sink_objective: criticality size must match sink count");
  double sum = 0.0;
  for (std::size_t i = 0; i < sink_delays.size(); ++i)
    sum += criticality[i] * sink_delays[i];
  return sum;
}

void CandidateScorer::row_objectives(graph::NodeId u, std::span<const graph::NodeId> vs,
                                     std::span<const double> criticality, double bound,
                                     std::span<double> out) const {
  (void)bound;
  if (out.size() != vs.size())
    throw std::invalid_argument("row_objectives: one output per partner");
  for (std::size_t j = 0; j < vs.size(); ++j)
    out[j] = sink_objective(candidate_sink_delays(u, vs[j]), criticality);
}

double DelayEvaluator::max_delay(const graph::RoutingGraph& g) const {
  return sink_objective(sink_delays(g), {});
}

double DelayEvaluator::weighted_delay(const graph::RoutingGraph& g,
                                      std::span<const double> criticality) const {
  const std::vector<double> delays = sink_delays(g);
  if (criticality.size() != delays.size())
    throw std::invalid_argument(
        "weighted_delay: criticality size must match sink count");
  return sink_objective(delays, criticality);
}

std::vector<double> ElmoreTreeEvaluator::sink_delays(
    const graph::RoutingGraph& g) const {
  return select_sinks(g, elmore_node_delays(g, tech_));
}

std::vector<double> GraphElmoreEvaluator::sink_delays(
    const graph::RoutingGraph& g) const {
  return select_sinks(g, graph_elmore_delays(g, tech_));
}

std::unique_ptr<CandidateScorer> GraphElmoreEvaluator::make_candidate_scorer(
    const graph::RoutingGraph& g) const {
  return std::make_unique<IncrementalElmoreScorer>(g, tech_);
}

std::vector<double> TwoPoleEvaluator::sink_delays(const graph::RoutingGraph& g) const {
  return select_sinks(g, d2m_delays(g, tech_));
}

sim::TransientSimulator::ThresholdReport TransientEvaluator::measure(
    const graph::RoutingGraph& g, double give_up_s) const {
  const spice::GraphNetlist netlist = spice::build_netlist(g, tech_, netlist_options_);
  std::vector<spice::CircuitNode> watch;
  watch.reserve(netlist.sink_graph_nodes.size());
  for (const graph::NodeId s : netlist.sink_graph_nodes)
    watch.push_back(netlist.graph_to_circuit[s]);

  sim::TransientSimulator simulator(netlist.circuit, transient_options_);
  return simulator.measure_crossings(watch, tech_.threshold_fraction, give_up_s);
}

std::vector<double> TransientEvaluator::sink_delays(
    const graph::RoutingGraph& g) const {
  return measure(g, std::numeric_limits<double>::infinity()).crossing_s;
}

double TransientEvaluator::bounded_max_delay(const graph::RoutingGraph& g,
                                             double give_up_s) const {
  return measure(g, give_up_s).max_crossing_s;
}

std::unique_ptr<DelayEvaluator> make_evaluator(const std::string& name,
                                               const spice::Technology& tech,
                                               const runtime::StopToken& stop) {
  if (name == "elmore") return std::make_unique<ElmoreTreeEvaluator>(tech);
  if (name == "graph-elmore") return std::make_unique<GraphElmoreEvaluator>(tech);
  if (name == "d2m") return std::make_unique<TwoPoleEvaluator>(tech);
  if (name == "transient") {
    sim::TransientOptions transient;
    transient.stop = stop;
    return std::make_unique<TransientEvaluator>(tech, spice::NetlistOptions{},
                                                transient);
  }
  return nullptr;
}

}  // namespace ntr::delay
