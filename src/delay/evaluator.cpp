#include "delay/evaluator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "delay/elmore.h"
#include "delay/incremental_elmore.h"
#include "delay/moments.h"
#include "delay/two_pole.h"
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
/// cache; `scale` folds in the ln(2) rescale of ScaledElmoreEvaluator.
class IncrementalElmoreScorer final : public CandidateScorer {
 public:
  IncrementalElmoreScorer(const graph::RoutingGraph& g,
                          const spice::Technology& tech, double scale)
      : engine_(g, tech), scale_(scale) {}

  [[nodiscard]] std::vector<double> candidate_sink_delays(
      graph::NodeId u, graph::NodeId v) const override {
    std::vector<double> out(engine_.sink_count());
    engine_.candidate_sink_delays(u, v, scale_, out);
    return out;
  }

 private:
  IncrementalElmore engine_;
  double scale_;
};

}  // namespace

double DelayEvaluator::max_delay(const graph::RoutingGraph& g) const {
  double worst = 0.0;
  for (const double d : sink_delays(g)) worst = std::max(worst, d);
  return worst;
}

double DelayEvaluator::weighted_delay(const graph::RoutingGraph& g,
                                      std::span<const double> criticality) const {
  const std::vector<double> delays = sink_delays(g);
  if (criticality.size() != delays.size())
    throw std::invalid_argument(
        "weighted_delay: criticality size must match sink count");
  double sum = 0.0;
  for (std::size_t i = 0; i < delays.size(); ++i) sum += criticality[i] * delays[i];
  return sum;
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
  return std::make_unique<IncrementalElmoreScorer>(g, tech_, 1.0);
}

std::vector<double> ScaledElmoreEvaluator::sink_delays(
    const graph::RoutingGraph& g) const {
  constexpr double kLn2 = 0.6931471805599453;
  std::vector<double> d = select_sinks(g, graph_elmore_delays(g, tech_));
  for (double& v : d) v *= kLn2;
  return d;
}

std::unique_ptr<CandidateScorer> ScaledElmoreEvaluator::make_candidate_scorer(
    const graph::RoutingGraph& g) const {
  constexpr double kLn2 = 0.6931471805599453;
  return std::make_unique<IncrementalElmoreScorer>(g, tech_, kLn2);
}

std::vector<double> TwoPoleEvaluator::sink_delays(const graph::RoutingGraph& g) const {
  return select_sinks(g, d2m_delays(g, tech_));
}

std::vector<double> TwoPoleWaveformEvaluator::sink_delays(
    const graph::RoutingGraph& g) const {
  const std::vector<TwoPoleModel> models = two_pole_models(g, tech_);
  std::vector<double> out;
  const std::vector<graph::NodeId> sinks = g.sinks();
  out.reserve(sinks.size());
  for (const graph::NodeId s : sinks)
    out.push_back(models[s].crossing(tech_.threshold_fraction));
  return out;
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
