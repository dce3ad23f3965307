#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/routing_graph.h"
#include "runtime/stop.h"
#include "sim/transient.h"
#include "spice/graph_netlist.h"
#include "spice/technology.h"

namespace ntr::delay {

/// Fast what-if oracle for one routing revision: per-sink delays of the
/// attached graph plus one candidate edge (u,v), without materializing the
/// trial graph. Obtained from DelayEvaluator::make_candidate_scorer; valid
/// until the attached graph mutates. Implementations must be safe for
/// concurrent const calls -- LDRG's parallel scan queries one scorer from
/// every worker lane.
class CandidateScorer {
 public:
  virtual ~CandidateScorer() = default;

  /// Delays (seconds) per sink, ordered like g.sinks(), of the attached
  /// graph with edge (u,v) added. Must agree with sink_delays() on the
  /// materialized trial graph to 1e-12 of the largest delay. Steiner trees
  /// with micron-length edges are ill-conditioned and may reach a few
  /// times that; the tests hold them to 1e-11.
  [[nodiscard]] virtual std::vector<double> candidate_sink_delays(
      graph::NodeId u, graph::NodeId v) const = 0;
};

/// Pluggable source-to-sink delay oracle over routing graphs. Every router
/// in this library (LDRG, heuristics, ERT, wire sizing) consumes this
/// interface, so the cost/accuracy point is a caller decision: the
/// transient engine plays the paper's SPICE role, the moment evaluators
/// play the Elmore screening role.
class DelayEvaluator {
 public:
  virtual ~DelayEvaluator() = default;

  /// Delay (seconds) per sink, ordered like g.sinks(). Implementations may
  /// require specific topologies (the tree-Elmore evaluator throws on
  /// cyclic graphs, as the paper's H2/H3 discussion demands).
  [[nodiscard]] virtual std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// t(G) = max over sinks (the ORG objective).
  [[nodiscard]] double max_delay(const graph::RoutingGraph& g) const;

  /// sum alpha_i * t(n_i) over sinks (the CSORG objective, Section 5.1).
  /// `criticality` is indexed like g.sinks() and must match its size.
  [[nodiscard]] double weighted_delay(const graph::RoutingGraph& g,
                                      std::span<const double> criticality) const;

  /// The routing objective every optimizer in core/ minimizes: max_delay
  /// when `criticality` is empty (ORG), weighted_delay otherwise (CSORG).
  [[nodiscard]] double objective(const graph::RoutingGraph& g,
                                 std::span<const double> criticality) const {
    return criticality.empty() ? max_delay(g) : weighted_delay(g, criticality);
  }

  /// Optional incremental engine for add-edge what-if queries against `g`.
  /// Evaluators without a delta path return nullptr and callers fall back
  /// to sink_delays() on a trial copy. The default has no delta path.
  [[nodiscard]] virtual std::unique_ptr<CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const {
    (void)g;
    return nullptr;
  }

  /// max_delay with permission to give up: an implementation may return
  /// +infinity as soon as it can prove max_delay(g) > give_up_s, and must
  /// return exactly max_delay(g) whenever that value is <= give_up_s.
  /// LDRG's candidate scan uses this as a branch-and-bound cutoff -- a
  /// candidate whose delay provably exceeds the best score seen so far
  /// can never be selected, so its evaluation may stop early. The default
  /// ignores the bound.
  [[nodiscard]] virtual double bounded_max_delay(const graph::RoutingGraph& g,
                                                 double give_up_s) const {
    (void)give_up_s;
    return max_delay(g);
  }
};

/// O(k) tree Elmore formula; throws std::invalid_argument on non-trees.
class ElmoreTreeEvaluator final : public DelayEvaluator {
 public:
  explicit ElmoreTreeEvaluator(const spice::Technology& tech) : tech_(tech) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return "elmore-tree"; }

 private:
  spice::Technology tech_;
};

/// Graph Elmore (first moment) via one SPD solve; works on any connected
/// topology.
class GraphElmoreEvaluator final : public DelayEvaluator {
 public:
  explicit GraphElmoreEvaluator(const spice::Technology& tech) : tech_(tech) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return "elmore-graph"; }
  /// Sherman-Morrison delta engine (delay/incremental_elmore.h): one
  /// envelope factorization and n solves, then O(sinks) per candidate
  /// instead of a fresh SPD solve.
  [[nodiscard]] std::unique_ptr<CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const override;

 private:
  spice::Technology tech_;
};

/// ln(2)-scaled graph Elmore: the classical single-pole 50%-delay rule
/// (0.693 RC). Cheaper than D2M (one solve) and a much better absolute
/// estimate than raw Elmore when a single pole dominates; same ranking as
/// GraphElmoreEvaluator since it only rescales.
class ScaledElmoreEvaluator final : public DelayEvaluator {
 public:
  explicit ScaledElmoreEvaluator(const spice::Technology& tech) : tech_(tech) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return "elmore-ln2"; }
  /// Same delta engine as GraphElmoreEvaluator, with the ln(2) rescale.
  [[nodiscard]] std::unique_ptr<CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const override;

 private:
  spice::Technology tech_;
};

/// D2M two-pole metric; two SPD solves, any topology.
class TwoPoleEvaluator final : public DelayEvaluator {
 public:
  explicit TwoPoleEvaluator(const spice::Technology& tech) : tech_(tech) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return "two-pole-d2m"; }

 private:
  spice::Technology tech_;
};

/// AWE-style reduced-order model: fits a two-pole waveform per node from
/// three moment solves and reads the crossing at the technology's
/// threshold fraction. Unlike the D2M metric (fixed 50% formula), this
/// respects Technology::threshold_fraction, so it can screen for
/// non-standard measurement points at moment-solve cost.
class TwoPoleWaveformEvaluator final : public DelayEvaluator {
 public:
  explicit TwoPoleWaveformEvaluator(const spice::Technology& tech) : tech_(tech) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return "two-pole-waveform"; }

 private:
  spice::Technology tech_;
};

/// Full transient 50%-threshold measurement through the in-repo circuit
/// simulator: the accurate-but-costly oracle, standing in for SPICE.
class TransientEvaluator final : public DelayEvaluator {
 public:
  explicit TransientEvaluator(const spice::Technology& tech,
                              spice::NetlistOptions netlist_options = {},
                              sim::TransientOptions transient_options = {})
      : tech_(tech),
        netlist_options_(netlist_options),
        transient_options_(transient_options) {}

  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return "transient"; }
  /// Stops time-stepping once the simulated time passes give_up_s with a
  /// sink still below threshold (its crossing then provably exceeds the
  /// bound) and reports +infinity. Exact whenever the true max delay is
  /// within the bound.
  [[nodiscard]] double bounded_max_delay(const graph::RoutingGraph& g,
                                         double give_up_s) const override;

 private:
  /// Builds g's netlist and marches it until every sink crosses the
  /// threshold or the march passes `give_up_s` (+inf: never gives up).
  [[nodiscard]] sim::TransientSimulator::ThresholdReport measure(
      const graph::RoutingGraph& g, double give_up_s) const;

  spice::Technology tech_;
  spice::NetlistOptions netlist_options_;
  sim::TransientOptions transient_options_;
};

/// Constructs the evaluator the command surfaces name: "transient" (the
/// SPICE-role oracle; `stop` is threaded into its time-march so
/// deadlines/cancellation reach the inner loop), "elmore" (tree Elmore),
/// "graph-elmore", or "d2m". nullptr for unknown names. One instance per
/// request/solve keeps callers re-entrant: evaluators share nothing.
[[nodiscard]] std::unique_ptr<DelayEvaluator> make_evaluator(
    const std::string& name, const spice::Technology& tech,
    const runtime::StopToken& stop = {});

}  // namespace ntr::delay
