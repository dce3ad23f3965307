#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "core/parallel.h"
#include "delay/evaluator.h"
#include "graph/routing_graph.h"
#include "runtime/stop.h"
#include "spice/technology.h"

namespace ntr::core {

/// One accepted edge addition of the LDRG greedy loop.
struct LdrgStep {
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
  double objective_before = 0.0;  ///< seconds
  double objective_after = 0.0;   ///< seconds
  double cost_after = 0.0;        ///< total wirelength (um) after this step
};

struct LdrgOptions {
  /// Maximum number of extra edges added (the paper reports iterations one
  /// and two separately; unbounded runs terminate on their own, typically
  /// after ~2 iterations).
  std::size_t max_added_edges = std::numeric_limits<std::size_t>::max();

  /// A candidate edge is accepted only if it improves the objective by
  /// more than this fraction -- guards against chasing solver noise. Must
  /// be non-negative: a negative value would accept worsening edges.
  double min_relative_improvement = 1e-9;

  /// Wirelength budget: candidates that would push total cost above
  /// max_cost_ratio x the initial routing's cost are never taken. The
  /// paper reports delay improvements *at* their incurred cost; this knob
  /// turns LDRG into the constrained form routers deploy (and sweeps the
  /// delay-cost Pareto front, bench/ext_pareto).
  double max_cost_ratio = std::numeric_limits<double>::infinity();

  /// CSORG objective weights (Section 5.1), indexed like graph.sinks();
  /// empty selects the ORG objective max_i t(n_i). When given, there must
  /// be one per sink, each non-negative (not NaN).
  std::vector<double> criticality;

  /// Candidate-scan thread count. Results are bit-identical for every
  /// value: candidates are scored independently over static ranges (rows
  /// of the pair enumeration when ranking, chunks of the candidate list
  /// when verifying) and the winner is reduced by (delay, candidate
  /// index), so the lane count can never change the chosen edge.
  ParallelConfig parallel;

  /// Cooperative deadline/cancellation. Polled at every round boundary
  /// and inside each scan lane, once per ranked row of candidates (at
  /// most n - 1) and every 16 verified candidates; when it trips, the lanes drain cooperatively (the pool
  /// joins cleanly) and ldrg unwinds with NtrError (kTimeout /
  /// kCancelled). An un-engaged token (the default) is one hoisted bool
  /// test -- the scan and its result stay bit-identical.
  runtime::StopToken stop{};
};

struct LdrgResult {
  graph::RoutingGraph graph;
  double initial_objective = 0.0;
  double final_objective = 0.0;
  double initial_cost = 0.0;
  double final_cost = 0.0;
  std::vector<LdrgStep> steps;

  [[nodiscard]] std::size_t added_edges() const { return steps.size(); }
  [[nodiscard]] bool improved() const { return !steps.empty(); }
};

/// The Low Delay Routing Graph algorithm (Figure 4 of the paper): starting
/// from `initial` (an MST, Steiner tree, or ERT -- any connected routing),
/// repeatedly add the node pair whose extra edge minimizes the delay
/// objective, while any candidate still improves it. The delay oracle is
/// pluggable; the paper's reference configuration uses the transient
/// (SPICE-substitute) evaluator.
///
/// When `initial` contains Steiner nodes this is exactly the SLDRG loop of
/// Figure 6: candidate endpoints range over pins and Steiner points alike.
///
/// Each round enumerates the absent pairs within the cost budget. When the
/// evaluator offers a CandidateScorer, the scorer ranks them and only the
/// best one is measured exactly; otherwise every candidate is measured.
/// Under the ORG objective a measurement may give up once the delay
/// provably exceeds the best one so far (bounded_max_delay); such a
/// candidate could never win, so no output changes. The same loop runs
/// greedy_wire_sizing() and horg_greedy() with widening moves.
/// Throws std::invalid_argument when `initial` is disconnected,
/// min_relative_improvement is negative or NaN, or criticality is not one
/// non-negative weight per sink.
LdrgResult ldrg(const graph::RoutingGraph& initial,
                const delay::DelayEvaluator& evaluator, const LdrgOptions& options = {});

struct ScreenedLdrgOptions {
  LdrgOptions base{};
  /// How many screener-ranked candidates are verified with the accurate
  /// evaluator per round. 1 = trust the screen completely; larger values
  /// close the (small) fidelity gap between graph Elmore and simulation.
  std::size_t verify_top_k = 4;
};

/// Screened LDRG: the same rounds as ldrg(), ranked by the graph-Elmore
/// Sherman-Morrison scorer for `tech` (O(n) per candidate) instead of the
/// evaluator's own, with the top verify_top_k candidates verified by
/// `evaluator`. Plain ldrg() with the transient evaluator runs a quadratic
/// number of simulations per round, the cost the paper flags as
/// impractical for SPICE-in-the-loop routing; here a round costs one scan
/// of the screen plus verify_top_k simulations (the screen is factored
/// once per solve and follows each accepted edge by a rank-1 update), and
/// the accurate oracle still gates every accepted edge. Throws std::invalid_argument as
/// ldrg() does, and when verify_top_k is 0.
LdrgResult ldrg_screened(const graph::RoutingGraph& initial,
                         const delay::DelayEvaluator& evaluator,
                         const spice::Technology& tech,
                         const ScreenedLdrgOptions& options = {});

}  // namespace ntr::core
