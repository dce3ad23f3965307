#include "core/ldrg.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/contracts.h"
#include "core/horg.h"
#include "core/wire_sizing.h"
#include "check/faultinject.h"
#include "graph/validate.h"
#include "runtime/status.h"

namespace ntr::core {

namespace {

/// In-lane stop-poll strides: every so many candidates each lane
/// re-checks the shared stop flag and the token. An engaged poll reads the
/// clock, 46 ns on a Xeon VM with a TSC clock source, about the cost of
/// one bounded Elmore score (30-40 ns). Polling the ranking scan every 16
/// scores cost an engaged 100-200-pin graph-Elmore LDRG a median 7% of
/// its run there (six alternating runs each), every 64 about 2%, and 64
/// scores still bound its cancellation latency to a few microseconds.
/// Verification evaluates exactly, 10 us and up per candidate, where a
/// poll is noise and 16 bounds the latency to a few evaluations.
constexpr std::size_t kRankStopStride = 64;
constexpr std::size_t kVerifyStopStride = 16;

constexpr std::size_t kNoCandidate = std::numeric_limits<std::size_t>::max();

/// One greedy move on a routing: add the absent wire (u, v), or, when v is
/// kInvalidNode, widen edge u to its next allowed width.
struct Move {
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
  [[nodiscard]] bool widens() const { return v == graph::kInvalidNode; }
};

/// What a greedy loop may do to the routing, and how its rounds choose.
struct MoveSet {
  bool add_wires = true;
  /// The allowed wire widths. Non-null adds the widening moves, and the
  /// budget then counts wire area (sum of length x width), not wirelength.
  const std::vector<double>* widths = nullptr;
  /// Choose the largest objective gain per unit of added area (HORG)
  /// instead of the lowest objective (LDRG, WSORG).
  bool gain_per_area = false;
};

/// Smallest allowed width strictly above `current`, or 0 when none is.
double next_width(const std::vector<double>& widths, double current) {
  double best = 0.0;
  for (const double w : widths)
    if (w > current && (best == 0.0 || w < best)) best = w;
  return best;
}

/// The cost `move` adds to `g`: the new wire's length (also its area, at
/// unit width), or the widened wire's extra area.
double added_cost(const graph::RoutingGraph& g, const Move& move,
                  const std::vector<double>* widths) {
  if (!move.widens())
    return geom::manhattan_distance(g.node(move.u).pos, g.node(move.v).pos);
  const graph::GraphEdge& edge = g.edge(move.u);
  return edge.length * (next_width(*widths, edge.width) - edge.width);
}

/// Applies `move` to `g` and returns the width of the wire it touched.
double apply(graph::RoutingGraph& g, const Move& move,
             const std::vector<double>* widths) {
  if (!move.widens()) return g.edge(g.add_edge(move.u, move.v)).width;
  const double w = next_width(*widths, g.edge(move.u).width);
  g.set_edge_width(move.u, w);
  return w;
}

/// A candidate's score and its index in the round's scan order. Ordered
/// by (score, index), which reproduces the serial loop's "strict
/// improvement, first tie wins" semantics for any lane count.
struct Scored {
  double score = std::numeric_limits<double>::infinity();
  std::size_t index = kNoCandidate;
};

bool ranks_before(const Scored& a, const Scored& b) {
  return a.score < b.score || (a.score == b.score && a.index < b.index);
}

/// How a round ranks its candidates before the exact evaluator verifies
/// them.
struct Ranking {
  /// Its make_candidate_scorer ranks; without a scorer (or a source)
  /// every candidate is verified.
  const delay::DelayEvaluator* source = nullptr;
  /// How many of the best-ranked candidates are verified.
  std::size_t keep = 1;
  /// The scores estimate the verified objective itself (the evaluator's
  /// own scorer), so a candidate scored at or above the acceptance
  /// threshold is dropped before it costs an exact evaluation.
  bool scores_objective = false;
};

/// The accepted move of one round and the exact objective after it.
struct Pick {
  Move move;
  double objective = 0.0;
};

/// One round of the greedy loop (paper Fig. 4: "exists e_ij improving
/// t(G)?") over `g`, whose cost is `cost` and objective `current`: the
/// best move within `cost_budget` whose exact objective improves on
/// `current` by options.min_relative_improvement, or nullopt when there
/// is none. `scorer` answers for `g` when set; when it is not and the
/// round ranks, the round builds it from ranking.source.
std::optional<Pick> ldrg_round(const graph::RoutingGraph& g, double cost,
                               double cost_budget, double current,
                               const delay::DelayEvaluator& evaluator,
                               const MoveSet& moves, const Ranking& ranking,
                               std::unique_ptr<delay::CandidateScorer>& scorer,
                               const LdrgOptions& options, ThreadPool* pool,
                               std::size_t lanes) {
  const double accept_below = current * (1.0 - options.min_relative_improvement);

  // 1. Enumerate the moves within the cost budget: every absent pair (pins
  // and Steiner points alike), then every wire below the widest width.
  // The enumeration order defines the tie-break index.
  NTR_FAULT_POINT(kLdrgAllocation);
  std::vector<Move> candidates;
  candidates.reserve(g.node_count() * (g.node_count() - 1) / 2 + g.edge_count());
  const auto consider = [&](const Move& move, double added) {
    if (cost + added > cost_budget) return;
    if (moves.gain_per_area && added <= 0.0) return;  // no gain per area
    candidates.push_back(move);
  };
  if (moves.add_wires) {
    // Row u stamps its neighbours with u, so a pair's absence is one load.
    const std::span<const graph::GraphNode> nodes = g.nodes();
    std::vector<graph::NodeId> wired(nodes.size(), graph::kInvalidNode);
    for (graph::NodeId u = 0; u < nodes.size(); ++u) {
      for (const graph::EdgeId e : g.incident_edges(u)) wired[g.other_endpoint(e, u)] = u;
      for (graph::NodeId v = u + 1; v < nodes.size(); ++v)
        if (wired[v] != u)
          consider(Move{u, v}, geom::manhattan_distance(nodes[u].pos, nodes[v].pos));
    }
  }
  if (moves.widths) {
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      const Move widen{e, graph::kInvalidNode};
      if (next_width(*moves.widths, g.edge(e).width) != 0.0)
        consider(widen, added_cost(g, widen, moves.widths));
    }
  }
  if (candidates.empty()) return std::nullopt;

  // Both scans below run over deterministic static chunks. One lane
  // observing a tripped token raises the shared flag; the other lanes see
  // it at their next stride check and break too, so the pool joins
  // promptly and the trip rethrows as a typed error.
  const bool stop_engaged = options.stop.engaged();
  const auto scan = [&](std::size_t n, std::size_t stride, const char* where,
                        const auto& visit) {
    std::atomic<bool> stop_hit{false};
    parallel_chunks(pool, n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        if (stop_engaged && (i - begin) % stride == 0) {
          if (stop_hit.load(std::memory_order_relaxed) ||
              options.stop.poll() != runtime::StatusCode::kOk) {
            stop_hit.store(true, std::memory_order_relaxed);
            break;
          }
        }
        visit(lane, i);
      }
    });
    if (stop_hit.load(std::memory_order_relaxed)) options.stop.throw_if_stopped(where);
  };

  // 2. Rank with a delta engine (Sherman-Morrison Elmore scores a
  // candidate wire in O(sinks) off the transfer resistances of `g`, which
  // the loop carries from round to round). Each lane keeps its best `keep`
  // by (score, index), sorted, and bounds every query by the score a
  // candidate must beat to join them: the lane's K-th, or the cutoff
  // until it has K. The global best `keep` lie in the union of the
  // lanes', so the shortlist is the same for every lane count.
  if (!scorer && ranking.source) scorer = ranking.source->make_candidate_scorer(g);
  if (scorer) {
    const double cutoff = ranking.scores_objective
                              ? accept_below
                              : std::numeric_limits<double>::infinity();
    const std::size_t keep = std::min(ranking.keep, candidates.size());
    std::vector<Scored> top(lanes * keep);  // lane l's at [l * keep, (l + 1) * keep)
    std::vector<std::size_t> held(lanes, 0);
    const auto offer = [&](std::size_t lane, std::size_t i) {
      Scored* best = top.data() + lane * keep;
      std::size_t& n = held[lane];
      const double bound = n == keep ? best[keep - 1].score : cutoff;
      const double score = scorer->candidate_objective(candidates[i].u, candidates[i].v,
                                                       options.criticality, bound);
      if (!(score < bound)) return;
      // A lane's indices ascend, so a tie ranks after what it ties with.
      std::size_t j = n < keep ? n++ : keep - 1;
      for (; j > 0 && score < best[j - 1].score; --j) best[j] = best[j - 1];
      best[j] = Scored{score, i};
    };
    scan(candidates.size(), kRankStopStride, "ldrg ranking scan", offer);
    std::vector<Scored> ranked;
    for (std::size_t lane = 0; lane < lanes; ++lane)
      ranked.insert(ranked.end(), top.begin() + static_cast<std::ptrdiff_t>(lane * keep),
                    top.begin() + static_cast<std::ptrdiff_t>(lane * keep + held[lane]));
    const std::size_t kept = std::min(keep, ranked.size());
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(kept),
                      ranked.end(), ranks_before);
    std::vector<Move> shortlist;
    shortlist.reserve(kept);
    for (std::size_t k = 0; k < kept; ++k)
      shortlist.push_back(candidates[ranked[k].index]);
    candidates = std::move(shortlist);
  }

  // 3. Verify with the exact evaluator; a move counts only below the
  // acceptance threshold. The lowest-objective rule scores a move by its
  // objective and gives up once that provably exceeds the lane's best;
  // the gain-per-area rule scores the negated gain per area and gives up
  // at the threshold, which every winner is below.
  const bool bounded = options.criticality.empty();
  const Scored none{moves.gain_per_area ? std::numeric_limits<double>::infinity()
                                        : accept_below,
                    kNoCandidate};
  struct Verified {
    Scored rank;
    double objective = 0.0;
  };
  std::vector<Verified> lane_best(lanes, Verified{none});
  const auto verify = [&](std::size_t lane, std::size_t k) {
    Verified& best = lane_best[lane];
    const Move& move = candidates[k];
    graph::RoutingGraph trial = g;
    apply(trial, move, moves.widths);
    const double give_up = moves.gain_per_area ? accept_below : best.rank.score;
    const double t = bounded ? evaluator.bounded_max_delay(trial, give_up)
                             : evaluator.objective(trial, options.criticality);
    if (!(t < accept_below)) return;
    const double score = moves.gain_per_area
                             ? (t - current) / added_cost(g, move, moves.widths)
                             : t;
    if (score < best.rank.score) best = Verified{Scored{score, k}, t};
  };
  scan(candidates.size(), kVerifyStopStride, "ldrg candidate scan", verify);

  // 4. Reduce by (score, index), independent of lane count and scheduling.
  Verified best{none};
  for (const Verified& lb : lane_best)
    if (ranks_before(lb.rank, best.rank)) best = lb;

  // 5. Accept the winner, or stop: no move improves t(G).
  if (best.rank.index == kNoCandidate) return std::nullopt;
  return Pick{candidates[best.rank.index], best.objective};
}

/// One accepted move as the loop records it; each entry point maps it to
/// its own step type.
struct GreedyStep {
  Move move;
  double old_width = 0.0;  ///< widening moves only
  double new_width = 0.0;  ///< the touched wire's width after the move
  double objective_before = 0.0;
  double objective_after = 0.0;
  double cost_after = 0.0;
};

struct GreedyRun {
  graph::RoutingGraph graph;
  double initial_objective = 0.0;
  double final_objective = 0.0;
  double initial_cost = 0.0;
  double final_cost = 0.0;
  std::vector<GreedyStep> steps;
};

/// The greedy loop behind ldrg, ldrg_screened, greedy_wire_sizing and
/// horg_greedy; `who` names the entry point in error messages.
GreedyRun run_ldrg(const char* who, const graph::RoutingGraph& initial,
                   const delay::DelayEvaluator& evaluator,
                   const LdrgOptions& options, const MoveSet& moves,
                   const Ranking& ranking) {
  const auto throw_invalid = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (!initial.is_connected()) throw_invalid("initial routing must be connected");
  if (!(options.min_relative_improvement >= 0.0))
    throw_invalid("min_relative_improvement must be non-negative");
  if (!options.criticality.empty()) {
    if (options.criticality.size() != initial.sinks().size())
      throw_invalid("criticality must have one weight per sink");
    // The bounded ranking stops a weighted sum at its bound, which is exact
    // only while no term is negative.
    for (const double w : options.criticality)
      if (!(w >= 0.0)) throw_invalid("criticality weights must be non-negative");
  }
  if (moves.widths && moves.widths->empty()) throw_invalid("widths must be non-empty");

  const auto cost_of = [&moves](const graph::RoutingGraph& g) {
    return moves.widths ? g.total_wire_area() : g.total_wirelength();
  };
  GreedyRun run;
  run.graph = initial;
  run.initial_objective = evaluator.objective(run.graph, options.criticality);
  run.initial_cost = cost_of(run.graph);
  run.final_objective = run.initial_objective;
  run.final_cost = run.initial_cost;

  const double cost_budget = options.max_cost_ratio * run.initial_cost;
  const std::size_t lanes = options.parallel.resolved_threads();
  std::unique_ptr<ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes);

  // The ranking scorer, kept across rounds: built in the first round that
  // ranks, moved by rank 1 after each accepted wire.
  std::unique_ptr<delay::CandidateScorer> scorer;
  const bool stop_engaged = options.stop.engaged();
  while (run.steps.size() < options.max_added_edges) {
    // Round boundary: the natural resumption point -- run.graph holds a
    // complete, valid routing after every accepted move, so unwinding here
    // loses at most one round of scan work.
    NTR_FAULT_POINT(kLdrgDeadline);
    if (stop_engaged) options.stop.throw_if_stopped("ldrg round");

    const double current = run.final_objective;
    const std::optional<Pick> pick =
        ldrg_round(run.graph, run.final_cost, cost_budget, current, evaluator,
                   moves, ranking, scorer, options, pool.get(), lanes);
    if (!pick) break;

    GreedyStep step{pick->move, 0.0, 0.0, current, pick->objective, 0.0};
    if (pick->move.widens()) step.old_width = run.graph.edge(pick->move.u).width;
    step.new_width = apply(run.graph, pick->move, moves.widths);
    // A widening, or a wire the scorer cannot follow, leaves the next
    // round to build a new one.
    if (scorer && (pick->move.widens() || !scorer->add_wire(pick->move.u, pick->move.v)))
      scorer.reset();
    run.final_objective = pick->objective;
    run.final_cost = cost_of(run.graph);
    step.cost_after = run.final_cost;
    run.steps.push_back(step);
  }

  // Every accepted move strictly improved the objective and stayed within
  // the budget, and no move can disconnect a graph.
  NTR_CHECK(run.final_objective <= run.initial_objective);
  NTR_CHECK(run.final_cost <= std::max(run.initial_cost, cost_budget) * (1.0 + 1e-12));
  NTR_DCHECK(check::require(
      graph::validate_graph(run.graph, {.require_connected = true}),
      "greedy loop postcondition"));
  return run;
}

/// An entry point's result: the run's routing, objectives and costs, and
/// its steps mapped by `convert`.
template <class Result, class Convert>
Result publish(GreedyRun run, Convert convert) {
  Result result{std::move(run.graph), run.initial_objective, run.final_objective,
                run.initial_cost,     run.final_cost,        {}};
  for (const GreedyStep& s : run.steps) result.steps.push_back(convert(s));
  return result;
}

LdrgStep ldrg_step(const GreedyStep& s) {
  return {s.move.u, s.move.v, s.objective_before, s.objective_after, s.cost_after};
}

}  // namespace

LdrgResult ldrg(const graph::RoutingGraph& initial,
                const delay::DelayEvaluator& evaluator, const LdrgOptions& options) {
  // The evaluator's own scorer estimates the objective it verifies, so
  // only the best-ranked candidate needs the exact evaluation.
  return publish<LdrgResult>(
      run_ldrg("ldrg", initial, evaluator, options, MoveSet{},
               Ranking{&evaluator, 1, /*scores_objective=*/true}),
      ldrg_step);
}

LdrgResult ldrg_screened(const graph::RoutingGraph& initial,
                         const delay::DelayEvaluator& evaluator,
                         const spice::Technology& tech,
                         const ScreenedLdrgOptions& options) {
  if (options.verify_top_k == 0)
    throw std::invalid_argument("ldrg_screened: verify_top_k must be positive");
  const delay::GraphElmoreEvaluator screen(tech);
  return publish<LdrgResult>(
      run_ldrg("ldrg_screened", initial, evaluator, options.base, MoveSet{},
               Ranking{&screen, options.verify_top_k, /*scores_objective=*/false}),
      ldrg_step);
}

WireSizingResult greedy_wire_sizing(const graph::RoutingGraph& initial,
                                    const delay::DelayEvaluator& evaluator,
                                    const WireSizingOptions& options) {
  LdrgOptions loop;
  loop.min_relative_improvement = options.min_relative_improvement;
  loop.max_cost_ratio = options.max_area_ratio;
  loop.criticality = options.criticality;
  return publish<WireSizingResult>(
      run_ldrg("greedy_wire_sizing", initial, evaluator, loop,
               MoveSet{.add_wires = false, .widths = &options.widths}, Ranking{}),
      [](const GreedyStep& s) {
        return SizingStep{s.move.u,         s.old_width,       s.new_width,
                          s.objective_before, s.objective_after, s.cost_after};
      });
}

HorgResult horg_greedy(const graph::RoutingGraph& initial,
                       const delay::DelayEvaluator& evaluator,
                       const HorgOptions& options) {
  LdrgOptions loop;
  loop.max_added_edges = options.max_moves;
  loop.min_relative_improvement = options.min_relative_improvement;
  loop.max_cost_ratio = options.max_area_ratio;
  loop.criticality = options.criticality;
  return publish<HorgResult>(
      run_ldrg("horg_greedy", initial, evaluator, loop,
               MoveSet{.widths = &options.widths, .gain_per_area = true}, Ranking{}),
      [](const GreedyStep& s) {
        const bool widen = s.move.widens();
        return HorgStep{widen ? HorgStep::Kind::kWidenEdge : HorgStep::Kind::kAddEdge,
                        widen ? graph::kInvalidNode : s.move.u, s.move.v,
                        widen ? s.move.u : graph::kInvalidEdge, s.new_width,
                        s.objective_before, s.objective_after, s.cost_after};
      });
}

}  // namespace ntr::core
