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

/// In-lane stop-poll strides. The ranking scan re-checks the shared stop
/// flag and the token once per row of the pair enumeration, before the
/// row's query: a row holds at most n - 1 candidates, about 2 us on
/// average and 5 us at most at 200 pins (BM_RankRound, 19-27 ns a
/// candidate on a 4-core Xeon VM). An engaged poll reads the clock, 46 ns
/// there with a TSC clock source, so a poll per row is noise next to the
/// row, and one row bounds the cancellation latency. Verification
/// evaluates exactly, 10 us and up per candidate, where a poll is noise
/// and 16 bounds the latency to a few evaluations.
constexpr std::size_t kRankStopStride = 1;  // rows
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
  const std::size_t n = g.node_count();
  const std::span<const graph::GraphNode> nodes = g.nodes();
  // Only LDRG and screened LDRG rank, and they only add wires.
  NTR_DCHECK(!ranking.source || (moves.add_wires && !moves.widths && !moves.gain_per_area));

  // 1. The moves within the cost budget, row by row: row u holds the
  // absent wires (u, v), v > u, between pins and Steiner points alike, and
  // the widenings come after the last row. This order, (u, v)
  // lexicographic for the wires, defines the tie-break. Each lane walks
  // its rows with an n-entry stamp array (row u stamps u's neighbours, so
  // a pair's absence is one load) and an n-entry row buffer.
  NTR_FAULT_POINT(kLdrgAllocation);
  std::vector<graph::NodeId> row_ids(2 * n * lanes, graph::kInvalidNode);
  const auto within_budget = [&](double added) {
    if (cost + added > cost_budget) return false;
    return !(moves.gain_per_area && added <= 0.0);  // no gain per area
  };
  // Without a finite budget or the gain-per-area rule every wire is in.
  const bool filtered =
      cost_budget < std::numeric_limits<double>::infinity() || moves.gain_per_area;
  const auto row = [&](std::size_t lane, graph::NodeId u) {
    graph::NodeId* wired = row_ids.data() + 2 * n * lane;
    graph::NodeId* partners = wired + n;
    for (const graph::EdgeId e : g.incident_edges(u)) wired[g.other_endpoint(e, u)] = u;
    std::size_t k = 0;
    for (graph::NodeId v = u + 1; v < n; ++v)
      if (wired[v] != u &&
          (!filtered || within_budget(geom::manhattan_distance(nodes[u].pos, nodes[v].pos))))
        partners[k++] = v;
    return std::span<const graph::NodeId>(partners, k);
  };

  // Both scans below run over deterministic static ranges: lane l visits
  // range(l). One lane observing a tripped token raises the shared flag;
  // the other lanes see it at their next stride check and break too, so
  // the pool joins promptly and the trip rethrows as a typed error.
  const bool stop_engaged = options.stop.engaged();
  const auto scan = [&](std::size_t stride, const char* where, const auto& range,
                        const auto& visit) {
    std::atomic<bool> stop_hit{false};
    const auto lane_job = [&](std::size_t lane) {
      const ChunkRange r = range(lane);
      for (std::size_t i = r.begin; i < r.end; ++i) {
        if (stop_engaged && (i - r.begin) % stride == 0) {
          if (stop_hit.load(std::memory_order_relaxed) ||
              options.stop.poll() != runtime::StatusCode::kOk) {
            stop_hit.store(true, std::memory_order_relaxed);
            break;
          }
        }
        visit(lane, i);
      }
    };
    if (pool) {
      pool->run(lane_job);
    } else {
      lane_job(0);
    }
    if (stop_hit.load(std::memory_order_relaxed)) options.stop.throw_if_stopped(where);
  };

  // A round with no wire to rank builds no scorer.
  if (!scorer && ranking.source) {
    bool any = false;
    for (graph::NodeId u = 0; u < n && !any; ++u) any = !row(0, u).empty();
    if (!any) return std::nullopt;
    scorer = ranking.source->make_candidate_scorer(g);
  }

  // 2. Rank with a delta engine (Sherman-Morrison Elmore scores a
  // candidate wire in O(sinks) off the transfer resistances of `g`, which
  // the loop carries from round to round), one row query per row. Each
  // lane keeps its best `keep` by (score, index), sorted; it bounds a
  // row's query by the score a candidate had to beat to join them when
  // the row started (the lane's K-th, or the cutoff until it has K), then
  // offers the row's scores in v order against the live bound. A score at
  // or above the row's bound could not join, and one below it is exact,
  // so the lane keeps what per-candidate queries would. The global best
  // `keep` lie in the union of the lanes', so the shortlist is the same
  // for every lane count. A wire's index is u * n + v, which ascends in
  // enumeration order.
  std::vector<Move> candidates;
  if (scorer) {
    const double cutoff = ranking.scores_objective
                              ? accept_below
                              : std::numeric_limits<double>::infinity();
    const std::size_t keep = std::min(ranking.keep, n * (n - 1) / 2);
    std::vector<Scored> top(lanes * keep);  // lane l's at [l * keep, (l + 1) * keep)
    std::vector<std::size_t> held(lanes, 0);
    std::vector<double> scores(lanes * n);
    // Lane l takes the rows [first_row[l], first_row[l + 1]): contiguous,
    // with near-equal candidate counts.
    std::vector<std::size_t> first_row(lanes + 1, n);
    first_row[0] = 0;
    if (lanes > 1) {
      std::vector<std::size_t> per_row(n);
      std::size_t total = 0;
      for (graph::NodeId u = 0; u < n; ++u) {
        if (filtered) {
          per_row[u] = row(0, u).size();
        } else {
          per_row[u] = n - 1 - u;
          for (const graph::EdgeId e : g.incident_edges(u))
            per_row[u] -= g.other_endpoint(e, u) > u;
        }
        total += per_row[u];
      }
      std::size_t lane = 1, before = 0;
      for (graph::NodeId u = 0; u < n; ++u) {
        while (lane < lanes && before * lanes >= lane * total) first_row[lane++] = u;
        before += per_row[u];
      }
    }
    const auto rows_of = [&](std::size_t lane) {
      return ChunkRange{first_row[lane], first_row[lane + 1]};
    };
    const auto rank_row = [&](std::size_t lane, std::size_t u) {
      const std::span<const graph::NodeId> vs = row(lane, u);
      if (vs.empty()) return;
      Scored* best = top.data() + lane * keep;
      std::size_t count = held[lane];
      const std::span<double> out(scores.data() + lane * n, vs.size());
      scorer->row_objectives(u, vs, options.criticality,
                             count == keep ? best[keep - 1].score : cutoff, out);
      for (std::size_t j = 0; j < vs.size(); ++j) {
        const double score = out[j];
        if (!(score < (count == keep ? best[keep - 1].score : cutoff))) continue;
        // A lane's indices ascend, so a tie ranks after what it ties with.
        std::size_t i = count < keep ? count++ : keep - 1;
        for (; i > 0 && score < best[i - 1].score; --i) best[i] = best[i - 1];
        best[i] = Scored{score, u * n + vs[j]};
      }
      held[lane] = count;
    };
    scan(kRankStopStride, "ldrg ranking scan", rows_of, rank_row);
    std::vector<Scored> ranked;
    for (std::size_t lane = 0; lane < lanes; ++lane)
      ranked.insert(ranked.end(), top.begin() + static_cast<std::ptrdiff_t>(lane * keep),
                    top.begin() + static_cast<std::ptrdiff_t>(lane * keep + held[lane]));
    const std::size_t kept = std::min(keep, ranked.size());
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(kept),
                      ranked.end(), ranks_before);
    candidates.reserve(kept);
    for (std::size_t k = 0; k < kept; ++k)
      candidates.push_back(Move{ranked[k].index / n, ranked[k].index % n});
  } else {
    // Without a scorer every move is verified: the rows, then the
    // widenings.
    candidates.reserve(n * (n - 1) / 2 + g.edge_count());
    if (moves.add_wires)
      for (graph::NodeId u = 0; u < n; ++u)
        for (const graph::NodeId v : row(0, u)) candidates.push_back(Move{u, v});
    if (moves.widths) {
      for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
        const Move widen{e, graph::kInvalidNode};
        if (next_width(*moves.widths, g.edge(e).width) != 0.0 &&
            within_budget(added_cost(g, widen, moves.widths)))
          candidates.push_back(widen);
      }
    }
    if (candidates.empty()) return std::nullopt;
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
  const auto chunk_of = [&](std::size_t lane) {
    return chunk_range(candidates.size(), lane, lanes);
  };
  scan(kVerifyStopStride, "ldrg candidate scan", chunk_of, verify);

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
