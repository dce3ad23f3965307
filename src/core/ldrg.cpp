#include "core/ldrg.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "check/contracts.h"
#include "core/annotations.h"
#include "check/faultinject.h"
#include "graph/validate.h"
#include "runtime/status.h"

namespace ntr::core {

namespace {

/// In-lane stop-poll stride: every 16 candidates each lane re-checks the
/// shared stop flag and the token. Candidate scoring dominates the cost
/// (an LU solve or an O(n) delta), so 16 bounds cancellation latency to a
/// few scores without measurable overhead.
constexpr std::size_t kLaneStopStride = 16;

constexpr std::size_t kNoCandidate = std::numeric_limits<std::size_t>::max();

double sink_objective(const std::vector<double>& sink_delays,
                      const std::vector<double>& criticality) {
  if (criticality.empty()) {
    double worst = 0.0;
    for (const double d : sink_delays) worst = std::max(worst, d);
    return worst;
  }
  if (criticality.size() != sink_delays.size())
    throw std::invalid_argument("ldrg: criticality size must match sink count");
  double sum = 0.0;
  for (std::size_t i = 0; i < sink_delays.size(); ++i)
    sum += criticality[i] * sink_delays[i];
  return sum;
}

struct Candidate {
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
};

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
  /// Its make_candidate_scorer ranks; without a scorer every candidate is
  /// verified.
  const delay::DelayEvaluator* source = nullptr;
  /// How many of the best-ranked candidates are verified.
  std::size_t keep = 1;
  /// The scores estimate the verified objective itself (the evaluator's
  /// own scorer), so a candidate scored at or above the acceptance
  /// threshold is dropped before it costs an exact evaluation.
  bool scores_objective = false;
};

/// The accepted edge of one round and the exact objective with it added.
struct Pick {
  Candidate edge;
  double objective = 0.0;
};

/// One round of the greedy loop (paper Fig. 4: "exists e_ij improving
/// t(G)?") over `g`, whose wirelength is `cost`: the best absent pair
/// within `cost_budget` whose exact objective is below `accept_below`, or
/// nullopt when there is none.
std::optional<Pick> ldrg_round(const graph::RoutingGraph& g, double cost,
                               double cost_budget, double accept_below,
                               const delay::DelayEvaluator& evaluator,
                               const Ranking& ranking, const LdrgOptions& options,
                               ThreadPool* pool, std::size_t lanes) {
  // 1. Enumerate every absent pair (pins and Steiner points alike) within
  // the cost budget; the enumeration order defines the tie-break index.
  NTR_FAULT_POINT(kLdrgAllocation);
  std::vector<Candidate> candidates;
  candidates.reserve(g.node_count() * (g.node_count() - 1) / 2);
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    for (graph::NodeId v = u + 1; v < g.node_count(); ++v) {
      if (g.has_edge(u, v)) continue;
      const double edge_len =
          geom::manhattan_distance(g.node(u).pos, g.node(v).pos);
      if (cost + edge_len > cost_budget) continue;
      candidates.push_back({u, v});
    }
  }
  if (candidates.empty()) return std::nullopt;

  // Both scans below run over deterministic static chunks. One lane
  // observing a tripped token raises the shared flag; the other lanes see
  // it at their next stride check and break too, so the pool joins
  // promptly and the trip rethrows as a typed error.
  const bool stop_engaged = options.stop.engaged();
  const auto scan = [&](std::size_t n, const char* where, const auto& visit) {
    std::atomic<bool> stop_hit{false};
    parallel_chunks(pool, n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        if (stop_engaged && (i - begin) % kLaneStopStride == 0) {
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
  // candidate in O(n) off a factorization of `g`, rebuilt every round
  // because the accepted edge invalidates it) and keep the best `keep` by
  // (score, index). Scores land at their enumeration index, so the
  // ranking is bit-identical for every lane count.
  const std::unique_ptr<delay::CandidateScorer> scorer =
      ranking.source->make_candidate_scorer(g);
  if (scorer) {
    std::vector<Scored> ranked(candidates.size());
    scan(candidates.size(), "ldrg ranking scan", [&](std::size_t, std::size_t i) {
      ranked[i] = Scored{
          sink_objective(scorer->candidate_sink_delays(candidates[i].u, candidates[i].v),
                         options.criticality),
          i};
    });
    const double cutoff = ranking.scores_objective
                              ? accept_below
                              : std::numeric_limits<double>::infinity();
    std::erase_if(ranked, [&](const Scored& s) { return !(s.score < cutoff); });
    const std::size_t keep = std::min(ranking.keep, ranked.size());
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                      ranked.end(), ranks_before);
    std::vector<Candidate> shortlist;
    shortlist.reserve(keep);
    for (std::size_t k = 0; k < keep; ++k)
      shortlist.push_back(candidates[ranked[k].index]);
    candidates = std::move(shortlist);
  }

  // 3. Verify with the exact evaluator. Each lane's best is seeded at the
  // acceptance threshold and doubles as its branch-and-bound cutoff: a
  // candidate whose delay provably exceeds it can never win, so its
  // evaluation may stop early.
  const bool bounded = options.criticality.empty() && options.bounded_scoring;
  std::vector<Scored> lane_best(lanes, Scored{accept_below, kNoCandidate});
  scan(candidates.size(), "ldrg candidate scan", [&](std::size_t lane, std::size_t k) {
    Scored& best = lane_best[lane];
    graph::RoutingGraph trial = g;
    trial.add_edge(candidates[k].u, candidates[k].v);
    const double t = bounded ? evaluator.bounded_max_delay(trial, best.score)
                             : evaluator.objective(trial, options.criticality);
    if (t < best.score) best = Scored{t, k};
  });

  // 4. Reduce by (score, index), independent of lane count and scheduling.
  Scored best{accept_below, kNoCandidate};
  for (const Scored& lb : lane_best)
    if (ranks_before(lb, best)) best = lb;

  // 5. Accept the winner, or stop: no candidate improves t(G).
  if (best.index == kNoCandidate) return std::nullopt;
  return Pick{candidates[best.index], best.score};
}

/// The greedy loop behind ldrg and ldrg_screened.
// NTR_HOT: the per-round candidate scan is the paper's O(n^2) inner
// loop; everything this reaches must be allocation-disciplined.
NTR_HOT LdrgResult run_ldrg(const graph::RoutingGraph& initial,
                            const delay::DelayEvaluator& evaluator,
                            const LdrgOptions& options, const Ranking& ranking) {
  if (!initial.is_connected())
    throw std::invalid_argument("ldrg: initial routing must be connected");
  if (!(options.min_relative_improvement >= 0.0))
    throw std::invalid_argument(
        "ldrg: min_relative_improvement must be non-negative");

  LdrgResult result;
  result.graph = initial;
  result.initial_objective = evaluator.objective(result.graph, options.criticality);
  result.initial_cost = result.graph.total_wirelength();
  result.final_objective = result.initial_objective;
  result.final_cost = result.initial_cost;

  const double cost_budget = options.max_cost_ratio * result.initial_cost;
  const std::size_t lanes = options.parallel.resolved_threads();
  std::unique_ptr<ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes);

  const bool stop_engaged = options.stop.engaged();
  while (result.steps.size() < options.max_added_edges) {
    // Round boundary: the natural resumption point -- result.graph holds a
    // complete, valid routing after every accepted edge, so unwinding here
    // loses at most one round of scan work.
    NTR_FAULT_POINT(kLdrgDeadline);
    if (stop_engaged) options.stop.throw_if_stopped("ldrg round");

    const double current = result.final_objective;
    const double accept_below =
        current * (1.0 - options.min_relative_improvement);
    const std::optional<Pick> pick =
        ldrg_round(result.graph, result.final_cost, cost_budget, accept_below,
                   evaluator, ranking, options, pool.get(), lanes);
    if (!pick) break;

    result.graph.add_edge(pick->edge.u, pick->edge.v);
    result.final_objective = pick->objective;
    result.final_cost = result.graph.total_wirelength();
    // ntr-alloc-in-hot-path(one step per accepted round; the trace IS the result)
    result.steps.push_back(LdrgStep{pick->edge.u, pick->edge.v, current,
                                    pick->objective, result.final_cost});
  }

  // Every accepted edge strictly improved the objective and stayed within
  // the wirelength budget, and edge insertion cannot disconnect a graph.
  NTR_CHECK(result.final_objective <= result.initial_objective);
  NTR_CHECK(result.final_cost <=
            std::max(result.initial_cost, cost_budget) * (1.0 + 1e-12));
  NTR_DCHECK(check::require(
      graph::validate_graph(result.graph, {.require_connected = true}),
      "ldrg postcondition"));
  return result;
}

}  // namespace

LdrgResult ldrg(const graph::RoutingGraph& initial,
                const delay::DelayEvaluator& evaluator, const LdrgOptions& options) {
  // The evaluator's own scorer estimates the objective it verifies, so
  // only the best-ranked candidate needs the exact evaluation.
  return run_ldrg(initial, evaluator, options,
                  Ranking{&evaluator, 1, /*scores_objective=*/true});
}

LdrgResult ldrg_screened(const graph::RoutingGraph& initial,
                         const delay::DelayEvaluator& evaluator,
                         const spice::Technology& tech,
                         const ScreenedLdrgOptions& options) {
  if (options.verify_top_k == 0)
    throw std::invalid_argument("ldrg_screened: verify_top_k must be positive");
  const delay::GraphElmoreEvaluator screen(tech);
  return run_ldrg(initial, evaluator, options.base,
                  Ranking{&screen, options.verify_top_k, /*scores_objective=*/false});
}

}  // namespace ntr::core
