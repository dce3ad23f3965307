#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <vector>

#include "graph/routing_graph.h"
#include "spice/technology.h"

namespace ntr::delay {

/// Counters describing how an IncrementalElmore cache served its queries.
/// `exact_fallbacks` are full re-solves forced by an ill-conditioned
/// update; `rebuilds` counts cache (re)constructions, one per attached
/// graph revision. Every other query is an O(n) Sherman-Morrison answer
/// off the cached transfer resistances.
struct IncrementalElmoreStats {
  std::size_t exact_fallbacks = 0;
  std::size_t rebuilds = 0;
};

/// Incremental graph-Elmore engine for LDRG's inner question: "what are
/// the per-node Elmore delays of G + e_uv?" asked for every absent pair
/// (u,v) of the current routing.
///
/// What is cached, in circuit terms: the transfer-resistance matrix
/// R = G^{-1} of the grounded conductance system and the base moment
/// vector m1 = R C. On a tree, R(i,k) is exactly the resistance of the
/// shared source path of nodes i and k (plus the driver), and
/// m1_i = sum_k R(i,k) c_k is the classical "path resistance times
/// downstream capacitance" Elmore sum -- so this cache is the general-
/// graph form of the per-node subtree-capacitance / source-path-resistance
/// tables a tree-Elmore engine would keep. R is built from one RCM
/// envelope factor G = L D L^T (linalg/sparse_cholesky.h) by n in-place
/// solves, and each of its columns is stored contiguously with the sinks
/// first, in g.sinks() order.
///
/// A candidate wire (u,v) is a rank-1 conductance update
/// G' = G + g_e w w^T (w = e_u - e_v) plus two capacitance entries, so by
/// Sherman-Morrison the updated moments need only columns u and v of R:
/// an O(1) coefficient (y^T C = m1_u - m1_v because R is symmetric) and
/// one contiguous pass over the nodes -- over just the sinks for
/// candidate_sink_delays. When the update is too ill-conditioned for the
/// delta to be trustworthy (degenerate zero-length shorts driving
/// g_e * w^T R w beyond kDeltaConditionLimit), the engine transparently
/// falls back to an exact solve of the trial graph.
///
/// Cache invalidation: the cache is valid for exactly one graph revision.
/// Inserting an edge (or node) into the routing invalidates it; call
/// refresh() with the mutated graph before scoring further candidates.
/// matches() tests the structural signature (node count, edge count, total
/// wirelength) that every LDRG mutation changes.
///
/// Thread safety: the queries are const and safe to call from many
/// threads concurrently (the fallback counter is atomic); build/refresh
/// must be externally serialized, as with any mutation.
class IncrementalElmore {
 public:
  /// Builds the cache: one envelope factorization and n solves, O(n^2)
  /// on a routing tree's RCM envelope. Throws std::invalid_argument if g
  /// is not connected.
  IncrementalElmore(const graph::RoutingGraph& g, const spice::Technology& tech);

  /// True when the cache was built against a graph with this structural
  /// signature (node count, edge count, total wirelength).
  [[nodiscard]] bool matches(const graph::RoutingGraph& g) const;

  /// Rebuilds the cache against `g` after a mutation; counts a rebuild.
  void refresh(const graph::RoutingGraph& g);

  /// Per-node Elmore delays of the attached graph + edge (u,v); O(n) on
  /// the delta path. (u,v) must be distinct in-range nodes; querying an
  /// already-present edge is legal (the result reflects a doubled wire).
  [[nodiscard]] std::vector<double> candidate_delays(graph::NodeId u,
                                                     graph::NodeId v) const;

  /// The sinks' entries of candidate_delays, in g.sinks() order and each
  /// multiplied by `scale`, written to `out` (one per sink); O(sinks) on
  /// the delta path.
  void candidate_sink_delays(graph::NodeId u, graph::NodeId v, double scale,
                             std::span<double> out) const;

  /// The same computation via a full assemble-and-solve of the trial
  /// graph, bypassing the cache. Exposed so tests (and the fallback path)
  /// can compare delta against ground truth.
  [[nodiscard]] std::vector<double> candidate_delays_exact(graph::NodeId u,
                                                           graph::NodeId v) const;

  /// Base (no added edge) per-node Elmore delays of the attached graph.
  [[nodiscard]] const std::vector<double>& base_delays() const { return m1_; }
  [[nodiscard]] double base_max_delay() const;

  /// Number of sinks of the attached graph.
  [[nodiscard]] std::size_t sink_count() const { return sink_count_; }

  /// Snapshot of the counters (monotone across refresh()).
  [[nodiscard]] IncrementalElmoreStats stats() const;

  /// Delta updates whose g_e * w^T G^{-1} w exceed this are answered by
  /// the exact path: past ~1e12 the Sherman-Morrison subtraction cancels
  /// most mantissa bits and the 1e-12 agreement contract would be at risk.
  static constexpr double kDeltaConditionLimit = 1e12;

 private:
  /// The Sherman-Morrison update for candidate (u,v): with a = R e_u and
  /// b = R e_v (columns in slot order), entry k of the updated moments is
  /// m1[k] + wa a[k] + wb b[k].
  struct Update {
    const double* a = nullptr;
    const double* b = nullptr;
    double wa = 0.0;
    double wb = 0.0;
  };

  void build(const graph::RoutingGraph& g);
  /// False (and counts a fallback) when the update is too ill-conditioned.
  bool update_for(graph::NodeId u, graph::NodeId v, Update& up) const;

  const graph::RoutingGraph* g_ = nullptr;
  spice::Technology tech_;
  std::size_t sink_count_ = 0;
  std::vector<std::size_t> slot_;      ///< node -> row of R: sinks first
  std::vector<double> transfer_;       ///< R column by column, rows by slot
  std::vector<double> m1_;             ///< base moments R C, by node
  std::vector<double> m1_by_slot_;     ///< the same, by slot
  std::size_t node_count_ = 0;
  std::size_t edge_count_ = 0;
  double wirelength_ = 0.0;

  mutable std::atomic<std::size_t> exact_fallbacks_{0};
  std::size_t rebuilds_ = 0;
};

}  // namespace ntr::delay
