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
/// update, and add_wire calls declined for the same reason. Every other
/// query is an O(n) Sherman-Morrison answer off the cached transfer
/// resistances.
struct IncrementalElmoreStats {
  std::size_t exact_fallbacks = 0;
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
/// envelope factor G = L D L^T (linalg/sparse_cholesky.h) by blocked
/// unit-column solves, and each of its columns is stored contiguously
/// with the sinks first, in g.sinks() order.
///
/// A candidate wire (u,v) is a rank-1 conductance update
/// G' = G + g_e w w^T (w = e_u - e_v) plus two capacitance entries, so by
/// Sherman-Morrison the updated moments need only columns u and v of R:
/// an O(1) coefficient (y^T C = m1_u - m1_v because R is symmetric) and
/// one contiguous pass over the nodes -- over just the sinks for
/// candidate_sink_delays, and only until the bound for row_objectives,
/// which scores one row of LDRG's pair enumeration per call. When the
/// update is too ill-conditioned for the delta to be trustworthy
/// (degenerate zero-length shorts driving g_e * w^T R w beyond
/// kDeltaConditionLimit), the engine transparently falls back to an exact
/// solve of the trial graph.
///
/// The cache answers for the graph it was attached to, which must
/// outlive it and change only by wires the cache is told of: after the
/// caller adds the absent wire (u,v), add_wire(u, v) moves R and m1 to the
/// new graph by the same rank-1 update, in O(n^2). LDRG keeps one per
/// solve and builds a new one only after an update add_wire declines.
///
/// Thread safety: the queries are const and safe to call from many
/// threads concurrently (the fallback counter is atomic); add_wire is not.
class IncrementalElmore {
 public:
  /// Builds the cache: one envelope factorization and n solves, O(n^2)
  /// on a routing tree's RCM envelope. Throws std::invalid_argument if g
  /// is not connected.
  IncrementalElmore(const graph::RoutingGraph& g, const spice::Technology& tech);

  /// Per-node Elmore delays of the attached graph + edge (u,v); O(n) on
  /// the delta path. (u,v) must be distinct in-range nodes; querying an
  /// already-present edge is legal (the result reflects a doubled wire).
  [[nodiscard]] std::vector<double> candidate_delays(graph::NodeId u,
                                                     graph::NodeId v) const;

  /// The sinks' entries of candidate_delays, in g.sinks() order, written
  /// to `out` (one per sink); O(sinks) on the delta path.
  void candidate_sink_delays(graph::NodeId u, graph::NodeId v,
                             std::span<double> out) const;

  /// CandidateScorer::row_objectives: the bounded objectives of the wires
  /// (u, vs[j]). The row kernel loads what is constant along the row
  /// (column u, R(u,u), m1_u, u's position) once, computes a block of
  /// candidates' Sherman-Morrison coefficients in one pass by the
  /// expressions of candidate_sink_delays, then gives each candidate one
  /// pass over the sinks, each sink by that function's own expression,
  /// that stops as soon as the running max (or, with non-negative
  /// weights, the running sum in g.sinks() order) reaches `bound`. A
  /// one-element row is the single-candidate query. Allocates nothing on
  /// the delta path; a candidate that fails the condition test gets its
  /// exact objective from the exact path, and the rest of its row stays
  /// on the delta path.
  void row_objectives(graph::NodeId u, std::span<const graph::NodeId> vs,
                      std::span<const double> criticality, double bound,
                      std::span<double> out) const;

  /// The same computation via a full assemble-and-solve of the trial
  /// graph, bypassing the cache. Exposed so tests (and the fallback path)
  /// can compare delta against ground truth.
  [[nodiscard]] std::vector<double> candidate_delays_exact(graph::NodeId u,
                                                           graph::NodeId v) const;

  /// Moves the cache to the attached graph after the caller has added the
  /// absent wire (u,v) to it: m1 <- m1 + wa a + wb b, by the coefficients
  /// of the query for (u,v), so the new base delays are what
  /// candidate_delays(u, v) answered, and R <- R - f y y^T with
  /// y = R (e_u - e_v), column by column. O(n^2), allocates nothing.
  /// Returns false, and changes nothing, when the query for (u,v) would
  /// take the exact path; the cache is then stale and must be replaced by
  /// a new one. Not const: call it between scans, on one thread.
  bool add_wire(graph::NodeId u, graph::NodeId v);

  /// Base (no added edge) per-node Elmore delays of the attached graph.
  [[nodiscard]] const std::vector<double>& base_delays() const { return m1_; }

  /// Number of sinks of the attached graph.
  [[nodiscard]] std::size_t sink_count() const { return sink_count_; }

  /// Snapshot of the counters.
  [[nodiscard]] IncrementalElmoreStats stats() const;

  /// Delta updates whose g_e * w^T G^{-1} w exceed this are answered by
  /// the exact path: past ~1e12 the Sherman-Morrison subtraction cancels
  /// most mantissa bits and the 1e-12 agreement contract would be at risk.
  static constexpr double kDeltaConditionLimit = 1e12;

 private:
  /// The Sherman-Morrison update for candidate (u,v): with a = R e_u and
  /// b = R e_v (columns in slot order), entry k of the updated moments is
  /// m1[k] + wa a[k] + wb b[k]. The wire's conductance g_e and
  /// spread = g_e (y_u - y_v), y = a - b, give add_wire R's coefficient.
  struct Update {
    const double* a = nullptr;
    const double* b = nullptr;
    double wa = 0.0;
    double wb = 0.0;
    double g_e = 0.0;
    double spread = 0.0;
  };

  /// False (and counts a fallback) when the update is too ill-conditioned.
  bool update_for(graph::NodeId u, graph::NodeId v, Update& up) const;
  /// The scalar part of the update for a wire of `length` with
  /// y_u = R(u,u) - R(u,v), y_v = R(v,u) - R(v,v) and m1_u - m1_v:
  /// sets up's coefficients, or returns false when the update is too
  /// ill-conditioned. The one place their expressions live.
  bool coefficients(double length, double y_u, double y_v, double m1_diff,
                    Update& up) const;
  /// candidate_sink_delays by the exact path.
  void exact_sink_delays(graph::NodeId u, graph::NodeId v, std::span<double> out) const;

  const graph::RoutingGraph* g_ = nullptr;
  spice::Technology tech_;
  std::size_t sink_count_ = 0;
  std::vector<std::size_t> slot_;      ///< node -> row of R: sinks first
  std::vector<double> transfer_;       ///< R column by column, rows by slot
  std::vector<double> m1_;             ///< base moments R C, by node
  std::vector<double> m1_by_slot_;     ///< the same, by slot
  std::vector<double> y_;              ///< add_wire's R (e_u - e_v), by slot
  std::size_t node_count_ = 0;

  mutable std::atomic<std::size_t> exact_fallbacks_{0};
};

}  // namespace ntr::delay
