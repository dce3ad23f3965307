#include "delay/incremental_elmore.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "check/contracts.h"
#include "delay/evaluator.h"
#include "delay/moments.h"
#include "geom/point.h"
#include "linalg/sparse_cholesky.h"

namespace ntr::delay {

IncrementalElmore::IncrementalElmore(const graph::RoutingGraph& g,
                                     const spice::Technology& tech)
    : g_(&g), tech_(tech), node_count_(g.node_count()) {
  const std::size_t n = node_count_;
  const GroundedSystem sys = assemble_grounded_system(g, tech_);
  const linalg::EnvelopeCholesky chol(sys.conductance);
  m1_ = std::move(moments(chol, sys.capacitance, 1).front());

  // Rows of R: the sinks first, in g.sinks() order, then the other nodes.
  slot_.assign(n, 0);
  std::size_t next = 0;
  for (graph::NodeId i = 0; i < n; ++i)
    if (g.node(i).kind == graph::NodeKind::kSink) slot_[i] = next++;
  sink_count_ = next;
  for (graph::NodeId i = 0; i < n; ++i)
    if (g.node(i).kind != graph::NodeKind::kSink) slot_[i] = next++;
  m1_by_slot_.resize(n);
  for (graph::NodeId i = 0; i < n; ++i) m1_by_slot_[slot_[i]] = m1_[i];
  y_.resize(n);

  // Explicit transfer resistances: the unit columns of G^{-1} on the
  // factor, a block per pass, in its elimination order, where entry i of
  // a column belongs to node order[i]. This one setup is amortized over the
  // O(n^2) candidate queries of one LDRG round.
  const std::span<const std::size_t> order = chol.order();
  std::vector<std::size_t> row_slot(n);
  for (std::size_t i = 0; i < n; ++i) row_slot[i] = slot_[order[i]];
  transfer_.resize(n * n);
  constexpr std::size_t kWidth = linalg::EnvelopeCholesky::kUnitColumns;
  std::vector<double> block(kWidth * n);
  for (std::size_t k = 0; k < n; k += kWidth) {
    const std::size_t count = std::min(kWidth, n - k);
    chol.solve_unit_columns(k, count, block);
    for (std::size_t j = 0; j < count; ++j) {
      double* column = transfer_.data() + order[k + j] * n;
      for (std::size_t i = 0; i < n; ++i) column[row_slot[i]] = block[kWidth * i + j];
    }
  }
}

// Inline: the row kernel evaluates it once per candidate.
inline bool IncrementalElmore::coefficients(double length, double y_u, double y_v,
                                            double m1_diff, Update& up) const {
  const double g_e = wire_conductance(length, 1.0, tech_);
  const double c_half = tech_.wire_capacitance(length, 1.0) / 2.0;
  up.g_e = g_e;
  // The Sherman-Morrison denominator 1 + g_e * w^T R w is >= 1 for an SPD
  // system, but a degenerate short (g_e ~ 1e6 S) can still push the
  // update into cancellation; those queries take the exact path.
  up.spread = g_e * (y_u - y_v);
  if (!std::isfinite(up.spread) || up.spread > kDeltaConditionLimit) return false;

  //   m1' = R c' - g_e * y * (y . c') / (1 + g_e * (y_u - y_v))
  // with R c' = m1 + c_half * (a + b), and y . c = m1_u - m1_v because R
  // is symmetric, so y . c' costs O(1). Collected on a and b:
  //   m1' = m1 + (c_half - s) a + (c_half + s) b,
  //   s = g_e (y . c') / (1 + spread).
  const double y_dot_cprime = m1_diff + c_half * (y_u + y_v);
  const double s = g_e * y_dot_cprime / (1.0 + up.spread);
  up.wa = c_half - s;
  up.wb = c_half + s;
  return true;
}

bool IncrementalElmore::update_for(graph::NodeId u, graph::NodeId v,
                                   Update& up) const {
  const std::size_t n = node_count_;
  if (u >= n || v >= n || u == v)
    throw std::invalid_argument("candidate_delays: invalid node pair");
  up.a = transfer_.data() + u * n;
  up.b = transfer_.data() + v * n;
  // y = R (e_u - e_v) = a - b.
  const double y_u = up.a[slot_[u]] - up.b[slot_[u]];
  const double y_v = up.a[slot_[v]] - up.b[slot_[v]];
  if (coefficients(geom::manhattan_distance(g_->node(u).pos, g_->node(v).pos), y_u, y_v,
                   m1_[u] - m1_[v], up))
    return true;
  exact_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool IncrementalElmore::add_wire(graph::NodeId u, graph::NodeId v) {
  NTR_DCHECK(g_->has_edge(u, v));
  Update up;
  if (!update_for(u, v, up)) return false;
  const std::size_t n = node_count_;
  // y and m1' both read the old columns u and v, so they go first; m1'
  // by the queries' own expression.
  for (std::size_t k = 0; k < n; ++k) {
    y_[k] = up.a[k] - up.b[k];
    m1_by_slot_[k] = m1_by_slot_[k] + up.wa * up.a[k] + up.wb * up.b[k];
  }
  for (graph::NodeId i = 0; i < n; ++i) m1_[i] = m1_by_slot_[slot_[i]];
  // R' = R - f y y^T, f = g_e / (1 + g_e (y_u - y_v)): column j moves by
  // f y_j times y.
  const double f = up.g_e / (1.0 + up.spread);
  for (graph::NodeId j = 0; j < n; ++j) {
    const double coefficient = f * y_[slot_[j]];
    double* column = transfer_.data() + j * n;
    for (std::size_t k = 0; k < n; ++k) column[k] -= coefficient * y_[k];
  }
  return true;
}

std::vector<double> IncrementalElmore::candidate_delays(graph::NodeId u,
                                                        graph::NodeId v) const {
  Update up;
  if (!update_for(u, v, up)) return candidate_delays_exact(u, v);
  std::vector<double> result(node_count_);
  for (graph::NodeId i = 0; i < node_count_; ++i) {
    const std::size_t k = slot_[i];
    result[i] = m1_by_slot_[k] + up.wa * up.a[k] + up.wb * up.b[k];
  }
  return result;
}

void IncrementalElmore::candidate_sink_delays(graph::NodeId u, graph::NodeId v,
                                              std::span<double> out) const {
  if (out.size() != sink_count_)
    throw std::invalid_argument("candidate_sink_delays: one entry per sink");
  Update up;
  if (!update_for(u, v, up)) return exact_sink_delays(u, v, out);
  const double* m1 = m1_by_slot_.data();
  for (std::size_t k = 0; k < sink_count_; ++k)
    out[k] = m1[k] + up.wa * up.a[k] + up.wb * up.b[k];
}

void IncrementalElmore::row_objectives(graph::NodeId u,
                                       std::span<const graph::NodeId> vs,
                                       std::span<const double> criticality,
                                       double bound, std::span<double> out) const {
  const std::size_t n = node_count_;
  if (!criticality.empty() && criticality.size() != sink_count_)
    throw std::invalid_argument("row_objectives: one weight per sink");
  if (out.size() != vs.size())
    throw std::invalid_argument("row_objectives: one output per partner");
  if (u >= n) throw std::invalid_argument("candidate_delays: invalid node pair");

  // Constant along the row: column u, R(u,u), m1_u and u's position.
  const double* transfer = transfer_.data();
  const std::size_t* slot = slot_.data();
  const std::span<const graph::GraphNode> nodes = g_->nodes();
  const double* a = transfer + u * n;
  const std::size_t su = slot[u];
  const double r_uu = a[su];
  const double m1_u = m1_[u];
  const geom::Point pu = nodes[u].pos;
  const double* m1 = m1_by_slot_.data();

  // A block of candidates at a time: first every coefficient, by
  // update_for's expressions and operands (R(u,v) from column v at u's
  // slot, R(v,u) from column u at v's slot: after add_wire, R is not
  // bitwise symmetric), then each candidate's pass over the sinks.
  constexpr std::size_t kBlock = 64;
  std::array<double, kBlock> wa{};
  std::array<double, kBlock> wb{};
  std::array<bool, kBlock> delta{};
  for (std::size_t first = 0; first < vs.size(); first += kBlock) {
    const std::span<const graph::NodeId> block =
        vs.subspan(first, std::min(kBlock, vs.size() - first));
    for (std::size_t j = 0; j < block.size(); ++j) {
      const graph::NodeId v = block[j];
      if (v >= n || v == u) throw std::invalid_argument("candidate_delays: invalid node pair");
      const double* b = transfer + v * n;
      const std::size_t sv = slot[v];
      Update up;
      delta[j] = coefficients(geom::manhattan_distance(pu, nodes[v].pos), r_uu - b[su],
                              a[sv] - b[sv], m1_u - m1_[v], up);
      wa[j] = up.wa;
      wb[j] = up.wb;
    }
    for (std::size_t j = 0; j < block.size(); ++j) {
      const graph::NodeId v = block[j];
      double& result = out[first + j];
      if (!delta[j]) {
        exact_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        std::vector<double> exact(sink_count_);
        exact_sink_delays(u, v, exact);
        result = sink_objective(exact, criticality);
        continue;
      }
      // Each sink by candidate_sink_delays' expression, so that a value
      // below the bound is bit for bit the objective of its output.
      const double* b = transfer + v * n;
      const double wa_j = wa[j], wb_j = wb[j];
      if (criticality.empty()) {
        double worst = 0.0;
        for (std::size_t k = 0; k < sink_count_; ++k) {
          worst = std::max(worst, m1[k] + wa_j * a[k] + wb_j * b[k]);
          if (worst >= bound) break;
        }
        result = worst;
      } else {
        double sum = 0.0;
        for (std::size_t k = 0; k < sink_count_; ++k) {
          sum += criticality[k] * (m1[k] + wa_j * a[k] + wb_j * b[k]);
          if (sum >= bound) break;
        }
        result = sum;
      }
    }
  }
}

void IncrementalElmore::exact_sink_delays(graph::NodeId u, graph::NodeId v,
                                          std::span<double> out) const {
  const std::vector<double> exact = candidate_delays_exact(u, v);
  for (graph::NodeId i = 0; i < node_count_; ++i)
    if (slot_[i] < sink_count_) out[slot_[i]] = exact[i];
}

std::vector<double> IncrementalElmore::candidate_delays_exact(
    graph::NodeId u, graph::NodeId v) const {
  // The trial system is the attached one plus a wire (u,v); for a pair
  // that is already wired, that is a doubled wire, which RoutingGraph
  // cannot represent (add_edge dedups).
  return std::move(
      moments(assemble_grounded_system(*g_, tech_, ExtraWire{u, v}), 1).front());
}

IncrementalElmoreStats IncrementalElmore::stats() const {
  IncrementalElmoreStats s;
  s.exact_fallbacks = exact_fallbacks_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ntr::delay
