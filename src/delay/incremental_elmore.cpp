#include "delay/incremental_elmore.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "delay/moments.h"
#include "geom/point.h"
#include "linalg/sparse.h"
#include "linalg/sparse_cholesky.h"

namespace ntr::delay {

IncrementalElmore::IncrementalElmore(const graph::RoutingGraph& g,
                                     const spice::Technology& tech)
    : tech_(tech) {
  build(g);
}

void IncrementalElmore::build(const graph::RoutingGraph& g) {
  const std::size_t n = g.node_count();
  const linalg::EnvelopeCholesky chol(grounded_conductance_csr(g, tech_));
  m1_ = chol.solve(grounded_capacitance(g, tech_));

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

  // Explicit transfer resistances: n in-place solves on the factor, in its
  // elimination order, where entry i of a solve belongs to node order[i].
  // This one setup is amortized over the O(n^2) candidate queries of one
  // LDRG round.
  const std::span<const std::size_t> order = chol.order();
  const auto node_at = [&](std::size_t i) { return order.empty() ? i : order[i]; };
  std::vector<std::size_t> row_slot(n);
  for (std::size_t i = 0; i < n; ++i) row_slot[i] = slot_[node_at(i)];
  transfer_.resize(n * n);
  std::vector<double> x(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::fill(x.begin(), x.end(), 0.0);
    x[k] = 1.0;
    chol.solve_in_place(x);
    double* column = transfer_.data() + node_at(k) * n;
    for (std::size_t i = 0; i < n; ++i) column[row_slot[i]] = x[i];
  }

  g_ = &g;
  node_count_ = n;
  edge_count_ = g.edge_count();
  wirelength_ = g.total_wirelength();
  ++rebuilds_;
}

bool IncrementalElmore::matches(const graph::RoutingGraph& g) const {
  return g_ == &g && node_count_ == g.node_count() &&
         edge_count_ == g.edge_count() && wirelength_ == g.total_wirelength();
}

void IncrementalElmore::refresh(const graph::RoutingGraph& g) { build(g); }

bool IncrementalElmore::update_for(graph::NodeId u, graph::NodeId v,
                                   Update& up) const {
  const std::size_t n = node_count_;
  if (u >= n || v >= n || u == v)
    throw std::invalid_argument("candidate_delays: invalid node pair");

  const double length = geom::manhattan_distance(g_->node(u).pos, g_->node(v).pos);
  const double g_e = wire_conductance(length, 1.0, tech_);
  const double c_half = tech_.wire_capacitance(length, 1.0) / 2.0;
  up.a = transfer_.data() + u * n;
  up.b = transfer_.data() + v * n;

  // y = R (e_u - e_v) = a - b. The Sherman-Morrison denominator
  // 1 + g_e * w^T R w is >= 1 for an SPD system, but a degenerate short
  // (g_e ~ 1e6 S) can still push the update into cancellation; those
  // queries take the exact path.
  const double y_u = up.a[slot_[u]] - up.b[slot_[u]];
  const double y_v = up.a[slot_[v]] - up.b[slot_[v]];
  const double spread = g_e * (y_u - y_v);
  if (!std::isfinite(spread) || spread > kDeltaConditionLimit) {
    exact_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  //   m1' = R c' - g_e * y * (y . c') / (1 + g_e * (y_u - y_v))
  // with R c' = m1 + c_half * (a + b), and y . c = m1_u - m1_v because R
  // is symmetric, so y . c' costs O(1). Collected on a and b:
  //   m1' = m1 + (c_half - s) a + (c_half + s) b,
  //   s = g_e (y . c') / (1 + spread).
  const double y_dot_cprime = (m1_[u] - m1_[v]) + c_half * (y_u + y_v);
  const double s = g_e * y_dot_cprime / (1.0 + spread);
  up.wa = c_half - s;
  up.wb = c_half + s;
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
                                              double scale,
                                              std::span<double> out) const {
  if (out.size() != sink_count_)
    throw std::invalid_argument("candidate_sink_delays: one entry per sink");
  Update up;
  if (!update_for(u, v, up)) {
    const std::vector<double> exact = candidate_delays_exact(u, v);
    for (graph::NodeId i = 0; i < node_count_; ++i)
      if (slot_[i] < sink_count_) out[slot_[i]] = scale * exact[i];
    return;
  }
  const double* m1 = m1_by_slot_.data();
  for (std::size_t k = 0; k < sink_count_; ++k)
    out[k] = scale * (m1[k] + up.wa * up.a[k] + up.wb * up.b[k]);
}

std::vector<double> IncrementalElmore::candidate_delays_exact(
    graph::NodeId u, graph::NodeId v) const {
  const std::size_t n = node_count_;
  if (u >= n || v >= n || u == v)
    throw std::invalid_argument("candidate_delays_exact: invalid node pair");
  // The trial system is the attached one plus a wire (u,v); for a pair
  // that is already wired, that is a doubled wire, which RoutingGraph
  // cannot represent (add_edge dedups).
  const double length = geom::manhattan_distance(g_->node(u).pos, g_->node(v).pos);
  const double g_e = wire_conductance(length, 1.0, tech_);
  const double c_half = tech_.wire_capacitance(length, 1.0) / 2.0;
  linalg::TripletBuilder builder(n, n);
  stamp_grounded_conductance(*g_, tech_, builder);
  builder.add(u, u, g_e);
  builder.add(v, v, g_e);
  builder.add(u, v, -g_e);
  builder.add(v, u, -g_e);
  std::vector<double> cap = grounded_capacitance(*g_, tech_);
  cap[u] += c_half;
  cap[v] += c_half;
  return linalg::EnvelopeCholesky(linalg::CsrMatrix(builder)).solve(cap);
}

double IncrementalElmore::base_max_delay() const {
  double worst = 0.0;
  for (std::size_t k = 0; k < sink_count_; ++k) worst = std::max(worst, m1_by_slot_[k]);
  return worst;
}

IncrementalElmoreStats IncrementalElmore::stats() const {
  IncrementalElmoreStats s;
  s.exact_fallbacks = exact_fallbacks_.load(std::memory_order_relaxed);
  s.rebuilds = rebuilds_;
  return s;
}

}  // namespace ntr::delay
