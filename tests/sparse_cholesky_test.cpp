#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "delay/incremental_elmore.h"
#include "delay/moments.h"
#include "expt/net_generator.h"
#include "geom/point.h"
#include "graph/routing_graph.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_cholesky.h"
#include "steiner/iterated_one_steiner.h"

namespace ntr::linalg {
namespace {

/// SPD "circuit-like" matrix: a random connected graph Laplacian plus a
/// grounding term on the diagonal.
CsrMatrix random_laplacian(std::size_t n, unsigned seed, double ground = 1.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> w(0.5, 2.0);
  TripletBuilder tb(n, n);
  // Spanning path for connectivity + random chords.
  const auto add_edge = [&](std::size_t a, std::size_t b) {
    const double g = w(rng);
    tb.add(a, a, g);
    tb.add(b, b, g);
    tb.add(a, b, -g);
    tb.add(b, a, -g);
  };
  for (std::size_t i = 0; i + 1 < n; ++i) add_edge(i, i + 1);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const std::size_t a = rng() % n;
    const std::size_t b = rng() % n;
    if (a != b) add_edge(std::min(a, b), std::max(a, b));
  }
  tb.add(0, 0, ground);
  return CsrMatrix(tb);
}

Vector random_vector(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-3.0, 3.0);
  Vector v(n);
  for (double& x : v) x = d(rng);
  return v;
}

TEST(Rcm, ProducesAValidPermutation) {
  const CsrMatrix a = random_laplacian(50, 3);
  const std::vector<std::size_t> order = reverse_cuthill_mckee(a);
  ASSERT_EQ(order.size(), 50u);
  std::vector<bool> seen(50, false);
  for (const std::size_t v : order) {
    ASSERT_LT(v, 50u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rcm, ReducesBandwidthOfAShuffledPath) {
  // A path graph whose vertices are randomly relabeled has large
  // bandwidth; RCM must bring it back to ~1.
  const std::size_t n = 64;
  std::vector<std::size_t> label(n);
  std::iota(label.begin(), label.end(), std::size_t{0});
  std::shuffle(label.begin(), label.end(), std::mt19937(9));
  TripletBuilder tb(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t a = label[i], b = label[i + 1];
    tb.add(a, a, 2.0);
    tb.add(b, b, 2.0);
    tb.add(a, b, -1.0);
    tb.add(b, a, -1.0);
  }
  tb.add(label[0], label[0], 1.0);
  const CsrMatrix a = CsrMatrix(tb);

  const std::vector<std::size_t> order = reverse_cuthill_mckee(a);
  std::vector<std::size_t> inv(n);
  for (std::size_t i = 0; i < n; ++i) inv[order[i]] = i;
  std::size_t bandwidth = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t u = inv[label[i]], v = inv[label[i + 1]];
    bandwidth = std::max(bandwidth, u > v ? u - v : v - u);
  }
  EXPECT_LE(bandwidth, 2u);
}

class EnvelopeCholeskyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EnvelopeCholeskyTest, MatchesDenseCholesky) {
  const std::size_t n = GetParam();
  const CsrMatrix a = random_laplacian(n, 11 + static_cast<unsigned>(n));
  const Vector b = random_vector(n, 77);

  const EnvelopeCholesky sparse(a);
  const CholeskyFactorization dense(a.to_dense());
  const Vector xs = sparse.solve(b);
  const Vector xd = dense.solve(b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(xs[i], xd[i], std::abs(xd[i]) * 1e-8 + 1e-10);
}

TEST_P(EnvelopeCholeskyTest, ResidualIsTiny) {
  const std::size_t n = GetParam();
  const CsrMatrix a = random_laplacian(n, 23 + static_cast<unsigned>(n));
  const Vector b = random_vector(n, 5);
  const EnvelopeCholesky chol(a);
  const Vector x = chol.solve(b);
  const Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EnvelopeCholeskyTest,
                         ::testing::Values<std::size_t>(5, 20, 60, 150));

TEST(EnvelopeCholesky, ReorderingShrinksTheEnvelope) {
  // On the shuffled path, RCM reordering should store far fewer entries.
  const std::size_t n = 64;
  std::vector<std::size_t> label(n);
  std::iota(label.begin(), label.end(), std::size_t{0});
  std::shuffle(label.begin(), label.end(), std::mt19937(4));
  TripletBuilder tb(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    tb.add(label[i], label[i], 2.0);
    tb.add(label[i + 1], label[i + 1], 2.0);
    tb.add(label[i], label[i + 1], -1.0);
    tb.add(label[i + 1], label[i], -1.0);
  }
  tb.add(label[0], label[0], 1.0);
  const CsrMatrix a = CsrMatrix(tb);
  const EnvelopeCholesky reordered(a);
  const EnvelopeCholesky natural(std::make_shared<const Envelope>(a), a);
  EXPECT_LT(reordered.stored_entries() * 4, natural.stored_entries());
}

TEST(EnvelopeCholesky, MatchesDenseCholeskyOnA1024NodeGrid) {
  // A 32 x 32 resistive mesh, every node leaking to ground: RCM turns it
  // into a band of width ~32, where the envelope solve must still agree
  // with the dense factorization to working precision.
  const std::size_t side = 32;
  const std::size_t n = side * side;
  TripletBuilder tb(n, n);
  const auto add_edge = [&](std::size_t a, std::size_t b, double g) {
    tb.add(a, a, g);
    tb.add(b, b, g);
    tb.add(a, b, -g);
    tb.add(b, a, -g);
  };
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      const std::size_t v = r * side + c;
      if (c + 1 < side) add_edge(v, v + 1, 1.0 + 0.01 * static_cast<double>(v % 7));
      if (r + 1 < side) add_edge(v, v + side, 1.0 + 0.01 * static_cast<double>(v % 5));
      tb.add(v, v, 0.05);
    }
  }
  const CsrMatrix a(tb);
  const Vector b = random_vector(n, 13);
  const Vector xs = EnvelopeCholesky(a).solve(b);
  const Vector xd = CholeskyFactorization(a.to_dense()).solve(b);
  const double scale = norm_inf(xd);
  for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(xs[i], xd[i], 1e-12 * scale) << i;
}

TEST(EnvelopeCholesky, SharedEnvelopeFactorsEveryMatrixOnThePattern) {
  // G and G + sI share G's envelope; the fused solve forms x + M v inside
  // the forward sweep and must equal a dense Cholesky solve of A for that
  // right-hand side.
  const std::size_t n = 40;
  const CsrMatrix g = random_laplacian(n, 5);
  const auto envelope = std::make_shared<const Envelope>(g);
  std::vector<double> shifted(g.values().begin(), g.values().end());
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = g.row_ptr()[r]; k < g.row_ptr()[r + 1]; ++k)
      if (g.col_idx()[k] == r) shifted[k] += 3.0;
  const CsrMatrix a = g.with_values(shifted);
  const EnvelopeCholesky shared(envelope, a);
  EXPECT_EQ(shared.stored_entries(), envelope->stored_entries());

  const Vector b = random_vector(n, 8);
  const Vector v = random_vector(n, 9);
  Vector rhs = g.multiply(v);
  for (std::size_t i = 0; i < n; ++i) rhs[i] += b[i];
  const Vector expected = CholeskyFactorization(a.to_dense()).solve(rhs);
  Vector x = b;
  shared.solve_in_place(x, g, v);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[i], expected[i], std::abs(expected[i]) * 1e-12 + 1e-14) << i;

  // A matrix reaching outside the envelope is refused, not mis-factored.
  TripletBuilder wide(n, n);
  for (std::size_t i = 0; i < n; ++i) wide.add(i, i, 4.0);
  wide.add(0, n - 1, 1.0);
  wide.add(n - 1, 0, 1.0);
  const CsrMatrix far(wide);
  const auto diagonal = std::make_shared<const Envelope>(CsrMatrix([&] {
    TripletBuilder d(n, n);
    for (std::size_t i = 0; i < n; ++i) d.add(i, i, 1.0);
    return d;
  }()));
  EXPECT_THROW(EnvelopeCholesky(diagonal, far), std::invalid_argument);
}

// Every column of the blocked unit solve is solve_in_place of that unit
// vector, bit for bit, and its unused lanes are +0: trees (grounded MST
// conductances) and non-trees (Laplacians with chords), with and without
// RCM, for blocks of zero to four columns at every offset.
TEST(EnvelopeCholesky, UnitColumnsMatchSingleSolvesBitForBit) {
  constexpr std::size_t kLanes = EnvelopeCholesky::kUnitColumns;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 37u, 200u}) {
    std::vector<std::pair<std::string, CsrMatrix>> systems;
    systems.emplace_back("non-tree", random_laplacian(n, 31 + static_cast<unsigned>(n)));
    if (n >= 2) {
      expt::NetGenerator gen(n);
      systems.emplace_back("tree", delay::assemble_grounded_system(
                                       graph::mst_routing(gen.random_net(n)),
                                       spice::kTable1Technology)
                                       .conductance);
    }
    for (const auto& [kind, a] : systems) {
      for (const bool reorder : {false, true}) {
        const EnvelopeCholesky chol =
            reorder ? EnvelopeCholesky(a)
                    : EnvelopeCholesky(std::make_shared<const Envelope>(a), a);
        const std::string context =
            kind + " n " + std::to_string(n) + (reorder ? " RCM" : " natural");
        std::vector<double> want(n * n, 0.0);  // column k at want[k * n]
        for (std::size_t k = 0; k < n; ++k) {
          want[k * n + k] = 1.0;
          chol.solve_in_place(std::span(want).subspan(k * n, n));
        }
        std::vector<double> block(kLanes * n);
        for (std::size_t first = 0; first <= n; ++first) {
          for (std::size_t count = 0; count <= kLanes && first + count <= n; ++count) {
            std::fill(block.begin(), block.end(), -1.0);
            chol.solve_unit_columns(first, count, block);
            for (std::size_t i = 0; i < n; ++i)
              for (std::size_t j = 0; j < kLanes; ++j)
                ASSERT_EQ(bits(block[kLanes * i + j]),
                          j < count ? bits(want[(first + j) * n + i]) : 0u)
                    << context << " first " << first << " count " << count << " row "
                    << i << " lane " << j;
          }
        }
      }
    }
  }
}

TEST(EnvelopeCholesky, UnitColumnsRejectBadShapes) {
  const EnvelopeCholesky chol(random_laplacian(5, 3));
  std::vector<double> x(EnvelopeCholesky::kUnitColumns * 5);
  EXPECT_THROW(chol.solve_unit_columns(3, 3, x), std::invalid_argument);  // past the end
  EXPECT_THROW(chol.solve_unit_columns(6, 0, x), std::invalid_argument);
  EXPECT_THROW(chol.solve_unit_columns(0, 5, x), std::invalid_argument);  // too many
  EXPECT_THROW(chol.solve_unit_columns(0, 4, std::span(x).first(19)), std::invalid_argument);
  EXPECT_NO_THROW(chol.solve_unit_columns(1, 4, x));
  EXPECT_NO_THROW(chol.solve_unit_columns(5, 0, x));
}

TEST(Sparse, AdoptedPatternIsValidated) {
  const CsrMatrix m(3, {0, 2, 3, 4}, {0, 2, 1, 2}, {1.0, 0.0, 2.0, 3.0});
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.at(0, 2), 0.0);  // an explicit zero stays in the pattern
  EXPECT_EQ(m.multiply(Vector{1.0, 1.0, 1.0}), (Vector{1.0, 2.0, 3.0}));
  EXPECT_THROW(CsrMatrix(3, {0, 2, 1, 4}, {0, 2, 1, 2}, {1, 1, 1, 1}),
               std::invalid_argument);  // row_ptr decreases
  EXPECT_THROW(CsrMatrix(3, {0, 2, 3, 4}, {2, 0, 1, 2}, {1, 1, 1, 1}),
               std::invalid_argument);  // columns out of order
  EXPECT_THROW(CsrMatrix(3, {0, 2, 3, 4}, {0, 3, 1, 2}, {1, 1, 1, 1}),
               std::invalid_argument);  // column out of range
  EXPECT_THROW((void)m.with_values({1.0}), std::invalid_argument);
}

TEST(EnvelopeCholesky, RejectsIndefinite) {
  TripletBuilder tb(2, 2);
  tb.add(0, 0, 1.0);
  tb.add(0, 1, 2.0);
  tb.add(1, 0, 2.0);
  tb.add(1, 1, 1.0);
  EXPECT_THROW(EnvelopeCholesky{CsrMatrix(tb)}, std::runtime_error);
}

}  // namespace
}  // namespace ntr::linalg

namespace ntr::delay {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

/// m_1 .. m_3 of sys by a dense Cholesky of its to_dense() conductance.
std::vector<std::vector<double>> dense_moments(const GroundedSystem& sys) {
  const linalg::CholeskyFactorization chol(sys.conductance.to_dense());
  std::vector<std::vector<double>> m{chol.solve(sys.capacitance)};
  while (m.size() < 3) {
    std::vector<double> rhs(sys.capacitance.size());
    for (std::size_t i = 0; i < rhs.size(); ++i)
      rhs[i] = sys.capacitance[i] * m.back()[i];
    m.push_back(chol.solve(rhs));
  }
  return m;
}

/// Every entry of got within `tol` of want's largest magnitude.
void expect_close(const std::vector<double>& got, const std::vector<double>& want,
                  double tol, const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  double scale = 0.0;
  for (const double x : want) scale = std::max(scale, std::abs(x));
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], tol * scale) << context << " node " << i;
}

/// The routing plus `extra` absent pairs, each wired with a unit wire.
graph::RoutingGraph with_chords(graph::RoutingGraph g, std::size_t extra, unsigned seed) {
  std::mt19937 rng(seed);
  for (std::size_t added = 0; added < extra;) {
    const auto u = static_cast<graph::NodeId>(rng() % g.node_count());
    const auto v = static_cast<graph::NodeId>(rng() % g.node_count());
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(u, v);
    ++added;
  }
  return g;
}

// The one moment engine (the builder's CSR system on its envelope factor)
// against a dense Cholesky of the same system, on trees and non-trees of 5
// to 40 nodes and on nets of 120 and 400 pins:
// m1, m2 and m3 to 1e-12 of the largest entry, or 1e-11 on Steiner trees,
// whose micron-length edges make the system ill-conditioned. The public
// entry points return the engine's moments bit for bit. IncrementalElmore's
// exact path on an already-wired pair stamps a second wire in parallel
// with the first: the same system as that wire at double width.
TEST(SparseMoments, SparsePathMatchesDensePath) {
  std::vector<std::tuple<std::string, graph::RoutingGraph, double>> cases;
  for (const std::size_t pins : {5u, 10u, 20u, 30u, 40u, 120u, 400u}) {
    expt::NetGenerator gen(40 + pins);
    const graph::Net net = gen.random_net(pins);
    const graph::RoutingGraph mst = graph::mst_routing(net);
    cases.emplace_back("MST", mst, 1e-12);
    cases.emplace_back("MST + 3 wires",
                       with_chords(mst, 3, static_cast<unsigned>(pins)), 1e-12);
    if (pins <= 20)
      cases.emplace_back("Steiner", steiner::iterated_one_steiner(net).graph, 1e-11);
  }
  bool above_40 = false;
  for (const auto& [kind, g, tol] : cases) {
    const std::string context = kind + " n " + std::to_string(g.node_count());
    above_40 |= g.node_count() > 40;
    const GroundedSystem sys = assemble_grounded_system(g, kTech);
    const std::vector<std::vector<double>> got = moments(sys, 3);
    const std::vector<std::vector<double>> want = dense_moments(sys);
    ASSERT_EQ(got.size(), 3u) << context;
    for (std::size_t k = 0; k < 3; ++k)
      expect_close(got[k], want[k], tol, context + " m" + std::to_string(k + 1));
    EXPECT_EQ(graph_elmore_delays(g, kTech), got[0]) << context;
    const MomentAnalysis analysis = moment_analysis(g, kTech);
    EXPECT_EQ(analysis.m1, got[0]) << context;
    EXPECT_EQ(analysis.m2, got[1]) << context;
  }
  EXPECT_TRUE(above_40);

  expt::NetGenerator gen(47);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(20));
  const IncrementalElmore engine(g, kTech);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const graph::GraphEdge& wire = g.edge(e);
    graph::RoutingGraph wide = g;
    wide.set_edge_width(e, 2.0);
    expect_close(engine.candidate_delays_exact(wire.u, wire.v),
                 dense_moments(assemble_grounded_system(wide, kTech))[0], 1e-12,
                 "edge " + std::to_string(e));
  }
}

/// G and C stamped densely from a list of wires, written out from the
/// wire model: G sums g_w (e_u - e_v)(e_u - e_v)^T over the wires and
/// grounds the source through the driver; C takes half of each wire's
/// capacitance at either end, then the sink loads, then `last`'s halves.
std::pair<linalg::DenseMatrix, std::vector<double>> dense_stamping(
    const graph::RoutingGraph& g, std::optional<graph::GraphEdge> last = std::nullopt) {
  const std::size_t n = g.node_count();
  linalg::DenseMatrix conductance(n, n);
  std::vector<double> capacitance(n, 0.0);
  const auto stamp = [&](const graph::GraphEdge& w) {
    const double gw = wire_conductance(w.length, w.width, kTech);
    conductance(w.u, w.u) += gw;
    conductance(w.v, w.v) += gw;
    conductance(w.u, w.v) -= gw;
    conductance(w.v, w.u) -= gw;
    capacitance[w.u] += kTech.wire_capacitance(w.length, w.width) / 2.0;
    capacitance[w.v] += kTech.wire_capacitance(w.length, w.width) / 2.0;
  };
  for (const graph::GraphEdge& w : g.edges()) stamp(w);
  conductance(g.source(), g.source()) += 1.0 / kTech.driver_resistance_ohm;
  for (graph::NodeId u = 0; u < n; ++u)
    if (g.node(u).kind == graph::NodeKind::kSink) capacitance[u] += kTech.sink_capacitance_f;
  if (last) stamp(*last);
  return {std::move(conductance), std::move(capacitance)};
}

// The one builder's CSR G against the dense stamping above, entry by entry
// to 1e-12 relative (CSR assembly may sum a node's stamps in another
// order), and its C bit for bit (the same sums in the same order): on a
// non-tree, with an extra wire on an absent pair, and with one doubling an
// already-wired pair.
TEST(SparseMoments, CsrAssemblyMatchesDenseAssembly) {
  expt::NetGenerator gen(33);
  const graph::RoutingGraph g = with_chords(graph::mst_routing(gen.random_net(30)), 3, 33);
  graph::NodeId absent_v = 1;
  while (g.has_edge(0, absent_v)) ++absent_v;
  const graph::GraphEdge& wired = g.edge(0);
  const auto unit_wire = [&](graph::NodeId u, graph::NodeId v) {
    return graph::GraphEdge{u, v, geom::manhattan_distance(g.node(u).pos, g.node(v).pos), 1.0};
  };
  const std::vector<std::tuple<std::string, std::optional<ExtraWire>,
                               std::optional<graph::GraphEdge>>>
      cases{{"no extra wire", std::nullopt, std::nullopt},
            {"absent pair", ExtraWire{0, absent_v}, unit_wire(0, absent_v)},
            {"wired pair", ExtraWire{wired.u, wired.v}, unit_wire(wired.u, wired.v)}};
  for (const auto& [context, extra, last] : cases) {
    const GroundedSystem sys = assemble_grounded_system(g, kTech, extra);
    const auto [conductance, capacitance] = dense_stamping(g, last);
    for (std::size_t r = 0; r < g.node_count(); ++r)
      for (std::size_t c = 0; c < g.node_count(); ++c)
        EXPECT_NEAR(sys.conductance.at(r, c), conductance(r, c),
                    std::abs(conductance(r, c)) * 1e-12 + 1e-18)
            << context << " (" << r << ", " << c << ")";
    EXPECT_EQ(sys.capacitance, capacitance) << context;
  }

  const GroundedSystem base = assemble_grounded_system(g, kTech);
  const GroundedSystem doubled =
      assemble_grounded_system(g, kTech, ExtraWire{wired.u, wired.v});
  EXPECT_EQ(doubled.conductance.at(wired.u, wired.v),
            2.0 * base.conductance.at(wired.u, wired.v));
  EXPECT_THROW((void)assemble_grounded_system(g, kTech, ExtraWire{3, 3}),
               std::invalid_argument);
  EXPECT_THROW((void)assemble_grounded_system(g, kTech, ExtraWire{0, g.node_count()}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ntr::delay
