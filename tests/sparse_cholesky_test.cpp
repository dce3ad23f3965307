#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <random>

#include "delay/moments.h"
#include "expt/net_generator.h"
#include "graph/routing_graph.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_cholesky.h"

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
  const EnvelopeCholesky reordered(a, /*reorder=*/true);
  const EnvelopeCholesky natural(a, /*reorder=*/false);
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
  // the forward sweep and must equal solving for that right-hand side.
  const std::size_t n = 40;
  const CsrMatrix g = random_laplacian(n, 5);
  const auto envelope = std::make_shared<const Envelope>(g);
  std::vector<double> shifted(g.values().begin(), g.values().end());
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = g.row_ptr()[r]; k < g.row_ptr()[r + 1]; ++k)
      if (g.col_idx()[k] == r) shifted[k] += 3.0;
  const CsrMatrix a = g.with_values(shifted);
  const EnvelopeCholesky shared(envelope, a);
  const EnvelopeCholesky own(a, /*reorder=*/false);
  EXPECT_EQ(shared.stored_entries(), envelope->stored_entries());

  const Vector b = random_vector(n, 8);
  const Vector v = random_vector(n, 9);
  Vector rhs = g.multiply(v);
  for (std::size_t i = 0; i < n; ++i) rhs[i] += b[i];
  const Vector expected = own.solve(rhs);
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

TEST(SparseMoments, SparsePathMatchesDensePath) {
  // A net large enough to trip the sparse dispatch (limit 40 nodes):
  // 400 pins. Compare against the dense path run via the exposed
  // assembly on the same graph.
  expt::NetGenerator gen(31);
  const graph::Net net = gen.random_net(400);
  const graph::RoutingGraph g = graph::mst_routing(net);
  ASSERT_GT(g.node_count(), kDenseMomentNodeLimit);

  const std::vector<double> sparse = graph_elmore_delays(g, spice::kTable1Technology);

  const GroundedSystem sys = assemble_grounded_system(g, spice::kTable1Technology);
  const linalg::CholeskyFactorization dense(sys.conductance);
  const std::vector<double> reference = dense.solve(sys.capacitance);

  ASSERT_EQ(sparse.size(), reference.size());
  for (std::size_t i = 0; i < sparse.size(); ++i)
    EXPECT_NEAR(sparse[i], reference[i], reference[i] * 1e-6 + 1e-18);
}

TEST(SparseMoments, CsrAssemblyMatchesDenseAssembly) {
  expt::NetGenerator gen(33);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(30));
  const spice::Technology tech = spice::kTable1Technology;
  const linalg::CsrMatrix csr = grounded_conductance_csr(g, tech);
  const GroundedSystem sys = assemble_grounded_system(g, tech);
  for (std::size_t r = 0; r < g.node_count(); ++r)
    for (std::size_t c = 0; c < g.node_count(); ++c)
      EXPECT_NEAR(csr.at(r, c), sys.conductance(r, c),
                  std::abs(sys.conductance(r, c)) * 1e-12 + 1e-18);
}

}  // namespace
}  // namespace ntr::delay
