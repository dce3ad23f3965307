// The transient stepper against an exact reference. After the Norton
// elimination of the ideal step, an RC net is C v' + G v = b with diagonal
// C > 0 and SPD G, so with S = C^{-1/2} G C^{-1/2} = Q diag(lambda) Q^T
// every node's step response has the closed form
//
//   v(t) = v_inf - C^{-1/2} Q exp(-lambda t) Q^T C^{1/2} v_inf,
//
// which bisection inverts for each sink's exact 50% time. A small cyclic
// Jacobi solver diagonalizes S; the nets stay at the paper's sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "delay/elmore.h"
#include "delay/moments.h"
#include "expt/net_generator.h"
#include "graph/routing_graph.h"
#include "linalg/dense_matrix.h"
#include "sim/transient.h"
#include "spice/graph_netlist.h"
#include "spice/technology.h"

namespace ntr {
namespace {

/// Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations:
/// on return `a` is (numerically) diagonal and holds the eigenvalues, and
/// column k of `v` is the eigenvector of a(k, k).
void jacobi_eigen(linalg::DenseMatrix& a, linalg::DenseMatrix& v) {
  const std::size_t n = a.rows();
  v = linalg::DenseMatrix::identity(n);
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0;
    double diag = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      diag += a(p, p) * a(p, p);
      for (std::size_t q = p + 1; q < n; ++q) off += a(p, q) * a(p, q);
    }
    if (off <= 1e-36 * diag) return;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        if (a(p, q) == 0.0) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * a(p, q));
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {  // columns p, q
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {  // rows p, q
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  FAIL() << "Jacobi did not converge";
}

/// Closed-form step response of the Norton-reduced RC net of `g`:
/// v_i(t) = v_inf_i - sum_k amp(i, k) exp(-lambda_k t).
class ModalResponse {
 public:
  ModalResponse(const graph::RoutingGraph& g, const spice::Technology& tech) {
    const delay::GroundedSystem sys = delay::assemble_grounded_system(g, tech);
    const linalg::DenseMatrix conductance = sys.conductance.to_dense();
    const std::size_t n = sys.capacitance.size();
    linalg::Vector b(n, 0.0);
    b[g.source()] = tech.vdd_v / tech.driver_resistance_ohm;
    v_inf_ = linalg::CholeskyFactorization(conductance).solve(b);

    linalg::DenseMatrix s(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GT(sys.capacitance[i], 0.0) << "node " << i;
      for (std::size_t j = 0; j < n; ++j)
        s(i, j) = conductance(i, j) /
                  std::sqrt(sys.capacitance[i] * sys.capacitance[j]);
    }
    linalg::DenseMatrix q;
    jacobi_eigen(s, q);
    lambda_.resize(n);
    for (std::size_t k = 0; k < n; ++k) lambda_[k] = s(k, k);
    // w = Q^T C^{1/2} v_inf, amp(i, k) = C_i^{-1/2} Q(i, k) w_k.
    amp_ = linalg::DenseMatrix(n, n);
    for (std::size_t k = 0; k < n; ++k) {
      double w = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        w += q(i, k) * std::sqrt(sys.capacitance[i]) * v_inf_[i];
      for (std::size_t i = 0; i < n; ++i)
        amp_(i, k) = q(i, k) * w / std::sqrt(sys.capacitance[i]);
    }
  }

  [[nodiscard]] double voltage(std::size_t i, double t) const {
    double v = v_inf_[i];
    for (std::size_t k = 0; k < lambda_.size(); ++k)
      v -= amp_(i, k) * std::exp(-lambda_[k] * t);
    return v;
  }

  /// First time node i reaches `fraction` of its final value (RC-tree step
  /// responses rise monotonically, so bisection finds it).
  [[nodiscard]] double crossing(std::size_t i, double fraction) const {
    const double target = fraction * v_inf_[i];
    double lo = 0.0;
    double hi = 1e-12;
    while (voltage(i, hi) < target) hi *= 2.0;
    for (int it = 0; it < 200 && hi - lo > 1e-12 * hi; ++it) {
      const double mid = 0.5 * (lo + hi);
      (voltage(i, mid) < target ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  }

 private:
  linalg::Vector v_inf_;
  linalg::Vector lambda_;
  linalg::DenseMatrix amp_;
};

TEST(TransientReference, StepperMatchesModalSolutionOnMsts) {
  const spice::Technology tech = spice::kTable1Technology;
  std::size_t sinks = 0;
  double worst_step_error = 0.0;  // |stepper - exact| / h, over sinks
  double worst_max_delay = 0.0;   // |t(G) - exact t(G)| / exact t(G)
  double worst_elmore = 0.0;      // stepper delay / tree Elmore delay
  for (std::size_t pins = 3; pins <= 30; ++pins) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const graph::RoutingGraph g =
          graph::mst_routing(expt::NetGenerator(1000 * pins + seed).random_net(pins));
      const ModalResponse exact(g, tech);
      const std::vector<double> elmore = delay::elmore_node_delays(g, tech);
      const spice::GraphNetlist netlist = spice::build_netlist(g, tech);
      std::vector<spice::CircuitNode> watch;
      for (const graph::NodeId n : netlist.sink_graph_nodes)
        watch.push_back(netlist.graph_to_circuit[n]);
      sim::TransientSimulator stepper(netlist.circuit);
      const auto report = stepper.measure_crossings(watch, 0.5);
      ASSERT_TRUE(report.all_crossed) << pins << " pins, seed " << seed;
      const double h = stepper.time_step();

      double exact_max = 0.0;
      for (std::size_t k = 0; k < watch.size(); ++k) {
        const graph::NodeId node = netlist.sink_graph_nodes[k];
        const double t_exact = exact.crossing(node, 0.5);
        exact_max = std::max(exact_max, t_exact);
        const double step_error = std::abs(report.crossing_s[k] - t_exact) / h;
        EXPECT_LE(step_error, 0.5) << pins << " pins, seed " << seed << ", sink " << node;
        EXPECT_LE(report.crossing_s[k], elmore[node])
            << pins << " pins, seed " << seed << ", sink " << node;
        worst_step_error = std::max(worst_step_error, step_error);
        worst_elmore = std::max(worst_elmore, report.crossing_s[k] / elmore[node]);
        ++sinks;
      }
      const double max_error = std::abs(report.max_crossing_s - exact_max) / exact_max;
      EXPECT_LE(max_error, 1e-4) << pins << " pins, seed " << seed;
      worst_max_delay = std::max(worst_max_delay, max_error);
    }
  }
  std::printf(
      "modal reference: %zu sinks; max |stepper - exact| %.3f h; max t(G) error "
      "%.2e; max stepper / Elmore %.3f\n",
      sinks, worst_step_error, worst_max_delay, worst_elmore);
}

}  // namespace
}  // namespace ntr
