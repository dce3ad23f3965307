// Ablation: solver scaling. The dense Cholesky moment path is cubic; the
// RCM + envelope-Cholesky sparse path grows about linearly on routing
// graphs but pays a fixed cost for its ordering and pattern. This bench
// times one graph-Elmore solve both ways (assembly included, as
// graph_elmore_delays does it) on MSTs from the paper's sizes up to 800
// pins, checks that they agree, and reports the size from which the
// envelope path wins: where kDenseMomentNodeLimit belongs.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "delay/moments.h"
#include "linalg/sparse_cholesky.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Mean microseconds per call of `solve`, repeated for at least 20 ms.
template <typename Solve>
double time_us(const Solve& solve, std::vector<double>& out) {
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed_us = 0.0;
  do {
    out = solve();
    ++calls;
    elapsed_us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  } while (elapsed_us < 20'000.0);
  return elapsed_us / static_cast<double>(calls);
}

}  // namespace

int main() {
  using namespace ntr;
  const bench::TableConfig config = bench::config_from_env();

  std::printf("Ablation -- dense vs sparse (RCM + envelope Cholesky) Elmore solve\n\n");
  std::printf("  pins | dense us | sparse us | speedup | max rel diff\n");

  std::size_t crossover = 0;
  for (const std::size_t pins : {10u, 20u, 30u, 40u, 50u, 100u, 200u, 400u, 800u}) {
    expt::NetGenerator gen(config.seed + pins);
    const graph::Net net = gen.random_net(pins);
    const graph::RoutingGraph g = graph::mst_routing(net);

    std::vector<double> dense_m1, sparse_m1;
    const double dense_us = time_us(
        [&] {
          const delay::GroundedSystem sys =
              delay::assemble_grounded_system(g, config.tech);
          return linalg::CholeskyFactorization(sys.conductance).solve(sys.capacitance);
        },
        dense_m1);
    const double sparse_us = time_us(
        [&] {
          const linalg::EnvelopeCholesky chol(
              delay::grounded_conductance_csr(g, config.tech));
          return chol.solve(delay::grounded_capacitance(g, config.tech));
        },
        sparse_m1);

    double max_rel = 0.0;
    for (std::size_t i = 0; i < dense_m1.size(); ++i)
      max_rel = std::max(max_rel,
                         std::abs(sparse_m1[i] - dense_m1[i]) / dense_m1[i]);
    if (crossover == 0 && sparse_us < dense_us) crossover = pins;
    std::printf("  %4zu | %8.1f | %9.1f | %6.1fx |   %.2e\n", pins, dense_us,
                sparse_us, dense_us / sparse_us, max_rel);
  }

  std::printf(
      "\nThe envelope path first wins at %zu pins in this run.\n"
      "graph_elmore_delays() and the other moment solves switch to it\n"
      "above %zu nodes, so screening-based routing stays interactive on\n"
      "large nets.\n",
      crossover, delay::kDenseMomentNodeLimit);
  return 0;
}
