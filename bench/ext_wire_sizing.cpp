// Extension A4 (paper Section 5.2): the Wire-Sized Optimal Routing Graph
// (WSORG). Greedy discrete wire sizing (widths 1..4) applied to the MST,
// and composed with LDRG (the paper's HORG combination, Section 5.3).
// Delay is the transient 50% measurement; "area" is sum(length x width).

#include <cstdio>

#include "bench_common.h"
#include "core/horg.h"
#include "core/ldrg.h"
#include "core/wire_sizing.h"

int main() {
  using namespace ntr;
  const bench::TableConfig config = bench::config_from_env();
  const delay::TransientEvaluator spice_like(config.tech);

  std::printf("Extension A4 -- WSORG greedy wire sizing (widths {1,2,3,4})\n\n");
  std::printf(
      "  size | sized MST delay/area | LDRG-then-size delay/area | joint HORG "
      "delay/area\n");

  for (const std::size_t size : config.net_sizes) {
    expt::NetGenerator gen(config.seed + size);
    const std::size_t trials = std::min<std::size_t>(config.trials, 10);
    double ws_delay = 0.0, ws_area = 0.0, seq_delay = 0.0, seq_area = 0.0,
           joint_delay = 0.0, joint_area = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      const graph::Net net = gen.random_net(size);
      const graph::RoutingGraph mst = graph::mst_routing(net);
      const double base_delay = spice_like.max_delay(mst);
      const double base_area = mst.total_wire_area();

      const core::WireSizingResult sized = core::greedy_wire_sizing(mst, spice_like);
      ws_delay += sized.final_objective / base_delay;
      ws_area += sized.final_area / base_area;

      // Sequential composition: LDRG topology first, then size it.
      const core::LdrgResult ldrg_res = core::ldrg(mst, spice_like);
      const core::WireSizingResult seq =
          core::greedy_wire_sizing(ldrg_res.graph, spice_like);
      seq_delay += seq.final_objective / base_delay;
      seq_area += seq.final_area / base_area;

      // Joint HORG: edges and widths compete per unit area at every step.
      const core::HorgResult joint = core::horg_greedy(mst, spice_like);
      joint_delay += joint.final_objective / base_delay;
      joint_area += joint.final_area / base_area;
    }
    const double n = static_cast<double>(trials);
    std::printf("  %4zu |    %.3f / %.3f     |      %.3f / %.3f        |    %.3f / %.3f\n",
                size, ws_delay / n, ws_area / n, seq_delay / n, seq_area / n,
                joint_delay / n, joint_area / n);
  }

  std::printf(
      "\nBoth knobs trade capacitance against resistance. The joint HORG\n"
      "search (moves compete on improvement-per-area) lands close to the\n"
      "sequential composition's delays, but not at consistently lower area:\n"
      "its area is higher at some sizes and lower at others.\n");
  return 0;
}
