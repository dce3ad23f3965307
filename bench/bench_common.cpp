#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "expt/protocol.h"
#include "io/cli.h"
#include "spice/units.h"

namespace ntr::bench {

TableConfig config_from_env() {
  TableConfig config;
  try {
    if (const char* trials = std::getenv("NTR_TRIALS")) {
      config.trials = io::parse_uint("NTR_TRIALS", trials);
      if (config.trials == 0) throw std::invalid_argument("NTR_TRIALS must be >= 1");
    }
    if (const char* sizes = std::getenv("NTR_SIZES"))
      config.net_sizes = io::parse_sizes("NTR_SIZES", sizes);
    if (const char* seed = std::getenv("NTR_SEED"))
      config.seed = io::parse_uint("NTR_SEED", seed);
    if (const char* threads = std::getenv("NTR_THREADS"))
      config.parallel.num_threads = io::parse_lanes("NTR_THREADS", threads);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(io::kExitUsage);
  }
  return config;
}

std::vector<expt::AggregateRow> run_comparison(const TableConfig& config,
                                               const RoutingFn& baseline,
                                               const RoutingFn& candidate,
                                               const delay::DelayEvaluator& measure) {
  expt::ProtocolConfig protocol;
  protocol.net_sizes = config.net_sizes;
  protocol.trials = config.trials;
  protocol.seed = config.seed;
  return expt::run_protocol(protocol, baseline, candidate, measure);
}

void print_routing(const std::string& label, const graph::RoutingGraph& g,
                   const delay::DelayEvaluator& measure) {
  std::cout << label << ":\n";
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    const graph::GraphNode& node = g.node(n);
    const char* kind = node.kind == graph::NodeKind::kSource  ? "source"
                       : node.kind == graph::NodeKind::kSink  ? "sink"
                                                               : "steiner";
    std::cout << "  node " << n << " (" << node.pos.x << ", " << node.pos.y << ") "
              << kind << "\n";
  }
  std::cout << "  edges:";
  for (const graph::GraphEdge& e : g.edges())
    std::cout << " (" << e.u << "-" << e.v << ")";
  std::cout << "\n  wirelength = " << g.total_wirelength() << " um, max delay = "
            << spice::format_time(measure.max_delay(g)) << "\n";
}

void report(const std::string& title, const std::vector<expt::AggregateRow>& rows) {
  expt::print_paper_table(std::cout, title, rows);
  std::cout << "\nCSV:\n";
  expt::print_csv(std::cout, rows);
  std::cout << std::endl;
}

}  // namespace ntr::bench
