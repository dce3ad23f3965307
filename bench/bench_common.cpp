#include "bench_common.h"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "expt/protocol.h"
#include "spice/units.h"

namespace ntr::bench {

namespace {

std::vector<std::size_t> parse_sizes(const char* text) {
  std::vector<std::size_t> sizes;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const unsigned long v = std::strtoul(item.c_str(), nullptr, 10);
    if (v >= 2) sizes.push_back(v);
  }
  return sizes;
}

}  // namespace

TableConfig config_from_env() {
  TableConfig config;
  if (const char* trials = std::getenv("NTR_TRIALS")) {
    const unsigned long v = std::strtoul(trials, nullptr, 10);
    if (v > 0) config.trials = v;
  }
  if (const char* sizes = std::getenv("NTR_SIZES")) {
    const std::vector<std::size_t> parsed = parse_sizes(sizes);
    if (!parsed.empty()) config.net_sizes = parsed;
  }
  if (const char* seed = std::getenv("NTR_SEED")) {
    config.seed = std::strtoull(seed, nullptr, 10);
  }
  if (const char* threads = std::getenv("NTR_THREADS")) {
    config.parallel.num_threads =
        static_cast<std::size_t>(std::strtoul(threads, nullptr, 10));
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
