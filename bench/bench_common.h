#pragma once

// Shared driver for the paper-table reproduction binaries in bench/.
//
// Every table in the paper has the same shape: for each net size in
// {5,10,20,30}, run 50 random nets, route each net with a baseline
// construction and with the method under test, measure both with SPICE
// (here: the in-repo transient engine), and report delay/cost ratios over
// all cases and over the winners only. This header factors that loop out.
//
// Environment overrides (for quick runs / CI):
//   NTR_TRIALS  - trials per net size (default 50, the paper's count)
//   NTR_SIZES   - comma-separated net sizes of at least 2 pins
//                 (default "5,10,20,30")
//   NTR_SEED    - RNG seed (default 19940101)
//   NTR_THREADS - candidate-evaluation threads (0 = all cores, default 1,
//                 at most io::kMaxLanes); routing output is bit-identical
//                 for every value
// Each is read exactly (io/cli.h); a malformed or out-of-range value
// exits 2 with a message naming the variable.
//
// These binaries print answers, not timings. The library's speed is
// measured by perfbench (perfbench/run.py; see docs/performance.md).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "delay/evaluator.h"
#include "expt/comparison.h"
#include "expt/net_generator.h"
#include "graph/net.h"
#include "graph/routing_graph.h"
#include "spice/technology.h"

namespace ntr::bench {

struct TableConfig {
  std::vector<std::size_t> net_sizes{5, 10, 20, 30};
  std::size_t trials = expt::kPaperTrialCount;
  std::uint64_t seed = 19940101;
  spice::Technology tech{};
  /// Candidate-evaluation lanes for LDRG-family phases (NTR_THREADS).
  core::ParallelConfig parallel{};
};

/// Applies the NTR_* environment overrides to the defaults; exits 2 on a
/// bad value.
TableConfig config_from_env();

using RoutingFn = std::function<graph::RoutingGraph(const graph::Net&)>;

/// Runs the paper's experimental protocol: per size, `trials` random nets;
/// route with `baseline` and `candidate`; measure max source-sink delay of
/// both with `measure`; aggregate ratios. Nets are generated from
/// config.seed, so every bench binary sees the same instances.
std::vector<expt::AggregateRow> run_comparison(const TableConfig& config,
                                               const RoutingFn& baseline,
                                               const RoutingFn& candidate,
                                               const delay::DelayEvaluator& measure);

/// Prints the table in the paper's layout plus a CSV copy underneath.
void report(const std::string& title, const std::vector<expt::AggregateRow>& rows);

/// Dumps one routing: node coordinates, edge list, total wirelength, and
/// the max source-sink delay under `measure`. Used by the figure benches,
/// which present concrete example nets rather than aggregate tables.
void print_routing(const std::string& label, const graph::RoutingGraph& g,
                   const delay::DelayEvaluator& measure);

}  // namespace ntr::bench
