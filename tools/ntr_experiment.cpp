// ntr_experiment: run the paper's experimental protocol from the command
// line -- any baseline vs any candidate strategy, any sizes/trials/seed,
// measured by the transient (SPICE-substitute) engine.
//
//   $ ntr_experiment --candidate ldrg                      # Table 2 shape
//   $ ntr_experiment --baseline ert --candidate ert-ldrg   # Table 7 shape
//   $ ntr_experiment --candidate h3 --sizes 10,20 --trials 25 --csv out.csv

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/resilience.h"
#include "core/solver.h"
#include "delay/evaluator.h"
#include "expt/protocol.h"
#include "io/cli.h"
#include "runtime/status.h"
#include "runtime/stop.h"

namespace {

using namespace ntr;

struct Options {
  std::string baseline = "mst";
  std::string candidate = "ldrg";
  std::vector<std::size_t> sizes{5, 10, 20, 30};
  std::size_t trials = 50;
  std::uint64_t seed = 19940101;
  std::string csv_path;
  double deadline_ms = 0.0;
  core::OnError on_error = core::OnError::kFail;
  std::string report_json_path;
  bool help = false;
};

const char* kUsage =
    R"(ntr_experiment -- run the paper's table protocol with any strategy pair

  --baseline NAME    routing normalized against (default mst)
  --candidate NAME   routing under test (default ldrg)
                     names: mst|star|steiner|ert|sert|ldrg|sldrg|ert-ldrg|h1|h2|h3
  --sizes LIST       comma-separated net sizes (default 5,10,20,30)
  --trials N         nets per size (default 50)
  --seed S           RNG seed (default 19940101)
  --csv FILE         also write the aggregate rows as CSV
  --deadline-ms MS   wall-clock budget per solve (0 = unbounded)
  --on-error POLICY  fail|degrade|skip (default fail): per-net failures
                     abort the run, walk the Elmore/seed-tree ladder, or
                     fall back to the seed tree silently
  --report-json FILE write the per-solve outcome report as JSON
  --help

exit codes: 0 success, 1 internal error, 2 usage error, 3 input error,
            4 numerical failure or deadline/cancellation
)";

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " expects a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      o.help = true;
    } else if (arg == "--baseline") {
      o.baseline = next();
    } else if (arg == "--candidate") {
      o.candidate = next();
    } else if (arg == "--trials") {
      o.trials = io::parse_uint(arg, next());
      if (o.trials == 0) throw std::invalid_argument("--trials must be positive");
    } else if (arg == "--seed") {
      o.seed = io::parse_uint(arg, next());
    } else if (arg == "--csv") {
      o.csv_path = next();
    } else if (arg == "--deadline-ms") {
      o.deadline_ms = io::parse_double(arg, next());
      if (o.deadline_ms < 0.0)
        throw std::invalid_argument("--deadline-ms expects a non-negative value");
    } else if (arg == "--on-error") {
      const std::string name = next();
      const std::optional<core::OnError> policy = core::on_error_from_name(name);
      if (!policy)
        throw std::invalid_argument("unknown --on-error '" + name +
                                    "' (try fail|degrade|skip)");
      o.on_error = *policy;
    } else if (arg == "--report-json") {
      o.report_json_path = next();
    } else if (arg == "--sizes") {
      o.sizes = io::parse_sizes(arg, next());
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntr_experiment: %s\n", e.what());
    return io::kExitUsage;
  }
  if (options.help) {
    std::fputs(kUsage, stdout);
    return io::kExitOk;
  }

  try {
    const spice::Technology tech = spice::kTable1Technology;

    runtime::StopToken stop;
    if (options.deadline_ms > 0.0)
      stop.deadline = runtime::Deadline::after_ms(options.deadline_ms);
    sim::TransientOptions transient;
    transient.stop = stop;
    const delay::TransientEvaluator measure(tech, spice::NetlistOptions{},
                                            transient);

    // Every solve of the batch lands one outcome record here (the
    // protocol is serial, so plain push_back is safe).
    std::vector<core::NetOutcome> outcomes;

    const auto router = [&](const std::string& name) -> expt::RoutingFn {
      const core::Strategy strategy = io::strategy_from_name(name);
      return [&measure, &options, &outcomes, &stop, strategy,
              tech, name](const graph::Net& net) {
        core::SolverConfig config;
        config.tech = tech;
        if (options.on_error == core::OnError::kFail && !stop.engaged())
          return core::solve(net, strategy, measure, config).graph;

        core::ResilienceOptions resilience;
        resilience.on_error = options.on_error;
        resilience.stop = stop;
        core::GuardedSolution guarded =
            core::solve_resilient(net, strategy, measure, config, resilience);
        guarded.outcome.net_index = outcomes.size();
        guarded.outcome.net_name = name;
        outcomes.push_back(guarded.outcome);
        if (guarded.solution) return std::move(guarded.solution->graph);
        if (options.on_error == core::OnError::kFail)
          throw runtime::NtrError(guarded.outcome.status.code(),
                                  guarded.outcome.status.message());
        // The protocol needs *a* routing per trial to keep its aggregates
        // aligned; a quarantined net contributes its seed MST.
        return graph::mst_routing(net);
      };
    };

    expt::ProtocolConfig protocol;
    protocol.net_sizes = options.sizes;
    protocol.trials = options.trials;
    protocol.seed = options.seed;

    const std::vector<expt::AggregateRow> rows = expt::run_protocol(
        protocol, router(options.baseline), router(options.candidate), measure);

    expt::print_paper_table(
        std::cout,
        options.candidate + " (normalized to " + options.baseline + ", " +
            std::to_string(options.trials) + " nets/size, seed " +
            std::to_string(options.seed) + ")",
        rows);
    if (!options.csv_path.empty()) {
      std::ofstream csv(options.csv_path);
      expt::print_csv(csv, rows);
      std::printf("\nwrote %s\n", options.csv_path.c_str());
    }

    std::size_t degraded = 0;
    std::size_t quarantined = 0;
    for (const core::NetOutcome& o : outcomes) {
      degraded += o.disposition == core::NetDisposition::kDegraded;
      quarantined += o.disposition == core::NetDisposition::kQuarantined;
    }
    if (degraded + quarantined > 0)
      std::printf("\nresilience: %zu solve%s degraded, %zu quarantined "
                  "(of %zu)\n",
                  degraded, degraded == 1 ? "" : "s", quarantined,
                  outcomes.size());
    if (!options.report_json_path.empty()) {
      std::ofstream report(options.report_json_path);
      report << core::outcomes_to_json(outcomes) << "\n";
      std::printf("wrote %s\n", options.report_json_path.c_str());
    }
  } catch (const std::exception& e) {
    const runtime::Status status = runtime::exception_to_status(e);
    std::fprintf(stderr, "ntr_experiment: %s\n", status.to_string().c_str());
    return io::exit_code_for(status);
  }
  return io::kExitOk;
}
