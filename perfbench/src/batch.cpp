// paper_tables and large_nets: a fixed, seeded corpus of .net texts routed
// one net at a time by core::solve on one thread.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/solver.h"
#include "delay/evaluator.h"
#include "graph/net.h"
#include "graph/routing_graph.h"
#include "io/net_io.h"
#include "route/ert.h"
#include "spice/technology.h"
#include "steiner/iterated_one_steiner.h"
#include "trace.h"

namespace perfbench {

namespace {

using ntr::core::Strategy;
namespace ngraph = ntr::graph;

constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

struct Job {
  Strategy strategy = Strategy::kLdrg;
  std::size_t pins = 0;
  std::size_t max_added_edges = kUnbounded;
  std::string text;
};

/// Nets routed by one strategy, with pin counts spread evenly over
/// [lo, hi]. The multiset of sizes depends only on the corpus length, so a
/// seed changes pin positions and order but not how many nets of each size
/// run, and the per-net latency distribution has no gaps for a quantile to
/// jump across.
struct SizeRange {
  Strategy strategy;
  std::size_t lo, hi;
  /// Nets per block of the corpus.
  std::size_t per_block;
  /// LdrgOptions::max_added_edges.
  std::size_t max_added_edges = kUnbounded;
};

struct WorkloadSpec {
  bool transient = true;
  std::vector<SizeRange> ranges;
  /// Blocks per requested second, measured on a 4-vCPU VM (Release).
  double blocks_per_second = 1.0;
};

/// paper_tables follows the paper's Table 2/3/7 protocol: uniform nets,
/// the transient evaluator, LDRG reported after its second added edge as
/// in Table 2, SLDRG (kept to <= 20 pins) and ERT-LDRG run to convergence
/// as in Tables 3 and 7. large_nets routes 50-200-pin nets with the
/// graph-Elmore evaluator: LDRG from the MST at 100-200 pins
/// (Sherman-Morrison delta scan) and ERT-LDRG at 50-100. Unbounded
/// graph-Elmore LDRG adds 1 to 17 edges per net at these sizes, which
/// would make the run length depend on the seed far more than on the code,
/// so large_nets adds at most three, as a router with a per-net edge budget
/// does. One net in twenty is ERT-LDRG: ERT construction still takes about
/// a quarter of the time, and the latency quantiles fall among the LDRG
/// nets, whose latency grows smoothly with size.
WorkloadSpec spec_for(const std::string& workload) {
  if (workload == "paper_tables") {
    return WorkloadSpec{true,
                        {{Strategy::kLdrg, 5, 30, 2, 2},
                         {Strategy::kErtLdrg, 5, 30, 2},
                         {Strategy::kSldrg, 5, 20, 2}},
                        2.0};
  }
  if (workload == "large_nets") {
    return WorkloadSpec{false,
                        {{Strategy::kLdrg, 100, 200, 19, 3},
                         {Strategy::kErtLdrg, 50, 100, 1, 3}},
                        0.7};
  }
  throw std::invalid_argument("unknown batch workload '" + workload + "'");
}

std::vector<Job> make_jobs(const WorkloadSpec& spec, std::uint64_t seed,
                           std::size_t blocks, std::uint64_t purpose) {
  std::vector<Job> jobs;
  std::size_t index = 0;
  for (const SizeRange& r : spec.ranges) {
    const std::size_t m = r.per_block * blocks;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t pins = r.lo + i * (r.hi - r.lo + 1) / m;
      Rng rng(stream_seed(seed, purpose, index++));
      jobs.push_back(
          Job{r.strategy, pins, r.max_added_edges, random_net_text(rng, pins)});
    }
  }
  Rng order(stream_seed(seed, purpose, 0xFFFFFFFFu));
  shuffle(jobs, order);
  return jobs;
}

/// The workload's set-up: the corpus parsed from its .net text through io,
/// and the evaluator.
struct Setup {
  std::vector<ngraph::Net> nets;
  std::unique_ptr<ntr::delay::DelayEvaluator> evaluator;
};

Setup set_up(const std::vector<Job>& jobs, bool transient,
             const ntr::spice::Technology& tech) {
  Setup s;
  s.nets.reserve(jobs.size());
  for (const Job& job : jobs) s.nets.push_back(ntr::io::read_net(job.text));
  if (transient)
    s.evaluator = std::make_unique<ntr::delay::TransientEvaluator>(tech);
  else
    s.evaluator = std::make_unique<ntr::delay::GraphElmoreEvaluator>(tech);
  return s;
}

/// The tree the strategy starts from, built exactly as core::solve does.
ngraph::RoutingGraph seed_tree(const Job& job, const ngraph::Net& net,
                               const ntr::core::SolverConfig& config, Tracer* tracer,
                               std::uint32_t trace) {
  const std::int64_t t0 = tracer != nullptr ? tracer->now_ns() : 0;
  ngraph::RoutingGraph g;
  const char* span = "graph.mst";
  switch (job.strategy) {
    case Strategy::kSldrg:
      g = ntr::steiner::iterated_one_steiner(net, config.steiner).graph;
      span = "steiner.one_steiner";
      break;
    case Strategy::kErtLdrg:
      g = ntr::route::elmore_routing_tree(net, config.tech).graph;
      span = "route.ert";
      break;
    default:
      g = ngraph::mst_routing(net);
      break;
  }
  if (tracer != nullptr) tracer->record(span, trace, t0, tracer->now_ns());
  return g;
}

/// Connected, and its non-Steiner nodes are exactly the net's pins with
/// the source at node 0.
bool spans_net(const ngraph::RoutingGraph& g, const ngraph::Net& net) {
  if (g.node_count() < net.size() || !g.is_connected()) return false;
  if (g.node(0).kind != ngraph::NodeKind::kSource || !(g.node(0).pos == net.pins[0]))
    return false;
  std::vector<std::pair<double, double>> pins, nodes;
  for (const auto& p : net.pins) pins.emplace_back(p.x, p.y);
  for (const auto& n : g.nodes())
    if (n.kind != ngraph::NodeKind::kSteiner) nodes.emplace_back(n.pos.x, n.pos.y);
  std::sort(pins.begin(), pins.end());
  std::sort(nodes.begin(), nodes.end());
  return pins == nodes;
}

struct Pass {
  std::vector<ntr::core::Solution> solutions;
  std::vector<double> latency_ms;
  double wall_s = 0.0;
};

/// Routes every job in order. With `between`, calls it after every
/// `stride`-th net, off the pass's clock.
Pass route_all(const std::vector<Job>& jobs, const std::vector<ngraph::Net>& nets,
               const ntr::delay::DelayEvaluator& evaluator,
               const ntr::core::SolverConfig& config, Tracer* tracer,
               const std::function<void()>& between = nullptr, std::size_t stride = 1) {
  Pass pass;
  pass.solutions.reserve(jobs.size());
  pass.latency_ms.reserve(jobs.size());
  double wall_ms = 0.0;
  Clock::time_point segment = Clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::int32_t span = -1;
    if (tracer != nullptr)
      span = tracer->open("core.solve", static_cast<std::uint32_t>(i));
    ntr::core::SolverConfig job_config = config;
    job_config.ldrg.max_added_edges = jobs[i].max_added_edges;
    const Clock::time_point t0 = Clock::now();
    pass.solutions.push_back(
        ntr::core::solve(nets[i], jobs[i].strategy, evaluator, job_config));
    pass.latency_ms.push_back(ms_between(t0, Clock::now()));
    if (tracer != nullptr) tracer->close(span);
    if (between && (i + 1) % stride == 0 && i + 1 < jobs.size()) {
      wall_ms += ms_between(segment, Clock::now());
      between();
      segment = Clock::now();
    }
  }
  wall_ms += ms_between(segment, Clock::now());
  pass.wall_s = wall_ms / 1e3;
  return pass;
}

}  // namespace

RunResult run_batch(const Options& options) {
  RunResult result;
  const WorkloadSpec spec = spec_for(options.workload);
  const ntr::spice::Technology tech = ntr::spice::kTable1Technology;
  ntr::core::SolverConfig config;
  config.tech = tech;

  const auto blocks = static_cast<std::size_t>(
      std::max(1.0, std::round(options.seconds * spec.blocks_per_second)));
  const std::vector<Job> jobs = make_jobs(spec, options.seed, blocks, 1);

  // Set-up, about kSetupRepeats times: once before the warm-up, giving the
  // corpus and evaluator the run uses, and then spread evenly over the
  // untimed gaps of the timed pass, so that the median, setup_s, samples
  // the VM's speed over the whole run as the timed metrics do. Back to back,
  // the set-ups would all see the same fraction of a second, and a VM's
  // speed swings by a third from one second to the next.
  constexpr std::size_t kSetupRepeats = 31;
  std::vector<double> setup_s;
  const auto timed_set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    Setup s = set_up(jobs, spec.transient, tech);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    return s;
  };
  const Setup setup = timed_set_up();
  const std::vector<ngraph::Net>& nets = setup.nets;
  const std::unique_ptr<ntr::delay::DelayEvaluator>& evaluator = setup.evaluator;

  // Warm-up on nets outside the corpus, one per strategy at its smallest
  // size: fills caches and the allocator.
  for (const SizeRange& r : spec.ranges) {
    Rng rng(stream_seed(options.seed, 2, r.lo));
    ntr::core::SolverConfig warm_config = config;
    warm_config.ldrg.max_added_edges = r.max_added_edges;
    (void)ntr::core::solve(ntr::io::read_net(random_net_text(rng, r.lo)), r.strategy,
                           *evaluator, warm_config);
  }

  const Pass plain =
      route_all(jobs, nets, *evaluator, config, nullptr, [&] { (void)timed_set_up(); },
                std::max<std::size_t>(1, jobs.size() / (kSetupRepeats - 1)));
  const double peak_rss_mib = self_peak_rss_mib();

  Tracer tracer;
  std::vector<SampledGraph> sample;
  std::unique_ptr<ProbeEvaluator> probe;
  Pass traced;
  if (options.trace) {
    probe = std::make_unique<ProbeEvaluator>(*evaluator, tracer,
                                             spec.transient ? &sample : nullptr);
    traced = route_all(jobs, nets, *probe, config, &tracer);
  }

  // Each net's seed tree, measured under the workload's evaluator; the
  // traced run times each construction.
  struct SeedRef {
    double delay_s = std::numeric_limits<double>::quiet_NaN();
    double cost_um = std::numeric_limits<double>::quiet_NaN();
    std::size_t edges = 0;
  };
  std::vector<SeedRef> seeds(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    try {
      const ngraph::RoutingGraph g = seed_tree(jobs[i], nets[i], config,
                                               options.trace ? &tracer : nullptr,
                                               static_cast<std::uint32_t>(i));
      seeds[i] = SeedRef{evaluator->max_delay(g), g.total_wirelength(), g.edge_count()};
    } catch (const std::exception&) {
      seeds[i] = SeedRef{};  // NaN: the check below fails this net
    }
  }

  // Output checks and quality against the seed trees. LDRG scans once per
  // added edge, plus a last scan that finds no improving edge unless the
  // edge cap stopped it first; the solution is the seed tree plus the
  // added edges.
  std::vector<double> delay_ratio, cost_ratio;
  std::uint64_t rounds = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ++result.attempted;
    const ntr::core::Solution& sol = plain.solutions[i];
    const std::string tag = "net " + std::to_string(i) + " (" +
                            ntr::core::strategy_name(jobs[i].strategy) + ", " +
                            std::to_string(jobs[i].pins) + " pins)";
    if (!spans_net(sol.graph, nets[i])) {
      result.fail(tag + ": routing is not a connected routing of the net's pins");
      continue;
    }
    if (!std::isfinite(sol.delay_s) || !(sol.delay_s <= seeds[i].delay_s)) {
      result.fail(tag + ": routed delay exceeds the seed tree's");
      continue;
    }
    if (options.trace && ntr::io::write_routing(traced.solutions[i].graph) !=
                             ntr::io::write_routing(sol.graph)) {
      result.fail(tag + ": traced run routed differently");
      continue;
    }
    delay_ratio.push_back(sol.delay_s / seeds[i].delay_s);
    cost_ratio.push_back(sol.cost_um / seeds[i].cost_um);
    const std::size_t added = sol.graph.edge_count() - seeds[i].edges;
    rounds += added + (added < jobs[i].max_added_edges ? 1 : 0);
  }

  char note[160];
  std::snprintf(note, sizeof note, "%zu nets in %zu blocks, timed phase %.3f s",
                jobs.size(), blocks, plain.wall_s);
  result.notes.push_back(note);
  for (const SizeRange& r : spec.ranges) {
    std::vector<double> lat;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (jobs[i].strategy == r.strategy) lat.push_back(plain.latency_ms[i]);
    std::snprintf(note, sizeof note, "%s at %zu-%zu pins: %zu nets, %.1f ms, p50 %.2f ms",
                  ntr::core::strategy_name(r.strategy).c_str(), r.lo, r.hi, lat.size(),
                  mean(lat) * static_cast<double>(lat.size()), median(lat));
    result.notes.push_back(note);
  }

  if (!options.trace) {
    result.set("setup_s", median(setup_s), "s");
    result.set("ops_per_s", static_cast<double>(jobs.size()) / plain.wall_s, "1/s");
    result.set("latency_p50_ms", hd_quantile(plain.latency_ms, 0.5), "ms");
    result.set("latency_p90_ms", hd_quantile(plain.latency_ms, 0.9), "ms");
    result.set("delay_ratio", mean(delay_ratio), "ratio");
    result.set("cost_ratio", mean(cost_ratio), "ratio");
    result.set("peak_rss_mb", peak_rss_mib, "MiB");
    return result;
  }

  zero_layer_metrics(result);
  const ProbeCounts& counts = probe->counts();
  const double seed_ms =
      tracer.busy_ms("graph.mst") + tracer.busy_ms("steiner.one_steiner") +
      tracer.busy_ms("route.ert");
  result.set("core.rounds", static_cast<double>(rounds), "count");
  result.set("core.candidates", static_cast<double>(counts.candidates), "count");
  result.set("core.pruned_share",
             counts.candidates == 0 ? 0.0
                                    : static_cast<double>(counts.pruned) /
                                          static_cast<double>(counts.candidates),
             "share");
  result.set("core.self_ms", tracer.self_ms("core.solve") - seed_ms, "ms");
  result.set("delay.scan_ms",
             tracer.busy_ms("delay.scan") + tracer.busy_ms("delay.delta"), "ms");
  result.set("delay.measure_ms", tracer.busy_ms("delay.measure"), "ms");
  result.set("delay.scorer_builds", static_cast<double>(counts.scorer_builds), "count");
  result.set("delay.scorer_build_ms", tracer.busy_ms("delay.scorer_build"), "ms");
  result.set("delay.delta_us",
             counts.deltas == 0 ? 0.0
                                : tracer.busy_ms("delay.delta") * 1e3 /
                                      static_cast<double>(counts.deltas),
             "us");
  replay_transient(sample, tech, tracer, result);
  result.set("steiner.ms", tracer.busy_ms("steiner.one_steiner"), "ms");
  result.set("route.ert_ms", tracer.busy_ms("route.ert"), "ms");
  result.set("graph.mst_ms", tracer.busy_ms("graph.mst"), "ms");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::int64_t t0 = tracer.now_ns();
    (void)ntr::io::read_net(jobs[i].text);
    tracer.record("io.read_net", static_cast<std::uint32_t>(i), t0, tracer.now_ns());
  }
  result.set("io.parse_us",
             tracer.busy_ms("io.read_net") * 1e3 / static_cast<double>(jobs.size()),
             "us");
  result.set("trace.overhead_share", traced.wall_s / plain.wall_s - 1.0, "share");
  if (!options.trace_out.empty() && !tracer.write(options.trace_out))
    result.notes.push_back("could not write " + options.trace_out);
  return result;
}

}  // namespace perfbench
