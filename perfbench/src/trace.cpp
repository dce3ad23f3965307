#include "trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "sim/transient.h"
#include "spice/graph_netlist.h"

namespace perfbench {

namespace ndelay = ntr::delay;
namespace ngraph = ntr::graph;

std::int32_t Tracer::open(const char* name, std::uint32_t trace) {
  trace_ = trace;
  const std::int64_t t = now_ns();
  spans_.push_back(Span{name, trace, open_, t, t, 1, 0});
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::close(std::int32_t index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  s.busy_ns = s.end_ns - s.start_ns;
  open_ = s.parent;
}

std::int32_t Tracer::record(const char* name, std::uint32_t trace,
                            std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{name, trace, open_, start_ns, end_ns, 1, end_ns - start_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::accumulate(std::int32_t& index, const char* name, std::int64_t start_ns,
                        std::int64_t end_ns) {
  if (index < 0) {
    index = record(name, trace_, start_ns, end_ns);
    return;
  }
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = end_ns;
  s.busy_ns += end_ns - start_ns;
  ++s.calls;
}

double Tracer::busy_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_)
    if (name == s.name) ns += s.busy_ns;
  return static_cast<double>(ns) / 1e6;
}

double Tracer::self_ms(const std::string& name) const {
  std::vector<std::int64_t> child_busy(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_busy[static_cast<std::size_t>(s.parent)] += s.busy_ns;
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name) ns += spans_[i].busy_ns - child_busy[i];
  return static_cast<double>(ns) / 1e6;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                  "\"calls\":%u,\"busy_us\":%.3f}}\n",
                  i == 0 ? "" : ",", s.name, s.trace,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  s.calls, static_cast<double>(s.busy_ns) / 1e3);
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

/// Forwards the scorer's per-candidate calls and folds their times into
/// one `delay.delta` leaf per round.
class ProbeScorer final : public ndelay::CandidateScorer {
 public:
  ProbeScorer(std::unique_ptr<ndelay::CandidateScorer> inner, Tracer& tracer,
              ProbeCounts& counts)
      : inner_(std::move(inner)), tracer_(tracer), counts_(counts) {}

  [[nodiscard]] std::vector<double> candidate_sink_delays(
      ngraph::NodeId u, ngraph::NodeId v) const override {
    const std::int64_t t0 = tracer_.now_ns();
    std::vector<double> delays = inner_->candidate_sink_delays(u, v);
    tracer_.accumulate(span_, "delay.delta", t0, tracer_.now_ns());
    ++counts_.candidates;
    ++counts_.deltas;
    return delays;
  }

 private:
  std::unique_ptr<ndelay::CandidateScorer> inner_;
  Tracer& tracer_;
  ProbeCounts& counts_;
  mutable std::int32_t span_ = -1;
};

}  // namespace

void ProbeEvaluator::offer(const ngraph::RoutingGraph& g, double give_up_s) const {
  if (sample_ == nullptr) return;
  if (seen_++ % kSampleStride == 0 && sample_->size() < kSampleCap)
    sample_->push_back(SampledGraph{g, give_up_s});
}

std::vector<double> ProbeEvaluator::sink_delays(const ngraph::RoutingGraph& g) const {
  offer(g, std::numeric_limits<double>::infinity());
  const std::int64_t t0 = tracer_.now_ns();
  std::vector<double> delays = inner_.sink_delays(g);
  tracer_.record("delay.measure", tracer_.current_trace(), t0, tracer_.now_ns());
  return delays;
}

std::unique_ptr<ndelay::CandidateScorer> ProbeEvaluator::make_candidate_scorer(
    const ngraph::RoutingGraph& g) const {
  const std::int64_t t0 = tracer_.now_ns();
  std::unique_ptr<ndelay::CandidateScorer> scorer = inner_.make_candidate_scorer(g);
  if (!scorer) return nullptr;  // no delta path: LDRG scans with bounded_max_delay
  tracer_.record("delay.scorer_build", tracer_.current_trace(), t0, tracer_.now_ns());
  ++counts_.scorer_builds;
  return std::make_unique<ProbeScorer>(std::move(scorer), tracer_, counts_);
}

double ProbeEvaluator::bounded_max_delay(const ngraph::RoutingGraph& g,
                                         double give_up_s) const {
  offer(g, give_up_s);
  const std::int64_t t0 = tracer_.now_ns();
  const double t = inner_.bounded_max_delay(g, give_up_s);
  tracer_.record("delay.scan", tracer_.current_trace(), t0, tracer_.now_ns());
  ++counts_.candidates;
  if (std::isinf(t)) ++counts_.pruned;
  return t;
}

void replay_transient(const std::vector<SampledGraph>& sample,
                      const ntr::spice::Technology& tech, Tracer& tracer,
                      RunResult& out) {
  if (sample.empty()) return;
  double netlist_ns = 0.0, setup_ns = 0.0, march_ns = 0.0, steps = 0.0, nodes = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const SampledGraph& s = sample[i];
    // Replays get trace ids of their own, clear of the nets' and requests'.
    const auto trace = static_cast<std::uint32_t>((1u << 30) + i);
    const std::int64_t t0 = tracer.now_ns();
    const ntr::spice::GraphNetlist netlist = ntr::spice::build_netlist(s.graph, tech);
    const std::int64_t t1 = tracer.now_ns();
    std::vector<ntr::spice::CircuitNode> watch;
    watch.reserve(netlist.sink_graph_nodes.size());
    for (const ngraph::NodeId n : netlist.sink_graph_nodes)
      watch.push_back(netlist.graph_to_circuit[n]);
    const std::int64_t t2 = tracer.now_ns();
    ntr::sim::TransientSimulator simulator(netlist.circuit);
    const std::int64_t t3 = tracer.now_ns();
    const auto report =
        simulator.measure_crossings(watch, tech.threshold_fraction, s.give_up_s);
    const std::int64_t t4 = tracer.now_ns();
    tracer.record("spice.build_netlist", trace, t0, t1);
    tracer.record("sim.setup", trace, t2, t3);
    tracer.record("sim.march", trace, t3, t4);

    // The march takes one step per time_step() until the last watched
    // node crosses, the give-up bound is passed, or max_time() is hit.
    const double h = simulator.time_step();
    const double total = std::ceil(simulator.max_time() / h);
    double n = total;
    if (report.all_crossed)
      n = std::max(1.0, std::ceil(report.max_crossing_s / h));
    else if (std::isfinite(s.give_up_s))
      n = std::floor(s.give_up_s / h) + 1.0;
    n = std::min(n, total);

    netlist_ns += static_cast<double>(t1 - t0);
    setup_ns += static_cast<double>(t3 - t2);
    march_ns += static_cast<double>(t4 - t3);
    steps += n;
    nodes += static_cast<double>(netlist.circuit.node_count());
  }
  const double k = static_cast<double>(sample.size());
  out.set("spice.netlist_us", netlist_ns / k / 1e3, "us");
  out.set("sim.setup_us", setup_ns / k / 1e3, "us");
  out.set("sim.march_us", march_ns / k / 1e3, "us");
  out.set("sim.steps", steps / k, "count");
  out.set("sim.ns_per_step", march_ns / steps, "ns");
  out.set("sim.nodes", nodes / k, "count");
}

}  // namespace perfbench
