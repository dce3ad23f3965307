#pragma once

// In-memory spans for the traced run, and the decorators that record them
// at the library's public boundaries from outside the library.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "delay/evaluator.h"
#include "graph/routing_graph.h"
#include "spice/technology.h"

namespace perfbench {

/// One timed interval. `trace` groups the spans of one net or request;
/// `parent` indexes the enclosing span (-1 at the root). A leaf that
/// stands for many back-to-back calls (the per-candidate deltas of one
/// LDRG round) has calls > 1, spans first start to last end, and keeps the
/// summed call time in busy_ns.
struct Span {
  const char* name = "";
  std::uint32_t trace = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t calls = 1;
  std::int64_t busy_ns = 0;
};

/// Single-threaded span store: one open span at a time acts as the parent
/// of the spans recorded under it.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }
  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  /// Opens a span that becomes the parent of later spans until closed.
  std::int32_t open(const char* name, std::uint32_t trace);
  void close(std::int32_t index);
  /// Records a finished span under the open one; returns its index.
  std::int32_t record(const char* name, std::uint32_t trace, std::int64_t start_ns,
                      std::int64_t end_ns);
  /// Folds one more call into an aggregate leaf (created when index < 0).
  void accumulate(std::int32_t& index, const char* name, std::int64_t start_ns,
                  std::int64_t end_ns);

  [[nodiscard]] std::uint32_t current_trace() const { return trace_; }

  /// Total busy time (ms) of every span with this name.
  [[nodiscard]] double busy_ms(const std::string& name) const;
  /// Sum over spans named `name` of duration minus the busy time of their
  /// direct children, in ms.
  [[nodiscard]] double self_ms(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint32_t trace_ = 0;
};

/// A transient evaluation the probe saw, kept for the spice/sim replay.
struct SampledGraph {
  ntr::graph::RoutingGraph graph;
  double give_up_s = std::numeric_limits<double>::infinity();
};

/// Counters the probe keeps besides its spans.
struct ProbeCounts {
  std::uint64_t candidates = 0;
  std::uint64_t pruned = 0;
  std::uint64_t scorer_builds = 0;
  std::uint64_t deltas = 0;
};

/// Evaluator decorator passed to core::solve in the traced run. It
/// forwards every virtual to the wrapped evaluator, so the routing work is
/// unchanged, and records a span per call: `delay.measure` (sink_delays),
/// `delay.scan` (bounded_max_delay, one LDRG candidate; +inf = pruned),
/// `delay.scorer_build`, and one aggregate `delay.delta` leaf per round
/// for the scorer's per-candidate calls. Every kSampleStride-th
/// evaluation, up to kSampleCap, is copied out for the spice/sim replay.
/// Not thread-safe: the benchmark solves on one thread.
class ProbeEvaluator final : public ntr::delay::DelayEvaluator {
 public:
  static constexpr std::size_t kSampleStride = 8;
  static constexpr std::size_t kSampleCap = 1024;

  ProbeEvaluator(const ntr::delay::DelayEvaluator& inner, Tracer& tracer,
                 std::vector<SampledGraph>* sample)
      : inner_(inner), tracer_(tracer), sample_(sample) {}

  [[nodiscard]] std::vector<double> sink_delays(
      const ntr::graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::unique_ptr<ntr::delay::CandidateScorer> make_candidate_scorer(
      const ntr::graph::RoutingGraph& g) const override;
  [[nodiscard]] double bounded_max_delay(const ntr::graph::RoutingGraph& g,
                                         double give_up_s) const override;

  [[nodiscard]] const ProbeCounts& counts() const { return counts_; }

 private:
  void offer(const ntr::graph::RoutingGraph& g, double give_up_s) const;

  const ntr::delay::DelayEvaluator& inner_;
  Tracer& tracer_;
  std::vector<SampledGraph>* sample_;
  mutable std::size_t seen_ = 0;
  mutable ProbeCounts counts_;
};

/// Replays spice::build_netlist, sim::TransientSimulator construction and
/// measure_crossings (default options, the technology's threshold, each
/// sample's give-up bound) on `sample`, and sets spice.netlist_us,
/// sim.setup_us, sim.march_us, sim.steps, sim.ns_per_step and sim.nodes as
/// means per simulation. An empty sample leaves them 0.
void replay_transient(const std::vector<SampledGraph>& sample,
                      const ntr::spice::Technology& tech, Tracer& tracer,
                      RunResult& out);

}  // namespace perfbench
