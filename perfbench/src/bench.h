#pragma once

// Shared pieces of the perfbench harness: options, the benchmark's own
// seeded input generator, statistics, and the result record main() prints.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the fixed amount of work (corpus size, request count); the run
  /// never stops on a clock.
  double seconds = 10.0;
  bool trace = false;
  /// Path of the ntr_serve binary (serve_mix only).
  std::string serve_bin;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// SplitMix64. The benchmark draws every input from its own generator so
/// that a library change can never change what is measured.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::size_t between(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream for (seed, purpose, index).
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose,
                                        std::uint64_t index);

/// A net in io::read_net text form: `pins` distinct pins drawn uniformly
/// over the paper's 10 mm layout square, on a 1 nm grid; the first pin is
/// the source.
[[nodiscard]] std::string random_net_text(Rng& rng, std::size_t pins);

/// Shuffles `v` with the benchmark's generator (Fisher-Yates).
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.between(0, i - 1)]);
}

[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double median(std::vector<double> v);
/// Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
/// order statistics, steadier than any single one at these sample sizes.
[[nodiscard]] double hd_quantile(std::vector<double> v, double q);

/// Peak resident set of this process, MiB.
[[nodiscard]] double self_peak_rss_mib();

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced run.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable context, printed to stderr.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one failed operation and keeps its reason.
  void fail(const std::string& why);
};

/// Per-layer metrics every traced run prints; layers a workload does not
/// reach report 0. Keep in step with BENCHMARK.json.
void zero_layer_metrics(RunResult& r);

[[nodiscard]] RunResult run_batch(const Options& options);
[[nodiscard]] RunResult run_serve_mix(const Options& options);

}  // namespace perfbench
