#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <utility>

#include "bench.h"

namespace perfbench {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index) {
  Rng mix(seed * 0x100000001B3ULL ^ (purpose << 48) ^ index);
  mix.next();
  return mix.next();
}

std::string random_net_text(Rng& rng, std::size_t pins) {
  constexpr std::uint64_t kSideNm = 10'000'000;  // 10 mm
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::string text;
  char line[64];
  while (seen.size() < pins) {
    const std::uint64_t x = rng.next() % (kSideNm + 1);
    const std::uint64_t y = rng.next() % (kSideNm + 1);
    if (!seen.emplace(x, y).second) continue;
    std::snprintf(line, sizeof line, "pin %llu.%03llu %llu.%03llu\n",
                  static_cast<unsigned long long>(x / 1000),
                  static_cast<unsigned long long>(x % 1000),
                  static_cast<unsigned long long>(y / 1000),
                  static_cast<unsigned long long>(y % 1000));
    text += line;
  }
  return text;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Continued fraction for the incomplete beta function (modified Lentz).
double beta_continued_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  if (std::abs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double step = d * c;
    h *= step;
    if (std::abs(step - 1.0) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_continued_fraction(a, b, x) / a;
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double hd_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  double sum = 0.0, below = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double upto = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    sum += (upto - below) * v[i];
    below = upto;
  }
  return sum;
}

double self_peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunResult::fail(const std::string& why) {
  ++failed;
  correct = false;
  if (notes.size() < 20) notes.push_back("FAILED: " + why);
}

void zero_layer_metrics(RunResult& r) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"core.rounds", "count"},          {"core.candidates", "count"},
      {"core.pruned_share", "share"},    {"core.self_ms", "ms"},
      {"delay.scan_ms", "ms"},           {"delay.measure_ms", "ms"},
      {"delay.scorer_builds", "count"},  {"delay.scorer_build_ms", "ms"},
      {"delay.delta_us", "us"},          {"spice.netlist_us", "us"},
      {"sim.setup_us", "us"},            {"sim.march_us", "us"},
      {"sim.steps", "count"},            {"sim.ns_per_step", "ns"},
      {"sim.nodes", "count"},            {"steiner.ms", "ms"},
      {"route.ert_ms", "ms"},            {"graph.mst_ms", "ms"},
      {"flow.ms", "ms"},                 {"flow.iterations", "count"},
      {"flow.nets_rerouted", "count"},   {"flow.wns_gain_ps", "ps"},
      {"serve.service_ms_p50", "ms"},    {"serve.service_ms_p99", "ms"},
      {"serve.wait_ms_p50", "ms"},       {"serve.wait_ms_p99", "ms"},
      {"serve.p50_ms", "ms"},            {"serve.p99_ms", "ms"},
      {"serve.codec_us", "us"},          {"serve.cpu_ms_per_req", "ms"},
      {"serve.lane_busy_share", "share"}, {"serve.gen_late_ms_p99", "ms"},
      {"serve.overloaded", "count"},     {"serve.watchdog_cancels", "count"},
      {"io.parse_us", "us"},             {"trace.overhead_share", "share"},
  };
  for (const auto& [name, unit] : kLayerMetrics) r.set(name, 0.0, unit);
}

}  // namespace perfbench
