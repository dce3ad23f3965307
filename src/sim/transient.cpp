#include "sim/transient.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/contracts.h"
#include "check/faultinject.h"
#include "sim/validate.h"
#include "runtime/status.h"

namespace ntr::sim {

namespace {

/// How often the time-march loops poll the stop token (and the
/// fault-injection sites). A power of two so the test reduces to
/// a mask; 64 keeps the un-engaged overhead unmeasurable while bounding
/// deadline overshoot to a handful of solves.
constexpr std::size_t kStopPollStride = 64;

/// Polls on step 1 (so even the shortest march honors an already-expired
/// deadline) and every kStopPollStride steps after.
[[nodiscard]] bool is_poll_step(std::size_t step) {
  return (step & (kStopPollStride - 1)) == 1;
}

[[noreturn]] void throw_non_finite(const char* where, spice::CircuitNode node,
                                   double t) {
  throw runtime::NtrError(
      runtime::StatusCode::kNonFinite,
      std::string(where) + ": non-finite voltage at watched node " +
          std::to_string(node) + " (t=" + std::to_string(t) + "s)");
}

/// Largest Elmore time constant m1 / x_inf among node voltages that settle
/// to a nonzero value; 0 when none does.
double max_time_constant(std::span<const double> x_inf, std::span<const double> m1) {
  double tau = 0.0;
  for (std::size_t i = 0; i < x_inf.size(); ++i) {
    if (std::abs(x_inf[i]) > 1e-12) tau = std::max(tau, std::abs(m1[i] / x_inf[i]));
  }
  return tau;
}

/// Backward-Euler steps that start every march.
constexpr std::size_t kStartupBeSteps = 2;
/// The automatic step is tau_max / kStepsPerTau and the automatic horizon
/// kMaxTauMultiple tau_max.
constexpr double kStepsPerTau = 200.0;
constexpr double kMaxTauMultiple = 40.0;

}  // namespace

TransientSimulator::TransientSimulator(const spice::Circuit& circuit,
                                       const TransientOptions& options)
    : system_(reduce_deck(circuit)), options_(options) {
  NTR_DCHECK(check::require(validate_nodal_system(system_),
                            "TransientSimulator precondition"));
  // The DC steady state, with every inductor a short. An RC deck is its
  // own DC form, so G is factored once.
  std::optional<NodalSystem> shorted;
  if (!system_.inductors.empty()) shorted.emplace(reduce_dc_deck(circuit));
  const NodalSystem& dc = shorted ? *shorted : system_;
  RcSteadyState steady = rc_steady_state(dc);
  for (std::size_t i = 0; i < steady.x_inf.size(); ++i) {
    if (!std::isfinite(steady.x_inf[i]))
      throw runtime::NtrError(
          runtime::StatusCode::kNonFinite,
          "TransientSimulator: non-finite DC operating point (unknown " +
              std::to_string(i) + " of " + std::to_string(steady.x_inf.size()) + ")");
  }
  // tau = largest Elmore time constant among node voltages that settle to
  // a nonzero value.
  tau_ = max_time_constant(steady.x_inf, steady.m1);
  linalg::Vector& dc_state = steady.x_inf;
  dc_state.insert(dc_state.end(), dc.fixed_voltages.begin(), dc.fixed_voltages.end());
  x_inf_.resize(system_.free_nodes() + system_.fixed_voltages.size());
  for (spice::CircuitNode node = 0; node < circuit.node_count(); ++node)
    x_inf_[system_.slot_of_node[node]] = dc_state[dc.slot_of_node[node]];

  if (tau_ <= 0.0) {
    // Purely resistive circuit: response is instantaneous; pick a nominal
    // picosecond scale so the stepping loop stays well defined.
    tau_ = 1e-12;
  }

  h_ = options_.time_step_s > 0.0 ? options_.time_step_s : tau_ / kStepsPerTau;
  t_max_ = options_.max_time_s > 0.0 ? options_.max_time_s : tau_ * kMaxTauMultiple;
  if (t_max_ < h_) t_max_ = h_;

  // The stepping loop divides by h_ and iterates to t_max_; a non-finite
  // or non-positive value here means the auto-step heuristic went wrong.
  NTR_CHECK(std::isfinite(h_) && h_ > 0.0);
  NTR_CHECK(std::isfinite(t_max_) && t_max_ >= h_);
}

double TransientSimulator::final_voltage(spice::CircuitNode node) const {
  return x_inf_[system_.slot_of_node.at(node)];
}

void TransientSimulator::checkpoint(std::size_t step, const char* where) const {
  if (!is_poll_step(step)) return;
  NTR_FAULT_POINT(kTransientDeadline);
  NTR_FAULT_POINT(kTransientNonFinite);
  if (options_.stop.engaged()) options_.stop.throw_if_stopped(where);
}

/// Marches the step response from the zero state in up to `steps` fixed
/// steps of h_: backward Euler for the first kStartupBeSteps, trapezoidal
/// after. After each step `observe(t, voltage)` sees the step's end time
/// and a reader whose voltage(k) is watched node k's voltage, throwing
/// NtrError(kNonFinite) when it is not finite; observers read only the
/// nodes they still need. The observer returns false to stop the march
/// early.
///
/// The state vector holds every slot of the nodal system: a step solves
/// for the free nodes, and the fixed slots keep their voltages. Inductor
/// k, with drop d = x[a] - x[b] and Gamma = h / (2L), adds its history
/// current to the right-hand side as A (i + 2 Gamma e) under backward
/// Euler and 2 A (i + Gamma e) under trapezoidal integration, where e is
/// the part of d its fixed terminals set, and then advances i by 2 Gamma
/// d1 or by Gamma (d0 + d1). An RC deck has no inductor and skips both.
template <class Observer>
void TransientSimulator::march(std::span<const spice::CircuitNode> watch,
                               std::size_t steps, const char* where,
                               Observer&& observe) {
  // Set-up of the first march, before its first step.
  if (!companions_)
    companions_.emplace(Companions{companion(system_, h_, /*trapezoidal=*/false),
                                   companion(system_, h_, /*trapezoidal=*/true)});
  const std::size_t n = system_.free_nodes();
  const std::span<const NodalInductor> inductors = system_.inductors;
  // The whole workspace, allocated once: the watched slots, two state
  // buffers that trade places every step, and the inductor currents.
  std::vector<std::size_t> watch_slot(watch.size());
  for (std::size_t k = 0; k < watch.size(); ++k)
    watch_slot[k] = system_.slot_of_node.at(watch[k]);
  linalg::Vector x = x_inf_;
  std::fill(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n), 0.0);
  linalg::Vector next = x;
  std::vector<double> current(inductors.size(), 0.0);
  const auto fixed_drop = [&](const NodalInductor& l) {
    return (l.a < n ? 0.0 : x[l.a]) - (l.b < n ? 0.0 : x[l.b]);
  };
  for (std::size_t step = 1; step <= steps; ++step) {
    checkpoint(step, where);
    const bool use_be = step <= kStartupBeSteps;
    const Companion& m = use_be ? companions_->be : companions_->trap;
    const std::span<double> y(next.data(), n);
    std::copy(m.bias.begin(), m.bias.end(), y.begin());
    for (std::size_t k = 0; k < inductors.size(); ++k) {
      const NodalInductor& l = inductors[k];
      const double gamma_e = l.gamma(h_) * fixed_drop(l);
      const double q = use_be ? current[k] + 2.0 * gamma_e : 2.0 * (current[k] + gamma_e);
      if (l.a < n) y[l.a] -= q;
      if (l.b < n) y[l.b] += q;
    }
    m.lhs.solve_in_place(y, m.rhs, std::span<const double>(x).first(n));
    for (std::size_t k = 0; k < inductors.size(); ++k) {
      const NodalInductor& l = inductors[k];
      const double d1 = next[l.a] - next[l.b];
      current[k] += use_be ? 2.0 * l.gamma(h_) * d1 : l.gamma(h_) * (x[l.a] - x[l.b] + d1);
    }
    x.swap(next);
    const double t = static_cast<double>(step) * h_;
    const auto voltage = [&](std::size_t k) {
      const double v = x[watch_slot[k]];
      if (!std::isfinite(v)) throw_non_finite(where, watch[k], t);
      return v;
    };
    if (!observe(t, voltage)) return;
  }
}

TransientSimulator::Waveform TransientSimulator::run(
    double t_end_s, std::span<const spice::CircuitNode> watch) {
  if (!(t_end_s >= 0.0))
    throw std::invalid_argument("run: horizon must be non-negative");
  const double t_end = std::min(t_end_s, t_max_);
  const auto total_steps = static_cast<std::size_t>(std::ceil(t_end / h_));

  // The march starts from the zero state, so every watched node reads 0 V
  // at t = 0.
  Waveform wf;
  wf.time_s.assign(1, 0.0);
  wf.voltage_v.assign(watch.size(), std::vector<double>(1, 0.0));
  march(watch, total_steps, "transient run",
        [&](double t, const auto& voltage) {
          wf.time_s.push_back(t);
          for (std::size_t k = 0; k < watch.size(); ++k)
            wf.voltage_v[k].push_back(voltage(k));
          return true;
        });
  return wf;
}

TransientSimulator::ThresholdReport TransientSimulator::measure_crossings(
    std::span<const spice::CircuitNode> watch, double threshold_fraction,
    double give_up_after_s) {
  if (threshold_fraction <= 0.0 || threshold_fraction >= 1.0)
    throw std::invalid_argument("measure_crossings: threshold must be in (0,1)");
  if (!(give_up_after_s >= 0.0))
    throw std::invalid_argument("measure_crossings: cutoff must be non-negative");

  constexpr double kInf = std::numeric_limits<double>::infinity();
  ThresholdReport report;
  report.crossing_s.assign(watch.size(), kInf);
  report.final_v.resize(watch.size());

  std::vector<double> threshold(watch.size());
  std::size_t pending = 0;
  for (std::size_t k = 0; k < watch.size(); ++k) {
    report.final_v[k] = final_voltage(watch[k]);
    threshold[k] = threshold_fraction * report.final_v[k];
    if (std::abs(report.final_v[k]) < 1e-12) {
      // Node never charges (no DC path from the source): counts as an
      // unreachable sink, reported as +inf.
      threshold[k] = kInf;
    } else {
      ++pending;
    }
  }

  std::vector<double> prev(watch.size(), 0.0);
  double t = 0.0;  // end time of the previous step
  const auto total_steps = static_cast<std::size_t>(std::ceil(t_max_ / h_));
  if (pending > 0)
    march(watch, total_steps, "transient march",
          [&](double t_next, const auto& voltage) {
            for (std::size_t k = 0; k < watch.size(); ++k) {
              if (report.crossing_s[k] != kInf || threshold[k] == kInf) continue;
              const double v = voltage(k);
              if (v >= threshold[k]) {
                const double dv = v - prev[k];
                const double frac = dv > 0.0 ? (threshold[k] - prev[k]) / dv : 1.0;
                report.crossing_s[k] = t + frac * h_;
                --pending;
              }
              prev[k] = v;
            }
            t = t_next;
            // A crossing found in the next step interpolates into
            // [t, t + h], so once t is strictly past the cutoff, every
            // pending node's crossing provably exceeds it -- stop and
            // leave them at +inf.
            return pending > 0 && !(t > give_up_after_s);
          });

  // A node that never reaches its threshold -- including nodes whose final
  // value is (numerically) zero -- leaves +inf in crossing_s, so both
  // all_crossed and max_crossing_s report the miss.
  report.all_crossed = true;
  report.max_crossing_s = 0.0;
  for (const double c : report.crossing_s) {
    report.max_crossing_s = std::max(report.max_crossing_s, c);
    if (c == kInf) report.all_crossed = false;
  }
  return report;
}

}  // namespace ntr::sim
