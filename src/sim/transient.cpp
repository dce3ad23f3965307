#include "sim/transient.h"

#include <algorithm>
#include <cmath>
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
/// deadline overshoot to a handful of LU solves.
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

linalg::DenseMatrix companion_matrix(const MnaSystem& mna, double cap_scale) {
  linalg::DenseMatrix m = mna.g;
  const std::size_t n = mna.size();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) += cap_scale * mna.c(r, c);
  return m;
}

}  // namespace

TransientSimulator::TransientSimulator(const spice::Circuit& circuit,
                                       const TransientOptions& options)
    : mna_(assemble_mna(circuit)), options_(options) {
  x_inf_ = dc_operating_point(mna_);
  for (std::size_t i = 0; i < x_inf_.size(); ++i) {
    if (!std::isfinite(x_inf_[i]))
      throw runtime::NtrError(
          runtime::StatusCode::kNonFinite,
          "TransientSimulator: non-finite DC operating point (unknown " +
              std::to_string(i) + " of " + std::to_string(x_inf_.size()) + ")");
  }
  const linalg::Vector m1 = first_moment(mna_, x_inf_);

  // tau = largest Elmore time constant among *node* voltages that settle to
  // a nonzero value. Branch currents are excluded: their moments are not
  // time constants.
  tau_ = 0.0;
  for (std::size_t i = 0; i < mna_.node_unknowns; ++i) {
    if (std::abs(x_inf_[i]) > 1e-12)
      tau_ = std::max(tau_, std::abs(m1[i] / x_inf_[i]));
  }
  if (tau_ <= 0.0) {
    // Purely resistive circuit: response is instantaneous; pick a nominal
    // picosecond scale so the stepping loop stays well defined.
    tau_ = 1e-12;
  }

  h_ = options_.time_step_s > 0.0 ? options_.time_step_s
                                  : tau_ / std::max(options_.steps_per_tau, 1.0);
  t_max_ = options_.max_time_s > 0.0 ? options_.max_time_s
                                     : tau_ * std::max(options_.max_tau_multiple, 1.0);
  if (t_max_ < h_) t_max_ = h_;

  // The stepping loops divide by h_ and iterate to t_max_; a non-finite or
  // non-positive value here means the auto-step heuristic went wrong.
  NTR_CHECK(std::isfinite(h_) && h_ > 0.0);
  NTR_CHECK(std::isfinite(t_max_) && t_max_ >= h_);
  NTR_DCHECK(check::require(
      validate_mna(mna_, {.spd = MnaValidateOptions::Spd::kSkip}),
      "TransientSimulator precondition"));
}

void TransientSimulator::ensure_factorizations() {
  const bool need_be = options_.method == Integration::kBackwardEuler ||
                       options_.startup_be_steps > 0;
  const bool need_trap = options_.method == Integration::kTrapezoidal;
  if (need_be && !fixed_.be)
    fixed_.be = std::make_unique<linalg::LuFactorization>(companion_matrix(mna_, 1.0 / h_));
  if (need_trap && !fixed_.trap)
    fixed_.trap =
        std::make_unique<linalg::LuFactorization>(companion_matrix(mna_, 2.0 / h_));
}

void TransientSimulator::checkpoint(std::size_t step, const char* where) const {
  if (!is_poll_step(step)) return;
  NTR_FAULT_POINT(kTransientDeadline);
  NTR_FAULT_POINT(kTransientNonFinite);
  if (options_.stop.engaged()) options_.stop.throw_if_stopped(where);
}

void TransientSimulator::advance(linalg::Vector& x, double h, const Factors& f,
                                 bool use_be) const {
  const std::size_t n = mna_.size();
  NTR_DCHECK(x.size() == n);
  NTR_DCHECK(use_be ? f.be != nullptr : f.trap != nullptr);
  linalg::Vector rhs(n);
  if (use_be) {
    // (G + C/h) x1 = (C/h) x0 + b
    rhs = mna_.c.multiply(x);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = rhs[i] / h + mna_.b_final[i];
    x = f.be->solve(rhs);
  } else {
    // (G + 2C/h) x1 = (2C/h - G) x0 + 2b
    const linalg::Vector cx = mna_.c.multiply(x);
    const linalg::Vector gx = mna_.g.multiply(x);
    for (std::size_t i = 0; i < n; ++i)
      rhs[i] = 2.0 * cx[i] / h - gx[i] + 2.0 * mna_.b_final[i];
    x = f.trap->solve(rhs);
  }
}

/// Marches the step response from the zero state in up to `steps` fixed
/// steps of h_: backward Euler for the first startup_be_steps (or always,
/// under Integration::kBackwardEuler), trapezoidal after. After each step
/// `observe(t, voltage)` sees the step's end time and a reader whose
/// voltage(k) is watched node k's voltage, throwing NtrError(kNonFinite)
/// when it is not finite; observers read only the nodes they still need.
/// The observer returns false to stop the march early.
template <class Observer>
void TransientSimulator::march(std::span<const spice::CircuitNode> watch,
                               std::size_t steps, const char* where,
                               Observer&& observe) {
  ensure_factorizations();
  linalg::Vector x(mna_.size(), 0.0);
  for (std::size_t step = 1; step <= steps; ++step) {
    checkpoint(step, where);
    const bool use_be = options_.method == Integration::kBackwardEuler ||
                        step <= options_.startup_be_steps;
    advance(x, h_, fixed_, use_be);
    const double t = static_cast<double>(step) * h_;
    const auto voltage = [&](std::size_t k) {
      const double v = mna_.node_voltage(x, watch[k]);
      if (!std::isfinite(v)) throw_non_finite(where, watch[k], t);
      return v;
    };
    if (!observe(t, voltage)) return;
  }
}

TransientSimulator::Waveform TransientSimulator::run(
    double t_end_s, std::span<const spice::CircuitNode> watch) {
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

TransientSimulator::Waveform TransientSimulator::run_adaptive(
    double t_end_s, std::span<const spice::CircuitNode> watch,
    double rel_tolerance) {
  if (rel_tolerance <= 0.0)
    throw std::invalid_argument("run_adaptive: tolerance must be positive");
  const double t_end = std::min(t_end_s, t_max_);

  // Error scale: the largest final node voltage (the step swing).
  double swing = 0.0;
  for (std::size_t i = 0; i < mna_.node_unknowns; ++i)
    swing = std::max(swing, std::abs(x_inf_[i]));
  if (swing <= 0.0) swing = 1.0;
  const double abs_tol = rel_tolerance * swing;

  // Factorization cache per step size; steps move by factors of two, so
  // only a handful of sizes ever materialize.
  std::vector<std::pair<double, Factors>> cache;
  const auto factors = [&](double h) -> const Factors& {
    for (const auto& [key, f] : cache)
      if (key == h) return f;
    cache.emplace_back(
        h, Factors{std::make_unique<linalg::LuFactorization>(
                       companion_matrix(mna_, 1.0 / h)),
                   std::make_unique<linalg::LuFactorization>(
                       companion_matrix(mna_, 2.0 / h))});
    return cache.back().second;
  };

  Waveform wf;
  wf.voltage_v.resize(watch.size());
  linalg::Vector x(mna_.size(), 0.0);
  double t = 0.0;
  // Start well below the fixed-step default to resolve fast poles; the
  // controller grows it as the response smooths out.
  double h = h_ / 64.0;
  const double h_max = std::max(h_, (t_end > 0 ? t_end : h_) / 16.0);
  const double h_min = h_ / 65536.0;

  const auto record = [&]() {
    wf.time_s.push_back(t);
    for (std::size_t k = 0; k < watch.size(); ++k)
      wf.voltage_v[k].push_back(mna_.node_voltage(x, watch[k]));
  };
  record();

  // The very first step is BE-only (inconsistent initial condition).
  bool startup = true;
  std::size_t guard = 0;
  while (t < t_end && ++guard < 10'000'000) {
    checkpoint(guard, "transient adaptive run");
    h = std::min(h, std::max(t_end - t, h_min));
    const Factors& f = factors(h);
    linalg::Vector x_trap = x;
    advance(x_trap, h, f, /*use_be=*/startup);
    linalg::Vector x_be = x;
    advance(x_be, h, f, /*use_be=*/true);

    // LTE estimate: BE-vs-trapezoidal disagreement over node voltages.
    double err = 0.0;
    for (std::size_t i = 0; i < mna_.node_unknowns; ++i)
      err = std::max(err, std::abs(x_trap[i] - x_be[i]));

    if (err > abs_tol && h > h_min && !startup) {
      h *= 0.5;  // reject and retry smaller
      continue;
    }
    x = std::move(x_trap);
    t += h;
    startup = false;
    record();
    if (err < abs_tol / 8.0 && h < h_max) h *= 2.0;
  }
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
    report.final_v[k] = mna_.node_voltage(x_inf_, watch[k]);
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

TransientSimulator::MultiThresholdReport TransientSimulator::measure_multi_crossings(
    std::span<const spice::CircuitNode> watch, std::span<const double> fractions) {
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    if (fractions[f] <= 0.0 || fractions[f] >= 1.0)
      throw std::invalid_argument("measure_multi_crossings: fraction must be in (0,1)");
    if (f > 0 && fractions[f] <= fractions[f - 1])
      throw std::invalid_argument(
          "measure_multi_crossings: fractions must be strictly increasing");
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  MultiThresholdReport report;
  report.crossing_s.assign(fractions.size(),
                           std::vector<double>(watch.size(), kInf));
  report.final_v.resize(watch.size());

  std::size_t pending = 0;
  std::vector<bool> reachable(watch.size(), false);
  for (std::size_t k = 0; k < watch.size(); ++k) {
    report.final_v[k] = mna_.node_voltage(x_inf_, watch[k]);
    if (std::abs(report.final_v[k]) >= 1e-12) {
      reachable[k] = true;
      pending += fractions.size();
    }
  }

  std::vector<double> prev(watch.size(), 0.0);
  // next_fraction[k]: index of the lowest threshold node k has not crossed.
  std::vector<std::size_t> next_fraction(watch.size(), 0);
  double t = 0.0;  // end time of the previous step
  const auto total_steps = static_cast<std::size_t>(std::ceil(t_max_ / h_));
  if (pending > 0)
    march(watch, total_steps, "transient multi march",
          [&](double t_next, const auto& voltage) {
            for (std::size_t k = 0; k < watch.size(); ++k) {
              if (!reachable[k]) continue;
              const double v = voltage(k);
              while (next_fraction[k] < fractions.size()) {
                const double threshold =
                    fractions[next_fraction[k]] * report.final_v[k];
                if (v < threshold) break;
                const double dv = v - prev[k];
                const double frac = dv > 0.0 ? (threshold - prev[k]) / dv : 1.0;
                report.crossing_s[next_fraction[k]][k] = t + frac * h_;
                ++next_fraction[k];
                --pending;
              }
              prev[k] = v;
            }
            t = t_next;
            return pending > 0;
          });

  report.all_crossed = pending == 0 && watch.size() > 0 &&
                       std::all_of(reachable.begin(), reachable.end(),
                                   [](bool r) { return r; });
  return report;
}

std::vector<double> TransientSimulator::measure_rise_times(
    std::span<const spice::CircuitNode> watch, double lo_fraction,
    double hi_fraction) {
  if (lo_fraction >= hi_fraction)
    throw std::invalid_argument("measure_rise_times: lo must be below hi");
  const double fractions[] = {lo_fraction, hi_fraction};
  const MultiThresholdReport report = measure_multi_crossings(watch, fractions);
  std::vector<double> rise(watch.size());
  for (std::size_t k = 0; k < watch.size(); ++k) {
    const double lo = report.crossing_s[0][k];
    const double hi = report.crossing_s[1][k];
    rise[k] = std::isinf(hi) ? hi : hi - lo;
  }
  return rise;
}

double max_threshold_delay(const spice::Circuit& circuit,
                           std::span<const spice::CircuitNode> watch,
                           const TransientOptions& options,
                           double threshold_fraction) {
  TransientSimulator sim(circuit, options);
  return sim.measure_crossings(watch, threshold_fraction).max_crossing_s;
}

}  // namespace ntr::sim
