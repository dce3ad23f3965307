#include "sim/transient.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/contracts.h"
#include "check/faultinject.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse.h"
#include "linalg/sparse_cholesky.h"
#include "sim/mna.h"
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

linalg::DenseMatrix companion_matrix(const MnaSystem& mna, double cap_scale) {
  linalg::DenseMatrix m = mna.g;
  const std::size_t n = mna.size();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) += cap_scale * mna.c(r, c);
  return m;
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

}  // namespace

class CompanionModels {
 public:
  CompanionModels() = default;
  CompanionModels(const CompanionModels&) = delete;
  CompanionModels& operator=(const CompanionModels&) = delete;
  virtual ~CompanionModels() = default;
  /// Writes the state one step after `x` into `next`, by backward Euler or
  /// trapezoidal; the constant slots of `next` are left as they are.
  virtual void advance(std::span<const double> x, std::span<double> next,
                       bool use_be) const = 0;
};

/// Every node's voltage sits at a fixed slot of the state vector. The
/// solves update slots [0, unknowns); later slots hold constants: ground,
/// and the driven nodes of an RC deck.
class TransientEngine {
 public:
  TransientEngine() = default;
  TransientEngine(const TransientEngine&) = delete;
  TransientEngine& operator=(const TransientEngine&) = delete;
  virtual ~TransientEngine() = default;
  /// Companion models at step size h; only the requested methods.
  [[nodiscard]] virtual std::unique_ptr<const CompanionModels> companions(
      double h, bool need_be, bool need_trap) const = 0;

  std::vector<std::size_t> slot;  ///< circuit node -> state slot
  linalg::Vector x_inf;           ///< DC steady state, one entry per slot
  std::size_t unknowns = 0;
  double tau = 0.0;  ///< max_time_constant over the node voltages
};

namespace {

/// The Norton-reduced RC deck: SPD companions on envelope factors that
/// share the system's one Envelope, each right-hand side one CSR product
/// formed inside the solve's forward sweep.
class RcEngine final : public TransientEngine {
 public:
  explicit RcEngine(RcSystem rc) : rc_(std::move(rc)) {
    NTR_DCHECK(
        check::require(validate_rc_system(rc_), "TransientSimulator precondition"));
    RcSteadyState dc = rc_steady_state(rc_);
    tau = max_time_constant(dc.x_inf, dc.m1);
    unknowns = rc_.free_nodes();
    x_inf = std::move(dc.x_inf);
    x_inf.insert(x_inf.end(), rc_.fixed_voltages.begin(), rc_.fixed_voltages.end());
    slot = rc_.slot_of_node;
  }

  [[nodiscard]] std::unique_ptr<const CompanionModels> companions(
      double h, bool need_be, bool need_trap) const override {
    auto k = std::make_unique<Steps>();
    // ntr-alloc-in-hot-path(set-up of one march, before its first step)
    if (need_be) k->be.emplace(method(h, /*trapezoidal=*/false));
    // ntr-alloc-in-hot-path(set-up of one march, before its first step)
    if (need_trap) k->trap.emplace(method(h, /*trapezoidal=*/true));
    return k;
  }

 private:
  /// One integration method: x1 = lhs^{-1} (rhs x0 + bias).
  struct Method {
    linalg::EnvelopeCholesky lhs;
    linalg::CsrMatrix rhs;
    linalg::Vector bias;
  };

  struct Steps final : CompanionModels {
    std::optional<Method> be;
    std::optional<Method> trap;

    void advance(std::span<const double> x, std::span<double> next,
                 bool use_be) const override {
      NTR_DCHECK(use_be ? be.has_value() : trap.has_value());
      const Method& m = use_be ? *be : *trap;
      const std::span<double> y = next.first(m.bias.size());
      std::copy(m.bias.begin(), m.bias.end(), y.begin());
      m.lhs.solve_in_place(y, m.rhs, x.first(y.size()));
    }
  };

  /// Backward Euler: (G + C/h) x1 = (C/h) x0 + b.
  /// Trapezoidal: (G + 2C/h) x1 = (2C/h - G) x0 + 2b.
  Method method(double h, bool trapezoidal) const {
    const double s = (trapezoidal ? 2.0 : 1.0) / h;
    const std::span<const double> g = rc_.g.values();
    const std::span<const double> c = rc_.c.values();
    std::vector<double> lhs(g.size());
    std::vector<double> rhs(g.size());
    for (std::size_t k = 0; k < g.size(); ++k) {
      lhs[k] = g[k] + s * c[k];
      rhs[k] = trapezoidal ? s * c[k] - g[k] : s * c[k];
    }
    linalg::Vector bias(rc_.b_final.size());
    for (std::size_t i = 0; i < bias.size(); ++i)
      bias[i] = (trapezoidal ? 2.0 : 1.0) * rc_.b_final[i];
    linalg::EnvelopeCholesky factor(rc_.envelope, rc_.g.with_values(std::move(lhs)));
    return Method{std::move(factor), rc_.g.with_values(std::move(rhs)), std::move(bias)};
  }

  RcSystem rc_;
};

/// Any other deck: the dense MNA system with LU-factored companions.
class MnaEngine final : public TransientEngine {
 public:
  explicit MnaEngine(const spice::Circuit& circuit) : mna_(assemble_mna(circuit)) {
    NTR_DCHECK(check::require(
        validate_mna(mna_, {.spd = MnaValidateOptions::Spd::kSkip}),
        "TransientSimulator precondition"));
    x_inf = dc_operating_point(mna_);
    const linalg::Vector m1 = first_moment(mna_, x_inf);
    // Branch currents are excluded: their moments are not time constants.
    tau = max_time_constant(std::span(x_inf).first(mna_.node_unknowns),
                            std::span(m1).first(mna_.node_unknowns));
    unknowns = mna_.size();
    x_inf.push_back(0.0);  // ground's slot
    slot.resize(circuit.node_count());
    for (spice::CircuitNode node = 0; node < slot.size(); ++node)
      slot[node] = node == spice::kGround ? unknowns : mna_.unknown_of_node(node);
  }

  [[nodiscard]] std::unique_ptr<const CompanionModels> companions(
      double h, bool need_be, bool need_trap) const override {
    auto k = std::make_unique<Steps>(mna_, h);
    // ntr-alloc-in-hot-path(set-up of one march, before its first step)
    if (need_be) k->be.emplace(companion_matrix(mna_, 1.0 / h));
    // ntr-alloc-in-hot-path(set-up of one march, before its first step)
    if (need_trap) k->trap.emplace(companion_matrix(mna_, 2.0 / h));
    return k;
  }

 private:
  struct Steps final : CompanionModels {
    Steps(const MnaSystem& mna, double h) : mna(mna), h(h) {}

    void advance(std::span<const double> x, std::span<double> next,
                 bool use_be) const override {
      NTR_DCHECK(use_be ? be.has_value() : trap.has_value());
      const std::size_t n = mna.size();
      const std::span<const double> x0 = x.first(n);
      linalg::Vector rhs(n);
      linalg::Vector x1;
      if (use_be) {
        // (G + C/h) x1 = (C/h) x0 + b
        rhs = mna.c.multiply(x0);
        for (std::size_t i = 0; i < n; ++i) rhs[i] = rhs[i] / h + mna.b_final[i];
        x1 = be->solve(rhs);
      } else {
        // (G + 2C/h) x1 = (2C/h - G) x0 + 2b
        const linalg::Vector cx = mna.c.multiply(x0);
        const linalg::Vector gx = mna.g.multiply(x0);
        for (std::size_t i = 0; i < n; ++i)
          rhs[i] = 2.0 * cx[i] / h - gx[i] + 2.0 * mna.b_final[i];
        x1 = trap->solve(rhs);
      }
      std::copy(x1.begin(), x1.end(), next.begin());
    }

    const MnaSystem& mna;
    double h;
    std::optional<linalg::LuFactorization> be;
    std::optional<linalg::LuFactorization> trap;
  };

  MnaSystem mna_;
};

std::unique_ptr<const TransientEngine> make_engine(
    const spice::Circuit& circuit) {
  if (std::optional<RcSystem> rc = reduce_rc_deck(circuit))
    return std::make_unique<RcEngine>(std::move(*rc));
  return std::make_unique<MnaEngine>(circuit);
}

}  // namespace

TransientSimulator::TransientSimulator(const spice::Circuit& circuit,
                                       const TransientOptions& options)
    : engine_(make_engine(circuit)), options_(options) {
  for (std::size_t i = 0; i < engine_->unknowns; ++i) {
    if (!std::isfinite(engine_->x_inf[i]))
      throw runtime::NtrError(
          runtime::StatusCode::kNonFinite,
          "TransientSimulator: non-finite DC operating point (unknown " +
              std::to_string(i) + " of " + std::to_string(engine_->unknowns) + ")");
  }

  // tau = largest Elmore time constant among node voltages that settle to
  // a nonzero value.
  tau_ = engine_->tau;
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
}

TransientSimulator::~TransientSimulator() = default;
TransientSimulator::TransientSimulator(TransientSimulator&&) noexcept = default;
TransientSimulator& TransientSimulator::operator=(TransientSimulator&&) noexcept =
    default;

double TransientSimulator::final_voltage(spice::CircuitNode node) const {
  return engine_->x_inf[engine_->slot.at(node)];
}

void TransientSimulator::ensure_companions() {
  if (fixed_) return;
  const bool need_be = options_.method == Integration::kBackwardEuler ||
                       options_.startup_be_steps > 0;
  const bool need_trap = options_.method == Integration::kTrapezoidal;
  fixed_ = engine_->companions(h_, need_be, need_trap);
}

void TransientSimulator::checkpoint(std::size_t step, const char* where) const {
  if (!is_poll_step(step)) return;
  NTR_FAULT_POINT(kTransientDeadline);
  NTR_FAULT_POINT(kTransientNonFinite);
  if (options_.stop.engaged()) options_.stop.throw_if_stopped(where);
}

linalg::Vector TransientSimulator::initial_state() const {
  linalg::Vector x = engine_->x_inf;
  std::fill(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(engine_->unknowns), 0.0);
  return x;
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
  ensure_companions();
  // The whole workspace, allocated once: the watched slots and two state
  // buffers that trade places every step.
  std::vector<std::size_t> watch_slot(watch.size());
  for (std::size_t k = 0; k < watch.size(); ++k)
    watch_slot[k] = engine_->slot.at(watch[k]);
  linalg::Vector x = initial_state();
  linalg::Vector next = x;
  for (std::size_t step = 1; step <= steps; ++step) {
    checkpoint(step, where);
    const bool use_be = options_.method == Integration::kBackwardEuler ||
                        step <= options_.startup_be_steps;
    fixed_->advance(x, next, use_be);
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
  for (const std::size_t slot : engine_->slot)
    swing = std::max(swing, std::abs(engine_->x_inf[slot]));
  if (swing <= 0.0) swing = 1.0;
  const double abs_tol = rel_tolerance * swing;

  // Companion models per step size; steps move by factors of two, so only a
  // handful of sizes ever materialize.
  std::vector<std::pair<double, std::unique_ptr<const CompanionModels>>> cache;
  const auto companions = [&](double h) -> const CompanionModels& {
    for (const auto& [key, k] : cache)
      if (key == h) return *k;
    cache.emplace_back(h, engine_->companions(h, true, true));
    return *cache.back().second;
  };

  Waveform wf;
  wf.voltage_v.resize(watch.size());
  linalg::Vector x = initial_state();
  linalg::Vector x_trap = x;
  linalg::Vector x_be = x;
  double t = 0.0;
  // Start well below the fixed-step default to resolve fast poles; the
  // controller grows it as the response smooths out.
  double h = h_ / 64.0;
  const double h_max = std::max(h_, (t_end > 0 ? t_end : h_) / 16.0);
  const double h_min = h_ / 65536.0;

  const auto record = [&]() {
    wf.time_s.push_back(t);
    for (std::size_t k = 0; k < watch.size(); ++k)
      wf.voltage_v[k].push_back(x[engine_->slot.at(watch[k])]);
  };
  record();

  // The very first step is BE-only (inconsistent initial condition).
  bool startup = true;
  std::size_t guard = 0;
  while (t < t_end && ++guard < 10'000'000) {
    checkpoint(guard, "transient adaptive run");
    h = std::min(h, std::max(t_end - t, h_min));
    const CompanionModels& k = companions(h);
    k.advance(x, x_trap, /*use_be=*/startup);
    k.advance(x, x_be, /*use_be=*/true);

    // LTE estimate: BE-vs-trapezoidal disagreement over node voltages.
    double err = 0.0;
    for (const std::size_t slot : engine_->slot)
      err = std::max(err, std::abs(x_trap[slot] - x_be[slot]));

    if (err > abs_tol && h > h_min && !startup) {
      h *= 0.5;  // reject and retry smaller
      continue;
    }
    x.swap(x_trap);
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
    report.final_v[k] = final_voltage(watch[k]);
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
