#pragma once

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "linalg/vector_ops.h"
#include "runtime/stop.h"
#include "spice/netlist.h"

namespace ntr::sim {

enum class Integration {
  kBackwardEuler,  ///< L-stable, first order; damps the t=0 discontinuity
  kTrapezoidal,    ///< A-stable, second order; the default after BE startup
};

struct TransientOptions {
  /// Fixed step; 0 selects tau_max / steps_per_tau automatically, where
  /// tau_max is the largest per-node first-moment (Elmore) time constant.
  double time_step_s = 0.0;
  /// Simulation horizon; 0 selects max_tau_multiple * tau_max.
  double max_time_s = 0.0;
  Integration method = Integration::kTrapezoidal;
  /// Backward-Euler steps taken before switching to trapezoidal, absorbing
  /// the inconsistent initial condition of the ideal step without ringing.
  unsigned startup_be_steps = 2;
  double steps_per_tau = 200.0;
  double max_tau_multiple = 40.0;
  /// Cooperative deadline/cancellation, polled every 64 steps of the
  /// time-march loops. An un-engaged token (the default) costs one bool
  /// test per poll and leaves every waveform bit-identical. A tripped
  /// token unwinds with NtrError (kTimeout / kCancelled).
  runtime::StopToken stop{};
};

/// The circuit in the form TransientSimulator steps: the Norton-reduced RC
/// system or the dense MNA system (defined in transient.cpp).
class TransientEngine;
/// Companion models for one step size h: (G + C/h) for backward Euler,
/// (G + 2C/h) for trapezoidal, factored by the engine that built them.
class CompanionModels;

/// Step-response transient engine: the repo's SPICE substitute. For the
/// paper's linear RC(L) decks it computes the same waveforms a SPICE .TRAN
/// analysis would, via companion models factored once per step size. The
/// deck picks the backend: an RC deck (see RcSystem in sim/mna.h; every
/// deck spice::build_netlist emits without inductance) is Norton-reduced to an
/// SPD system and marched on envelope Cholesky factors and CSR products,
/// with no heap allocation per step; any other deck keeps the dense MNA
/// system and LU.
class TransientSimulator {
 public:
  explicit TransientSimulator(const spice::Circuit& circuit,
                              const TransientOptions& options = {});
  ~TransientSimulator();
  TransientSimulator(TransientSimulator&&) noexcept;
  TransientSimulator& operator=(TransientSimulator&&) noexcept;

  /// tau estimate (max Elmore over nodes) used for auto stepping.
  [[nodiscard]] double characteristic_time() const { return tau_; }
  [[nodiscard]] double time_step() const { return h_; }
  [[nodiscard]] double max_time() const { return t_max_; }

  /// Voltage of `node` in the DC steady state (final value of the step
  /// response).
  [[nodiscard]] double final_voltage(spice::CircuitNode node) const;

  struct Waveform {
    std::vector<double> time_s;
    /// voltage_v[k][i]: voltage of watched node k at time_s[i].
    std::vector<std::vector<double>> voltage_v;
  };

  /// Simulates up to t_end (capped at max_time()) recording the watched
  /// nodes at every step.
  Waveform run(double t_end_s, std::span<const spice::CircuitNode> watch);

  /// Adaptive-step waveform capture: every step is taken with both
  /// backward Euler and trapezoidal companions; their difference
  /// estimates the local truncation error, and the step size halves /
  /// doubles to hold the estimate near rel_tolerance x the final swing.
  /// Non-uniform time points. Useful for circuits with well-separated
  /// time constants, where the fixed step derived from the largest
  /// constant under-resolves the fast initial transient.
  Waveform run_adaptive(double t_end_s, std::span<const spice::CircuitNode> watch,
                        double rel_tolerance = 1e-4);

  struct ThresholdReport {
    /// First time each watched node reaches threshold_fraction of its own
    /// final value (linearly interpolated); +inf if never within max_time.
    std::vector<double> crossing_s;
    std::vector<double> final_v;
    bool all_crossed = false;
    /// max over watched nodes of crossing_s (the paper's t(G) when the
    /// watched set is the sinks); +inf if any node failed to cross.
    double max_crossing_s = 0.0;
  };

  /// Marches the step response until every watched node has crossed its
  /// threshold (or max_time is hit). This implements the "50% of Vdd"
  /// SPICE delay measurement used throughout the paper.
  ///
  /// `give_up_after_s` is a branch-and-bound cutoff: once the simulated
  /// time strictly exceeds it with a watched node still below threshold,
  /// that node's crossing provably exceeds the cutoff, so stepping stops
  /// and the node reports +inf. Crossings at or below the cutoff are
  /// bit-identical to an unbounded run (the same fixed-step march is
  /// interrupted, never altered). The default (+inf) never gives up.
  ThresholdReport measure_crossings(
      std::span<const spice::CircuitNode> watch, double threshold_fraction = 0.5,
      double give_up_after_s = std::numeric_limits<double>::infinity());

  struct MultiThresholdReport {
    /// crossing_s[f][k]: first time watched node k reaches fraction f of
    /// its final value; +inf if never within max_time.
    std::vector<std::vector<double>> crossing_s;
    std::vector<double> final_v;
    bool all_crossed = false;
  };

  /// Like measure_crossings but for several threshold fractions in one
  /// sweep (fractions must be strictly increasing, each in (0,1)).
  MultiThresholdReport measure_multi_crossings(
      std::span<const spice::CircuitNode> watch, std::span<const double> fractions);

  /// 10%-to-90% rise time (slew) per watched node: the waveform-quality
  /// metric that complements the 50% delay. +inf for nodes that never
  /// settle.
  std::vector<double> measure_rise_times(std::span<const spice::CircuitNode> watch,
                                         double lo_fraction = 0.1,
                                         double hi_fraction = 0.9);

 private:
  std::unique_ptr<const TransientEngine> engine_;
  double tau_ = 0.0;
  double h_ = 0.0;
  double t_max_ = 0.0;
  TransientOptions options_;
  /// Companions at the fixed step h_, built on first use.
  std::unique_ptr<const CompanionModels> fixed_;

  void ensure_companions();
  /// On poll steps (see transient.cpp), hits the fault-injection sites and
  /// throws when the stop token has tripped; `where` names the loop.
  void checkpoint(std::size_t step, const char* where) const;
  /// The state at t = 0: every unknown at zero, constant slots set.
  [[nodiscard]] linalg::Vector initial_state() const;
  /// The fixed-step march from the zero state, shared by run and the
  /// crossing measurements; see transient.cpp.
  template <class Observer>
  void march(std::span<const spice::CircuitNode> watch, std::size_t steps,
             const char* where, Observer&& observe);
};

/// Convenience: max 50%-threshold delay over all watched nodes of a
/// circuit's step response.
double max_threshold_delay(const spice::Circuit& circuit,
                           std::span<const spice::CircuitNode> watch,
                           const TransientOptions& options = {},
                           double threshold_fraction = 0.5);

}  // namespace ntr::sim
