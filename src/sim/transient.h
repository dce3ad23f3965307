#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "linalg/vector_ops.h"
#include "runtime/stop.h"
#include "sim/nodal.h"
#include "spice/netlist.h"

namespace ntr::sim {

struct TransientOptions {
  /// Fixed step; 0 selects tau_max / 200, where tau_max is the largest
  /// per-node first-moment (Elmore) time constant.
  double time_step_s = 0.0;
  /// Simulation horizon; 0 selects 40 tau_max.
  double max_time_s = 0.0;
  /// Cooperative deadline/cancellation, polled every 64 steps of the
  /// time march. An un-engaged token (the default) costs one bool test
  /// per poll and leaves every waveform bit-identical. A tripped token
  /// unwinds with NtrError (kTimeout / kCancelled).
  runtime::StopToken stop{};
};

/// Step-response transient engine: the repo's SPICE substitute. For the
/// paper's linear RC(L) decks it computes the same waveforms a SPICE .TRAN
/// analysis would, as SPICE does: every deck is reduced to its nodal
/// system (sim/nodal.h), each inductor a companion conductance plus a
/// history current, and marched on envelope Cholesky factors and CSR
/// products, with no heap allocation per step. The first two steps are
/// backward Euler, which damps the inconsistent initial condition of the
/// ideal step; the rest are trapezoidal. A deck the nodal march cannot
/// take is NtrError(kBadInput) (see reduce_deck).
class TransientSimulator {
 public:
  explicit TransientSimulator(const spice::Circuit& circuit,
                              const TransientOptions& options = {});

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
  /// nodes at every step. Throws std::invalid_argument for a negative or
  /// NaN t_end.
  Waveform run(double t_end_s, std::span<const spice::CircuitNode> watch);

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

 private:
  /// The companion models at the fixed step h_.
  struct Companions {
    Companion be;
    Companion trap;
  };

  NodalSystem system_;
  /// DC steady state, one entry per state slot.
  linalg::Vector x_inf_;
  double tau_ = 0.0;
  double h_ = 0.0;
  double t_max_ = 0.0;
  TransientOptions options_;
  /// Built on first use.
  std::optional<Companions> companions_;

  /// On poll steps (see transient.cpp), hits the fault-injection sites and
  /// throws when the stop token has tripped; `where` names the loop.
  void checkpoint(std::size_t step, const char* where) const;
  /// The fixed-step march from the zero state, shared by run and
  /// measure_crossings; see transient.cpp.
  template <class Observer>
  void march(std::span<const spice::CircuitNode> watch, std::size_t steps,
             const char* where, Observer&& observe);
};

}  // namespace ntr::sim
