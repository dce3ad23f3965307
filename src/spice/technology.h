#pragma once

namespace ntr::spice {

/// Interconnect technology parameters (Table 1 of the paper), representative
/// of a 0.8um CMOS process. Lengths are micrometers; electrical units are
/// SI (ohm, farad, henry, second, volt).
struct Technology {
  double driver_resistance_ohm = 100.0;        ///< r_d at the net source
  double wire_resistance_ohm_per_um = 0.03;    ///< 0.03 ohm/um
  double wire_capacitance_f_per_um = 0.352e-15;///< 0.352 fF/um
  double wire_inductance_h_per_um = 492e-18;   ///< 492 fH/um
  double sink_capacitance_f = 15.3e-15;        ///< 15.3 fF load per pin
  double layout_side_um = 10'000.0;            ///< 10^2 mm^2 layout region
  double vdd_v = 1.0;                          ///< normalized supply; delays are
                                               ///< measured at 50% of the step,
                                               ///< so the absolute swing cancels

  /// Threshold fraction of the final value used for delay measurement.
  double threshold_fraction = 0.5;

  [[nodiscard]] double wire_resistance(double length_um, double width = 1.0) const {
    return wire_resistance_ohm_per_um * length_um / width;
  }
  [[nodiscard]] double wire_capacitance(double length_um, double width = 1.0) const {
    return wire_capacitance_f_per_um * length_um * width;
  }
  [[nodiscard]] double wire_inductance(double length_um, double width = 1.0) const {
    return wire_inductance_h_per_um * length_um / width;
  }
};

/// The paper's default technology instance.
inline constexpr Technology kTable1Technology{};

/// Resistance of a zero-length wire (coincident points joined by a
/// degenerate edge): electrically a short, numerically well-posed. The
/// netlist, the SPEF export and the moment solver all stamp this value.
inline constexpr double kShortResistanceOhm = 1e-6;

}  // namespace ntr::spice
