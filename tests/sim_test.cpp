#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "expt/net_generator.h"
#include "graph/routing_graph.h"
#include "runtime/status.h"
#include "sim/mna.h"
#include "sim/transient.h"
#include "spice/graph_netlist.h"
#include "spice/netlist.h"
#include "spice/technology.h"

namespace ntr::sim {
namespace {

constexpr double kLn2 = 0.6931471805599453;

/// V -- R -- node -- C -- gnd, driven by a 1V step.
spice::Circuit rc_lowpass(double r, double c) {
  spice::Circuit ckt;
  const spice::CircuitNode in = ckt.add_node("in");
  const spice::CircuitNode out = ckt.add_node("out");
  ckt.add_voltage_source("V1", in, spice::kGround, 1.0, spice::SourceWaveform::kStep);
  ckt.add_resistor("R1", in, out, r);
  ckt.add_capacitor("C1", out, spice::kGround, c);
  return ckt;
}

TEST(Mna, ResistorDividerDc) {
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto mid = ckt.add_node("mid");
  ckt.add_voltage_source("V1", in, spice::kGround, 6.0, spice::SourceWaveform::kDc);
  ckt.add_resistor("R1", in, mid, 1000.0);
  ckt.add_resistor("R2", mid, spice::kGround, 2000.0);
  const MnaSystem mna = assemble_mna(ckt);
  EXPECT_EQ(mna.node_unknowns, 2u);
  EXPECT_EQ(mna.branch_unknowns, 1u);
  const linalg::Vector x = dc_operating_point(mna);
  EXPECT_NEAR(mna.node_voltage(x, in), 6.0, 1e-9);
  EXPECT_NEAR(mna.node_voltage(x, mid), 4.0, 1e-9);
  // Source branch current: 6V across 3k = 2mA flowing out of the source.
  EXPECT_NEAR(std::abs(x[mna.node_unknowns]), 2e-3, 1e-9);
}

TEST(Mna, FirstMomentOfRcEqualsTau) {
  const double r = 1000.0, c = 1e-12;
  const MnaSystem mna = assemble_mna(rc_lowpass(r, c));
  const linalg::Vector x_inf = dc_operating_point(mna);
  const linalg::Vector m1 = first_moment(mna, x_inf);
  const std::size_t out_idx = mna.unknown_of_node(2);  // "out" is node 2
  EXPECT_NEAR(m1[out_idx] / x_inf[out_idx], r * c, r * c * 1e-9);
}

TEST(Mna, ReducesRcDecksOnly) {
  const auto rc = reduce_rc_deck(rc_lowpass(1000.0, 1e-12));
  ASSERT_TRUE(rc.has_value());
  ASSERT_EQ(rc->free_nodes(), 1u);
  // The step behind 1 kOhm becomes a 1 mA Norton current into "out".
  EXPECT_DOUBLE_EQ(rc->b_final[0], 1e-3);
  EXPECT_EQ(rc->slot_of_node[2], 0u);               // "out" is the unknown
  EXPECT_EQ(rc->slot_of_node[spice::kGround], 1u);  // then ground
  EXPECT_EQ(rc->slot_of_node[1], 2u);               // then the driven "in"
  EXPECT_EQ(rc->fixed_voltages, (linalg::Vector{0.0, 1.0}));

  const auto deck = [](auto&& extra) {
    spice::Circuit ckt = rc_lowpass(1000.0, 1e-12);
    extra(ckt);
    return ckt;
  };
  // An inductor, a floating source, a capacitor on a driven node and two
  // sources on one node all leave the deck to the dense MNA path.
  EXPECT_FALSE(reduce_rc_deck(deck([](spice::Circuit& c) {
    c.add_inductor("L1", 2, spice::kGround, 1e-9);
  })));
  EXPECT_FALSE(reduce_rc_deck(deck([](spice::Circuit& c) {
    c.add_voltage_source("V2", 1, 2, 1.0, spice::SourceWaveform::kDc);
  })));
  EXPECT_FALSE(reduce_rc_deck(deck([](spice::Circuit& c) {
    c.add_capacitor("Cin", 1, spice::kGround, 1e-15);
  })));
  EXPECT_FALSE(reduce_rc_deck(deck([](spice::Circuit& c) {
    c.add_voltage_source("V2", spice::kGround, 1, 1.0, spice::SourceWaveform::kDc);
  })));
}

TEST(Mna, EmptyCircuitRejected) {
  const spice::Circuit empty;
  EXPECT_THROW(assemble_mna(empty), std::invalid_argument);
}

TEST(Transient, RcStepMatchesAnalyticHalfDelay) {
  const double r = 1000.0, c = 1e-12;  // tau = 1ns
  TransientSimulator sim(rc_lowpass(r, c));
  EXPECT_NEAR(sim.characteristic_time(), r * c, r * c * 1e-6);

  const std::vector<spice::CircuitNode> watch{2};
  const auto report = sim.measure_crossings(watch, 0.5);
  ASSERT_TRUE(report.all_crossed);
  // Analytic 50% crossing: tau * ln 2.
  EXPECT_NEAR(report.crossing_s[0], r * c * kLn2, r * c * kLn2 * 5e-3);
  EXPECT_NEAR(report.final_v[0], 1.0, 1e-9);
}

TEST(Transient, RcStepWaveformMatchesExponential) {
  const double r = 500.0, c = 2e-12;  // tau = 1ns
  TransientOptions opts;
  opts.steps_per_tau = 400.0;
  TransientSimulator sim(rc_lowpass(r, c), opts);
  const std::vector<spice::CircuitNode> watch{2};
  const auto wf = sim.run(3e-9, watch);
  ASSERT_GT(wf.time_s.size(), 100u);
  for (std::size_t i = 0; i < wf.time_s.size(); i += 50) {
    const double t = wf.time_s[i];
    const double expected = 1.0 - std::exp(-t / (r * c));
    EXPECT_NEAR(wf.voltage_v[0][i], expected, 6e-3) << "t=" << t;
  }
}

TEST(Transient, BackwardEulerAgreesWithTrapezoidalOnFineGrid) {
  const double r = 1000.0, c = 1e-12;
  TransientOptions be;
  be.method = Integration::kBackwardEuler;
  be.steps_per_tau = 4000.0;
  TransientOptions trap;
  trap.steps_per_tau = 400.0;

  const std::vector<spice::CircuitNode> watch{2};
  const double d_be =
      TransientSimulator(rc_lowpass(r, c), be).measure_crossings(watch).crossing_s[0];
  const double d_trap =
      TransientSimulator(rc_lowpass(r, c), trap).measure_crossings(watch).crossing_s[0];
  EXPECT_NEAR(d_be, d_trap, r * c * 1e-2);
}

TEST(Transient, TwoStageLadderElmoreIsUpperBound) {
  // in -- R1 -- a -- R2 -- b, caps at a and b. Elmore(b) = R1(Ca+Cb)+R2 Cb.
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto a = ckt.add_node("a");
  const auto b = ckt.add_node("b");
  ckt.add_voltage_source("V1", in, spice::kGround, 1.0, spice::SourceWaveform::kStep);
  ckt.add_resistor("R1", in, a, 1000.0);
  ckt.add_resistor("R2", a, b, 2000.0);
  ckt.add_capacitor("Ca", a, spice::kGround, 1e-12);
  ckt.add_capacitor("Cb", b, spice::kGround, 3e-12);

  const double elmore_b = 1000.0 * (1e-12 + 3e-12) + 2000.0 * 3e-12;  // 10ns
  TransientSimulator sim(ckt);
  EXPECT_NEAR(sim.characteristic_time(), elmore_b, elmore_b * 1e-6);

  const std::vector<spice::CircuitNode> watch{b};
  const auto report = sim.measure_crossings(watch, 0.5);
  ASSERT_TRUE(report.all_crossed);
  // 50% delay never exceeds Elmore on RC trees, and is above the
  // single-pole lower bound ln(2) * dominant-time-constant heuristically.
  EXPECT_LT(report.crossing_s[0], elmore_b);
  EXPECT_GT(report.crossing_s[0], 0.3 * elmore_b);
}

TEST(Transient, InductorBranchRlDecay) {
  // in -- R -- a -- L -- gnd: v_a(t) = e^{-tR/L} after a unit step.
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto a = ckt.add_node("a");
  ckt.add_voltage_source("V1", in, spice::kGround, 1.0, spice::SourceWaveform::kStep);
  ckt.add_resistor("R1", in, a, 100.0);
  ckt.add_inductor("L1", a, spice::kGround, 1e-6);  // tau = L/R = 10ns

  TransientOptions opts;
  opts.time_step_s = 1e-11;
  opts.max_time_s = 50e-9;
  TransientSimulator sim(ckt, opts);
  const std::vector<spice::CircuitNode> watch{a};
  const auto wf = sim.run(30e-9, watch);
  const double tau = 1e-6 / 100.0;
  // Skip the first BE startup samples, then compare against the decay.
  for (std::size_t i = 10; i < wf.time_s.size(); i += 200) {
    const double expected = std::exp(-wf.time_s[i] / tau);
    EXPECT_NEAR(wf.voltage_v[0][i], expected, 2e-2) << "t=" << wf.time_s[i];
  }
  // DC final value of an inductor to ground is 0.
  EXPECT_NEAR(sim.final_voltage(a), 0.0, 1e-9);
}

TEST(Transient, NodeWithZeroFinalValueReportsNoCrossing) {
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto a = ckt.add_node("a");
  const auto orphan = ckt.add_node("orphan");
  ckt.add_voltage_source("V1", in, spice::kGround, 1.0, spice::SourceWaveform::kStep);
  ckt.add_resistor("R1", in, a, 100.0);
  ckt.add_capacitor("Ca", a, spice::kGround, 1e-12);
  ckt.add_resistor("Rorphan", orphan, spice::kGround, 1000.0);
  ckt.add_capacitor("Corphan", orphan, spice::kGround, 1e-12);

  TransientSimulator sim(ckt);
  const std::vector<spice::CircuitNode> watch{a, orphan};
  const auto report = sim.measure_crossings(watch);
  EXPECT_FALSE(report.all_crossed);
  EXPECT_TRUE(std::isfinite(report.crossing_s[0]));
  EXPECT_TRUE(std::isinf(report.crossing_s[1]));
  EXPECT_TRUE(std::isinf(report.max_crossing_s));
}

TEST(Transient, RcBackendMatchesDenseMnaOnANet) {
  // A capacitor on the ideal source's node changes no other voltage, but
  // it sends the deck down the dense MNA path: the two backends must agree.
  const spice::Technology tech = spice::kTable1Technology;
  graph::RoutingGraph g = graph::mst_routing(expt::NetGenerator(5).random_net(12));
  g.add_edge(0, g.node_count() - 1);  // one cycle
  spice::GraphNetlist netlist = spice::build_netlist(g, tech);
  // A coupling capacitor between two sinks puts C off the diagonal.
  netlist.circuit.add_capacitor("Ccouple", netlist.graph_to_circuit[1],
                                netlist.graph_to_circuit[2], 5e-15);
  spice::Circuit dense_deck = netlist.circuit;
  dense_deck.add_capacitor("Cin", netlist.driver_input, spice::kGround, 1e-15);
  ASSERT_TRUE(reduce_rc_deck(netlist.circuit).has_value());
  ASSERT_FALSE(reduce_rc_deck(dense_deck).has_value());

  std::vector<spice::CircuitNode> watch{netlist.driver_input};
  for (const graph::NodeId n : netlist.sink_graph_nodes)
    watch.push_back(netlist.graph_to_circuit[n]);
  TransientSimulator rc(netlist.circuit);
  TransientSimulator dense(dense_deck);
  EXPECT_NEAR(rc.characteristic_time(), dense.characteristic_time(),
              dense.characteristic_time() * 1e-12);
  const auto a = rc.measure_crossings(watch);
  const auto b = dense.measure_crossings(watch);
  ASSERT_TRUE(a.all_crossed);
  ASSERT_TRUE(b.all_crossed);
  for (std::size_t k = 0; k < watch.size(); ++k) {
    EXPECT_NEAR(a.crossing_s[k], b.crossing_s[k], b.crossing_s[k] * 1e-9) << k;
    EXPECT_NEAR(a.final_v[k], b.final_v[k], 1e-12) << k;
  }
  // The driven node holds its source level from the first step on.
  EXPECT_EQ(rc.final_voltage(netlist.driver_input), tech.vdd_v);
  const auto wf = rc.run(10 * rc.time_step(), watch);
  EXPECT_EQ(wf.voltage_v[0][0], 0.0);
  EXPECT_EQ(wf.voltage_v[0][1], tech.vdd_v);
}

TEST(Transient, RcDeckWithAFloatingNodeIsSingular) {
  spice::Circuit ckt = rc_lowpass(1000.0, 1e-12);
  const spice::CircuitNode island = ckt.add_node("island");
  ckt.add_capacitor("Cisland", island, spice::kGround, 1e-12);
  ASSERT_TRUE(reduce_rc_deck(ckt).has_value());
  try {
    TransientSimulator sim(ckt);
    FAIL() << "a node with no DC path must not simulate";
  } catch (const runtime::NtrError& e) {
    EXPECT_EQ(e.code(), runtime::StatusCode::kSingular);
    EXPECT_NE(std::string(e.what()).find("dc_operating_point: G is singular"),
              std::string::npos)
        << e.what();
  }
}

TEST(Transient, NegativeSourceDrivesItsNodeBelowGround) {
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto out = ckt.add_node("out");
  ckt.add_voltage_source("V1", spice::kGround, in, 1.0, spice::SourceWaveform::kStep);
  ckt.add_resistor("R1", in, out, 1000.0);
  ckt.add_capacitor("C1", out, spice::kGround, 1e-12);
  ASSERT_TRUE(reduce_rc_deck(ckt).has_value());
  TransientSimulator sim(ckt);
  EXPECT_DOUBLE_EQ(sim.final_voltage(in), -1.0);
  EXPECT_NEAR(sim.final_voltage(out), -1.0, 1e-12);
  const std::vector<spice::CircuitNode> watch{out};
  const auto wf = sim.run(1e-9, watch);
  const double expected = -(1.0 - std::exp(-wf.time_s.back() / 1e-9));
  EXPECT_NEAR(wf.voltage_v[0].back(), expected, 6e-3);
}

TEST(Transient, ThresholdValidation) {
  TransientSimulator sim(rc_lowpass(1000.0, 1e-12));
  const std::vector<spice::CircuitNode> watch{2};
  EXPECT_THROW(sim.measure_crossings(watch, 0.0), std::invalid_argument);
  EXPECT_THROW(sim.measure_crossings(watch, 1.0), std::invalid_argument);
}

TEST(Transient, MaxThresholdDelayHelper) {
  const double r = 1000.0, c = 1e-12;
  const std::vector<spice::CircuitNode> watch{2};
  const double d = max_threshold_delay(rc_lowpass(r, c), watch);
  EXPECT_NEAR(d, r * c * kLn2, r * c * 1e-2);
}

}  // namespace
}  // namespace ntr::sim
