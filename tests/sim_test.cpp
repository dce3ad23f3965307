#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "expt/net_generator.h"
#include "graph/routing_graph.h"
#include "runtime/status.h"
#include "sim/nodal.h"
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

/// Runs `f` and returns the kBadInput message it throws ("" if it throws
/// nothing or something else).
template <class F>
std::string bad_input_message(F&& f) {
  try {
    f();
  } catch (const runtime::NtrError& e) {
    if (e.code() == runtime::StatusCode::kBadInput) return e.what();
  }
  return "";
}

TEST(Mna, ResistorDividerDc) {
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto mid = ckt.add_node("mid");
  ckt.add_voltage_source("V1", in, spice::kGround, 6.0, spice::SourceWaveform::kDc);
  ckt.add_resistor("R1", in, mid, 1000.0);
  ckt.add_resistor("R2", mid, spice::kGround, 2000.0);
  const NodalSystem sys = reduce_deck(ckt);
  ASSERT_EQ(sys.free_nodes(), 1u);
  // The source behind 1 kOhm is a 6 mA Norton current into "mid".
  EXPECT_DOUBLE_EQ(sys.b_final[0], 6e-3);
  EXPECT_NEAR(rc_steady_state(sys).x_inf[0], 4.0, 1e-12);
  const TransientSimulator sim(ckt);
  EXPECT_EQ(sim.final_voltage(in), 6.0);
  EXPECT_NEAR(sim.final_voltage(mid), 4.0, 1e-12);
}

TEST(Mna, FirstMomentOfRcEqualsTau) {
  const double r = 1000.0, c = 1e-12;
  const RcSteadyState dc = rc_steady_state(reduce_deck(rc_lowpass(r, c)));
  ASSERT_EQ(dc.m1.size(), 1u);
  EXPECT_NEAR(dc.m1[0] / dc.x_inf[0], r * c, r * c * 1e-12);
}

TEST(Mna, ReducesRcDecksOnly) {
  const NodalSystem rc = reduce_deck(rc_lowpass(1000.0, 1e-12));
  ASSERT_EQ(rc.free_nodes(), 1u);
  // The step behind 1 kOhm becomes a 1 mA Norton current into "out".
  EXPECT_DOUBLE_EQ(rc.b_final[0], 1e-3);
  EXPECT_EQ(rc.slot_of_node[2], 0u);               // "out" is the unknown
  EXPECT_EQ(rc.slot_of_node[spice::kGround], 1u);  // then ground
  EXPECT_EQ(rc.slot_of_node[1], 2u);               // then the driven "in"
  EXPECT_EQ(rc.fixed_voltages, (linalg::Vector{0.0, 1.0}));
  EXPECT_TRUE(rc.inductors.empty());

  const auto rejects = [](auto&& extra) {
    spice::Circuit ckt = rc_lowpass(1000.0, 1e-12);
    extra(ckt);
    return bad_input_message([&] { (void)TransientSimulator(ckt); });
  };
  // A floating source, a capacitor on a driven node, two sources on one
  // node and an inductor between fixed nodes leave the nodal march: each
  // is a kBadInput naming the element.
  EXPECT_NE(rejects([](spice::Circuit& c) {
              c.add_voltage_source("V2", 1, 2, 1.0, spice::SourceWaveform::kDc);
            }).find("V2"),
            std::string::npos);
  EXPECT_NE(rejects([](spice::Circuit& c) {
              c.add_capacitor("Cin", 1, spice::kGround, 1e-15);
            }).find("Cin touches a driven node"),
            std::string::npos);
  EXPECT_NE(rejects([](spice::Circuit& c) {
              c.add_voltage_source("V2", spice::kGround, 1, 1.0, spice::SourceWaveform::kDc);
            }).find("V2 drives a node another source drives"),
            std::string::npos);
  EXPECT_NE(rejects([](spice::Circuit& c) {
              c.add_inductor("L1", 1, spice::kGround, 1e-9);
            }).find("L1 has both terminals fixed"),
            std::string::npos);
  // Each of two inductors from "in" through a new node to ground has a
  // free terminal, but at DC they short the source.
  EXPECT_NE(rejects([](spice::Circuit& c) {
              const spice::CircuitNode x = c.add_node("x");
              c.add_resistor("Rx", x, 2, 10.0);
              c.add_inductor("L1", 1, x, 1e-9);
              c.add_inductor("L2", x, spice::kGround, 1e-9);
            }).find("V1 must tie exactly one node to ground once inductors short at DC"),
            std::string::npos);
}

TEST(Mna, EmptyCircuitRejected) {
  const spice::Circuit empty;
  EXPECT_NE(bad_input_message([&] { (void)reduce_deck(empty); }).find("no free node"),
            std::string::npos);
  spice::Circuit driven_only;
  const auto in = driven_only.add_node("in");
  driven_only.add_voltage_source("V1", in, spice::kGround, 1.0, spice::SourceWaveform::kStep);
  driven_only.add_resistor("R1", in, spice::kGround, 50.0);
  EXPECT_NE(bad_input_message([&] { (void)TransientSimulator(driven_only); })
                .find("no free node"),
            std::string::npos);
}

TEST(Mna, InductorsJoinTheNodalSystemAndShortAtDc) {
  // The same MST as an RC and as an RLC deck: the RLC deck's DC form
  // merges each wire's series-inductor node into its far end, so both
  // have the same DC steady state and tau up to rounding.
  const spice::Technology tech = spice::kTable1Technology;
  const graph::RoutingGraph g = graph::mst_routing(expt::NetGenerator(3).random_net(6));
  spice::NetlistOptions with_inductance;
  with_inductance.include_inductance = true;
  const spice::GraphNetlist rc = spice::build_netlist(g, tech);
  const spice::GraphNetlist rlc = spice::build_netlist(g, tech, with_inductance);

  // One pi section per wire: its inductor joins the resistor's far end
  // (a node of its own) to the wire's far end, both free.
  const NodalSystem march = reduce_deck(rlc.circuit);
  ASSERT_EQ(march.inductors.size(), g.edge_count());
  EXPECT_EQ(march.free_nodes(), g.node_count() + g.edge_count());
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const NodalInductor& l = march.inductors[e];
    EXPECT_LT(l.a, march.free_nodes());
    EXPECT_LT(l.b, march.free_nodes());
    EXPECT_EQ(l.henries, tech.wire_inductance(g.edge(e).length, g.edge(e).width));
  }
  const NodalSystem dc = reduce_dc_deck(rlc.circuit);
  EXPECT_TRUE(dc.inductors.empty());
  EXPECT_EQ(dc.free_nodes(), reduce_deck(rc.circuit).free_nodes());

  const TransientSimulator a(rc.circuit);
  const TransientSimulator b(rlc.circuit);
  EXPECT_NEAR(b.characteristic_time(), a.characteristic_time(),
              a.characteristic_time() * 1e-12);
  for (graph::NodeId n = 0; n < g.node_count(); ++n)
    EXPECT_NEAR(b.final_voltage(rlc.graph_to_circuit[n]),
                a.final_voltage(rc.graph_to_circuit[n]), 1e-12);
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
  opts.time_step_s = r * c / 400.0;
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

TEST(Transient, UnderdampedSeriesRlcMatchesClosedForm) {
  // in -- R -- a -- L -- out -- C -- gnd: with w0 = 1/sqrt(LC) and
  // zeta = (R/2) sqrt(C/L), the capacitor's unit-step response is
  // 1 - e^{-zeta w0 t} (cos(wd t) + zeta/sqrt(1 - zeta^2) sin(wd t)),
  // wd = w0 sqrt(1 - zeta^2).
  const double r = 20.0, l = 1e-9, c = 1e-12;
  const double w0 = 1.0 / std::sqrt(l * c);
  const double zeta = 0.5 * r * std::sqrt(c / l);  // 0.316
  const double wd = w0 * std::sqrt(1.0 - zeta * zeta);
  const auto exact = [&](double t) {
    return 1.0 - std::exp(-zeta * w0 * t) *
                     (std::cos(wd * t) + zeta / std::sqrt(1.0 - zeta * zeta) * std::sin(wd * t));
  };
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto a = ckt.add_node("a");
  const auto out = ckt.add_node("out");
  ckt.add_voltage_source("V1", in, spice::kGround, 1.0, spice::SourceWaveform::kStep);
  ckt.add_resistor("R1", in, a, r);
  ckt.add_inductor("L1", a, out, l);
  ckt.add_capacitor("C1", out, spice::kGround, c);

  TransientOptions opts;
  opts.time_step_s = 0.5e-12;  // w0 h = 0.016
  TransientSimulator sim(ckt, opts);
  EXPECT_NEAR(sim.characteristic_time(), r * c, r * c * 1e-12);  // the DC form's RC
  EXPECT_NEAR(sim.final_voltage(out), 1.0, 1e-12);
  const std::vector<spice::CircuitNode> watch{out};
  const auto wf = sim.run(600e-12, watch);
  double peak = 0.0;
  for (std::size_t i = 0; i < wf.time_s.size(); ++i) {
    EXPECT_NEAR(wf.voltage_v[0][i], exact(wf.time_s[i]), 1e-3) << "t=" << wf.time_s[i];
    peak = std::max(peak, wf.voltage_v[0][i]);
  }
  // The first overshoot, 1 + e^{-zeta pi / sqrt(1 - zeta^2)} = 1.35.
  EXPECT_NEAR(peak, 1.0 + std::exp(-zeta * std::numbers::pi / std::sqrt(1.0 - zeta * zeta)), 5e-4);

  // The 50% crossing by bisection on the rising edge before the first peak.
  double lo = 0.0, hi = std::numbers::pi / wd;
  for (int i = 0; i < 200; ++i) (exact(0.5 * (lo + hi)) < 0.5 ? lo : hi) = 0.5 * (lo + hi);
  const auto report = sim.measure_crossings(watch, 0.5);
  ASSERT_TRUE(report.all_crossed);
  EXPECT_NEAR(report.crossing_s[0], lo, 0.005 * opts.time_step_s);
}

/// The dense MNA + LU engine's step responses of RLC decks, recorded as
/// hex floats from that engine before the nodal march replaced it: the
/// first two MSTs of ablation_inductance's corpus at each size (seed
/// 19940101 + pins), and the first 10-pin one with a wire from node 0 to
/// node 9 added.
struct DenseRecord {
  std::size_t pins;
  int trial;
  bool cycle;
  double tau_s;
  std::vector<double> crossing_s;  ///< per sink, in sink order
};

const std::vector<DenseRecord>& dense_rlc_records() {
  static const std::vector<DenseRecord> records = {
    {5, 0, false, 0x1.4b7082454d3a9p-30,
     {0x1.89571535edff1p-31, 0x1.f9e486b187d2fp-31, 0x1.deaf7cbe3711cp-32,
      0x1.0e46214ec16dcp-31}},
    {5, 1, false, 0x1.f91b01ee8d7bap-31,
     {0x1.82a4be12c193ap-31, 0x1.ea961216f62efp-33, 0x1.4601572792e62p-31,
      0x1.bc110efe4f381p-32}},
    {10, 0, false, 0x1.25f073694f8f4p-28,
     {0x1.5e3e29cfda54ap-29, 0x1.8186460ca892bp-33, 0x1.74cbcd1943337p-29,
      0x1.0520821b636fcp-29, 0x1.b4786808401bdp-29, 0x1.bc66ec9906966p-30,
      0x1.53e48bb4f31ebp-29, 0x1.9f65570dc4bap-29, 0x1.a08a97f1b5eb2p-29}},
    {10, 1, false, 0x1.b8ecfe6587f12p-30,
     {0x1.1d34c0c4f8becp-30, 0x1.32c450a8666b3p-31, 0x1.3f166cfe1f613p-30,
      0x1.19e21c38d3372p-30, 0x1.51bf44120ab3bp-30, 0x1.d40e560e89571p-31,
      0x1.1c76dac7f06d1p-30, 0x1.672950bc4fe0dp-31, 0x1.9b57f28ec5e52p-31}},
    {20, 0, false, 0x1.a0a7d7fcebb3bp-29,
     {0x1.be8e59c21d81fp-30, 0x1.b6cb8446ddafcp-30, 0x1.697af1a22f673p-31,
      0x1.3f850b490e887p-29, 0x1.b24470059f297p-30, 0x1.33718b9b933cep-29,
      0x1.07ec067ac4ba9p-30, 0x1.3d600fb05552cp-29, 0x1.a2f45eea98857p-30,
      0x1.b1ab7cce3a4a2p-30, 0x1.a5950f9db196fp-30, 0x1.3cfb789f70063p-29,
      0x1.b89fc58559789p-30, 0x1.834fffeda4f2ap-30, 0x1.3cef499750efep-29,
      0x1.07f1cde700b4fp-30, 0x1.881b03f0e459p-30, 0x1.0baad77f03f2ap-29,
      0x1.fa291be9e2bb5p-31}},
    {20, 1, false, 0x1.4565a587d1691p-28,
     {0x1.f767458360302p-29, 0x1.dd90d6f09c6b5p-30, 0x1.bad776c9e0d6dp-30,
      0x1.bfe2dd266ba77p-29, 0x1.0809fd967ddaep-30, 0x1.7604b13b5dda4p-30,
      0x1.4b92653799637p-30, 0x1.0c8d49d5b58d5p-30, 0x1.66b0a08a49411p-31,
      0x1.b4584c7fd5419p-29, 0x1.9eb7bbb274b7ap-29, 0x1.5d749c7df8137p-29,
      0x1.26fa7d10dd4c5p-29, 0x1.7d0b7d7c44c82p-30, 0x1.89b2de8cff06ap-31,
      0x1.e34f263cbdb4fp-29, 0x1.c35e9c8c8764bp-29, 0x1.e652844f6c5p-29,
      0x1.d3ae5782f05f1p-30}},
    {30, 0, false, 0x1.40559d5f2c32ep-28,
     {0x1.f3efe32f8b31fp-30, 0x1.7c0f68184296ap-29, 0x1.cc04398f8640dp-29,
      0x1.cb0b13c7f45c7p-29, 0x1.d531de670b773p-29, 0x1.d11b87123fe75p-30,
      0x1.dafea58994323p-30, 0x1.dcd4cac01a5aap-29, 0x1.e9e0456a25461p-29,
      0x1.db6e4626903fep-29, 0x1.364e8cdabb298p-30, 0x1.d29877e9b49f2p-29,
      0x1.708b3ea9d93f3p-30, 0x1.e6fe4fb690bf1p-29, 0x1.552506235f24dp-29,
      0x1.58468917cb916p-29, 0x1.a5789fcb70a66p-29, 0x1.f7584c906ca36p-30,
      0x1.d8986e5eb729ap-29, 0x1.a6b9a08ea65f6p-30, 0x1.062aba7e57765p-29,
      0x1.d3e9ac8ccb8f6p-30, 0x1.e4b7363f2325cp-30, 0x1.cc9fd9fe109fdp-30,
      0x1.b43e0c9471c89p-29, 0x1.bf5a1348060ffp-29, 0x1.d17593f203895p-29,
      0x1.14fcc68443f46p-30, 0x1.41c84768b94e1p-30}},
    {30, 1, false, 0x1.904fb67f06f14p-28,
     {0x1.2f6f00b77b06fp-28, 0x1.32c3b485ecaa1p-28, 0x1.e81e7fd7854aep-29,
      0x1.96c30702df663p-30, 0x1.2f7d991028544p-28, 0x1.ecc7a1b17c9f5p-29,
      0x1.2d79637604cadp-28, 0x1.bdd094a6e086p-30, 0x1.32a53578b891dp-28,
      0x1.e53a31a0275c6p-30, 0x1.2e635f552e65dp-28, 0x1.2874f87ff9fa7p-28,
      0x1.e89d4bc2ee3b7p-29, 0x1.7973bb67baf4dp-29, 0x1.b89f66971ad7fp-30,
      0x1.044b6e8c20f7dp-29, 0x1.2e03dfa66ab67p-28, 0x1.d8da1fe0b1e4fp-30,
      0x1.0765dd0d3d188p-28, 0x1.2bc19f5e15e5cp-30, 0x1.d67c2e7995c28p-30,
      0x1.cdf551af71d51p-30, 0x1.508a62ea32823p-30, 0x1.0090812d5cc3ep-30,
      0x1.cd5fc7fb18d8p-30, 0x1.34407521533a4p-28, 0x1.2cf31f2ecf75ap-28,
      0x1.d41a1669a8c53p-30, 0x1.d98172517dac1p-30}},
    {10, 0, true, 0x1.0861cd8462e2dp-28,
     {0x1.5fbb3e8a125d4p-29, 0x1.140b52c79d79dp-31, 0x1.7657113b1a7cep-29,
      0x1.2043255dfe0dbp-29, 0x1.87df5e063c3c1p-29, 0x1.05d9865fe0ae2p-29,
      0x1.5558b0fd8cbd4p-29, 0x1.72c240b0017f2p-29, 0x1.6a0e15ed44e42p-29}},
  };
  return records;
}

TEST(Transient, RlcMarchMatchesTheDenseLuRecord) {
  const spice::Technology tech = spice::kTable1Technology;
  spice::NetlistOptions with_inductance;
  with_inductance.include_inductance = true;
  for (const DenseRecord& record : dense_rlc_records()) {
    expt::NetGenerator gen(19940101 + record.pins);
    graph::Net net = gen.random_net(record.pins);
    for (int t = 0; t < record.trial; ++t) net = gen.random_net(record.pins);
    graph::RoutingGraph g = graph::mst_routing(net);
    if (record.cycle) g.add_edge(0, 9);
    const spice::GraphNetlist netlist = spice::build_netlist(g, tech, with_inductance);
    std::vector<spice::CircuitNode> watch;
    for (const graph::NodeId n : netlist.sink_graph_nodes)
      watch.push_back(netlist.graph_to_circuit[n]);
    ASSERT_EQ(watch.size(), record.crossing_s.size());

    TransientSimulator sim(netlist.circuit);
    EXPECT_NEAR(sim.characteristic_time(), record.tau_s, record.tau_s * 1e-12)
        << record.pins << " pins, trial " << record.trial;
    const auto report = sim.measure_crossings(watch, tech.threshold_fraction);
    ASSERT_TRUE(report.all_crossed);
    for (std::size_t k = 0; k < watch.size(); ++k)
      EXPECT_NEAR(report.crossing_s[k], record.crossing_s[k], record.crossing_s[k] * 1e-9)
          << record.pins << " pins, trial " << record.trial << ", sink " << k;
  }
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
  // A 12-pin net with a cycle and a coupling capacitor between two sinks,
  // which puts C off the diagonal. The dense MNA + LU engine measured its
  // twin with 1 fF more on the ideal source's node, which changes no
  // other voltage; recorded here as hex floats: tau, then the crossings
  // of the driver input and of every sink.
  const spice::Technology tech = spice::kTable1Technology;
  graph::RoutingGraph g = graph::mst_routing(expt::NetGenerator(5).random_net(12));
  g.add_edge(0, g.node_count() - 1);  // one cycle
  spice::GraphNetlist netlist = spice::build_netlist(g, tech);
  netlist.circuit.add_capacitor("Ccouple", netlist.graph_to_circuit[1],
                                netlist.graph_to_circuit[2], 5e-15);
  const double dense_tau = 0x1.485b96552d06ep-28;
  const std::vector<double> dense_crossing = {
      0x1.a44c458bbec12p-37, 0x1.924869c7d6cbep-29, 0x1.1126bbf72327dp-29,
      0x1.7c2de83a5b258p-29, 0x1.d19725ef5a15cp-31, 0x1.4e4925e219e89p-29,
      0x1.c4bed6d1c78c2p-29, 0x1.0542422bb62a1p-29, 0x1.27538efc527f4p-29,
      0x1.000bfcfec69a8p-28, 0x1.e4e4c5dc7d92p-29, 0x1.32dec266925a8p-29};

  std::vector<spice::CircuitNode> watch{netlist.driver_input};
  for (const graph::NodeId n : netlist.sink_graph_nodes)
    watch.push_back(netlist.graph_to_circuit[n]);
  ASSERT_EQ(watch.size(), dense_crossing.size());
  TransientSimulator rc(netlist.circuit);
  EXPECT_NEAR(rc.characteristic_time(), dense_tau, dense_tau * 1e-12);
  const auto a = rc.measure_crossings(watch);
  ASSERT_TRUE(a.all_crossed);
  for (std::size_t k = 0; k < watch.size(); ++k) {
    EXPECT_NEAR(a.crossing_s[k], dense_crossing[k], dense_crossing[k] * 1e-9) << k;
    EXPECT_NEAR(a.final_v[k], tech.vdd_v, 1e-12) << k;
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
  EXPECT_EQ(reduce_deck(ckt).free_nodes(), 2u);
  try {
    TransientSimulator sim(ckt);
    FAIL() << "a node with no DC path must not simulate";
  } catch (const runtime::NtrError& e) {
    EXPECT_EQ(e.code(), runtime::StatusCode::kSingular);
    EXPECT_NE(std::string(e.what()).find("rc_steady_state: G is singular"),
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
  EXPECT_EQ(reduce_deck(ckt).fixed_voltages, (linalg::Vector{0.0, -1.0}));
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
  // A negative or NaN horizon would otherwise ask for about 2^63 or more
  // steps.
  EXPECT_THROW(sim.run(-1e-6, watch), std::invalid_argument);
  EXPECT_THROW(sim.run(std::numeric_limits<double>::quiet_NaN(), watch),
               std::invalid_argument);
  EXPECT_EQ(sim.run(0.0, watch).time_s.size(), 1u);
}

}  // namespace
}  // namespace ntr::sim
