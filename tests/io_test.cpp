#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "expt/net_generator.h"
#include "io/cli.h"
#include "io/net_io.h"

namespace ntr::io {
namespace {

TEST(NetIo, ReadBasicNet) {
  const graph::Net net = read_net(
      "# comment line\n"
      "pin 0 0\n"
      "pin 1250.5 3400  # trailing comment\n"
      "\n"
      "pin 9000 100\n");
  ASSERT_EQ(net.size(), 3u);
  EXPECT_EQ(net.source(), (geom::Point{0, 0}));
  EXPECT_EQ(net.pins[1], (geom::Point{1250.5, 3400}));
}

TEST(NetIo, NetRoundTrip) {
  expt::NetGenerator gen(42);
  const graph::Net original = gen.random_net(15);
  const graph::Net reparsed = read_net(write_net(original));
  ASSERT_EQ(reparsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(reparsed.pins[i].x, original.pins[i].x, 1e-6);
    EXPECT_NEAR(reparsed.pins[i].y, original.pins[i].y, 1e-6);
  }
}

TEST(NetIo, RejectsMalformedNets) {
  EXPECT_THROW(read_net("pin 1\n"), std::invalid_argument);
  EXPECT_THROW(read_net("pin a b\n"), std::invalid_argument);
  EXPECT_THROW(read_net("vertex 1 2\n"), std::invalid_argument);
  EXPECT_THROW(read_net("pin 0 0\n"), std::invalid_argument);          // one pin only
  EXPECT_THROW(read_net("pin 0 0\npin 0 0\n"), std::invalid_argument); // duplicate
}

TEST(NetIo, RoutingRoundTripPreservesEverything) {
  graph::Net net{{{0, 0}, {5000, 100}, {10000, 0}}};
  graph::RoutingGraph g(net);
  const graph::EdgeId long_edge = g.add_edge(0, 2);
  const graph::NodeId mid = g.split_edge(long_edge, {5000, 0});
  g.add_edge(mid, 1);
  g.set_edge_width(*g.find_edge(0, mid), 2.5);

  const graph::RoutingGraph back = read_routing(write_routing(g));
  ASSERT_EQ(back.node_count(), g.node_count());
  ASSERT_EQ(back.edge_count(), g.edge_count());
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    EXPECT_EQ(back.node(n).pos, g.node(n).pos);
    EXPECT_EQ(back.node(n).kind, g.node(n).kind);
  }
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(back.edge(e).u, g.edge(e).u);
    EXPECT_EQ(back.edge(e).v, g.edge(e).v);
    EXPECT_DOUBLE_EQ(back.edge(e).width, g.edge(e).width);
    EXPECT_DOUBLE_EQ(back.edge(e).length, g.edge(e).length);
  }
}

TEST(NetIo, RoutingValidation) {
  EXPECT_THROW(read_routing(""), std::invalid_argument);
  EXPECT_THROW(read_routing("node 0 0 sink\n"), std::invalid_argument);  // no source
  EXPECT_THROW(read_routing("node 0 0 source\nnode 1 1 wat\n"),
               std::invalid_argument);
  EXPECT_THROW(read_routing("edge 0 1\nnode 0 0 source\n"), std::invalid_argument);
}

TEST(NetIo, FileRoundTrip) {
  const std::string dir = ::testing::TempDir();
  expt::NetGenerator gen(9);
  const graph::Net net = gen.random_net(8);
  write_net_file(dir + "/io_test.net", net);
  EXPECT_EQ(read_net_file(dir + "/io_test.net").size(), net.size());

  const graph::RoutingGraph g = graph::mst_routing(net);
  write_routing_file(dir + "/io_test.route", g);
  EXPECT_EQ(read_routing_file(dir + "/io_test.route").edge_count(), g.edge_count());

  EXPECT_THROW(read_net_file(dir + "/does_not_exist.net"), std::runtime_error);
}

std::vector<std::string> args(std::initializer_list<const char*> list) {
  return {list.begin(), list.end()};
}

TEST(Cli, ParsesTypicalInvocation) {
  const CliOptions opts = parse_cli(args({"--random", "10", "--seed", "7",
                                          "--strategy", "sldrg", "--evaluator", "d2m",
                                          "--svg", "out.svg", "--report"}));
  EXPECT_EQ(opts.random_pins, 10u);
  EXPECT_EQ(opts.seed, 7u);
  EXPECT_EQ(opts.strategy, core::Strategy::kSldrg);
  EXPECT_EQ(opts.evaluator, "d2m");
  EXPECT_EQ(opts.svg_path, "out.svg");
  EXPECT_TRUE(opts.per_sink_report);
}

TEST(Cli, StrategyNames) {
  EXPECT_EQ(strategy_from_name("mst"), core::Strategy::kMst);
  EXPECT_EQ(strategy_from_name("ert-ldrg"), core::Strategy::kErtLdrg);
  EXPECT_EQ(strategy_from_name("h3"), core::Strategy::kH3);
  EXPECT_THROW(strategy_from_name("bogus"), std::invalid_argument);
}

TEST(Cli, InputExclusivity) {
  EXPECT_THROW(parse_cli(args({"--strategy", "mst"})), std::invalid_argument);
  EXPECT_THROW(parse_cli(args({"--net", "a.net", "--random", "5"})),
               std::invalid_argument);
  EXPECT_NO_THROW(parse_cli(args({"--net", "a.net"})));
}

TEST(Cli, ValueValidation) {
  EXPECT_THROW(parse_cli(args({"--random"})), std::invalid_argument);
  EXPECT_THROW(parse_cli(args({"--random", "xyz"})), std::invalid_argument);
  EXPECT_THROW(parse_cli(args({"--random", "5", "--pd", "1.5"})),
               std::invalid_argument);
  EXPECT_THROW(parse_cli(args({"--random", "5", "--brbc", "-1"})),
               std::invalid_argument);
  EXPECT_THROW(parse_cli(args({"--random", "5", "--pd", "0.5", "--brbc", "1"})),
               std::invalid_argument);
  EXPECT_THROW(parse_cli(args({"--random", "5", "--evaluator", "hspice"})),
               std::invalid_argument);
  EXPECT_THROW(parse_cli(args({"--random", "5", "--frobnicate"})),
               std::invalid_argument);
  for (const char* seed : {"1e20", "nan", "-1", "12x"})
    EXPECT_THROW(parse_cli(args({"--random", "5", "--seed", seed})),
                 std::invalid_argument)
        << seed;
  EXPECT_THROW(parse_cli(args({"--random", "5", "--deadline-ms", "nan"})),
               std::invalid_argument);
}

TEST(CliNumbers, IntegersAreExact) {
  EXPECT_EQ(parse_uint("--n", "0"), 0u);
  EXPECT_EQ(parse_uint("--n", "007"), 7u);
  EXPECT_EQ(parse_uint("--n", "18446744073709551615"), 18446744073709551615u);
  // A sign, a fraction, an exponent, blanks, trailing characters or an
  // empty value are errors, never a wrapped or truncated number.
  for (const char* bad : {"-1", "+1", "1.5", "1e3", "1e20", "nan", "inf", " 1",
                          "1 ", "12x", "0x10", "", "abc"})
    EXPECT_THROW((void)parse_uint("--n", bad), std::invalid_argument) << bad;
  EXPECT_THROW((void)parse_uint("--n", "18446744073709551616"), std::invalid_argument);
  try {
    (void)parse_uint("--threads", "-1");
    ADD_FAILURE() << "-1 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads expects"), std::string::npos)
        << e.what();
  }
}

TEST(CliNumbers, RealsAreFinite) {
  EXPECT_EQ(parse_double("--x", "0.0001"), 0.0001);
  EXPECT_EQ(parse_double("--x", "1e3"), 1000.0);
  EXPECT_EQ(parse_double("--x", "-2.5"), -2.5);
  for (const char* bad : {"abc", "1.5ms", "", " 1", "nan", "inf", "-inf", "1e999"})
    EXPECT_THROW((void)parse_double("--x", bad), std::invalid_argument) << bad;
}

TEST(CliNumbers, PortsStopAt65535) {
  EXPECT_EQ(parse_port("--port", "0"), 0u);
  EXPECT_EQ(parse_port("--port", "65535"), 65535u);
  for (const char* bad : {"65536", "70000", "-1", "18446744073709551615"})
    EXPECT_THROW((void)parse_port("--port", bad), std::invalid_argument) << bad;
}

// Lane and client counts share one bound; checked at parse time only, so
// no test here starts a thread.
TEST(CliNumbers, LaneCountsStopAtTheBound) {
  EXPECT_EQ(parse_lanes("--threads", "0"), 0u);
  EXPECT_EQ(parse_lanes("--threads", std::to_string(kMaxLanes)), kMaxLanes);
  for (const std::string& bad : {std::to_string(kMaxLanes + 1), std::string("65536"),
                                 std::string("18446744073709551615"), std::string("-1"),
                                 std::string("4x")})
    EXPECT_THROW((void)parse_lanes("--clients", bad), std::invalid_argument) << bad;
  try {
    (void)parse_lanes("NTR_THREADS", "100000");
    ADD_FAILURE() << "100000 lanes parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("NTR_THREADS expects"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parse_cli(args({"--random", "5", "--threads", "256"})).threads, 256u);
  EXPECT_THROW(parse_cli(args({"--random", "5", "--threads", "257"})),
               std::invalid_argument);
}

// NTR_SIZES and ntr_experiment --sizes: every entry is a net of at least
// two pins; an empty entry (including an empty list) is an error.
TEST(CliNumbers, SizeListsAreExact) {
  EXPECT_EQ(parse_sizes("--sizes", "6"), (std::vector<std::size_t>{6}));
  EXPECT_EQ(parse_sizes("NTR_SIZES", "2,10,400"), (std::vector<std::size_t>{2, 10, 400}));
  for (const char* bad : {"", ",", "5,", ",5", "5,,10", "5,1", "0", "5;10", "5, 10", "x"})
    EXPECT_THROW((void)parse_sizes("NTR_SIZES", bad), std::invalid_argument) << bad;
  try {
    (void)parse_sizes("NTR_SIZES", "10,1,20");
    ADD_FAILURE() << "a 1-pin net parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "NTR_SIZES expects a net size of at least 2 pins, got '1'");
  }
}

// ntr_serve and ntr_chaosproxy end a port file with a newline, so text
// without one may be a half-written port ("80" of "8080").
TEST(PortFile, TextIsOnePortAndItsNewline) {
  EXPECT_EQ(port_file_text("8080\n"), std::optional<std::uint16_t>(8080));
  EXPECT_EQ(port_file_text("65535\n"), std::optional<std::uint16_t>(65535));
  for (const char* bad : {"", "\n", "80", "8080", "8080x\n", "abc\n", " 8080\n",
                          "8080\n\n", "-1\n", "0\n", "65536\n"})
    EXPECT_EQ(port_file_text(bad), std::nullopt) << bad;
  const std::string path = ::testing::TempDir() + "io_test_port_file";
  std::ofstream(path) << 4242 << "\n";
  EXPECT_EQ(read_port_file(path), std::optional<std::uint16_t>(4242));
  std::remove(path.c_str());
}

TEST(Cli, HelpBypassesValidation) {
  const CliOptions opts = parse_cli(args({"--help"}));
  EXPECT_TRUE(opts.help);
  EXPECT_FALSE(cli_usage().empty());
  EXPECT_NE(cli_usage().find("--strategy"), std::string::npos);
}

}  // namespace
}  // namespace ntr::io
