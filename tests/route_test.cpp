#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "delay/elmore.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"
#include "graph/paths.h"
#include "io/net_io.h"
#include "route/constructions.h"
#include "route/ert.h"

namespace ntr::route {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

TEST(Star, ConnectsEverySinkDirectly) {
  expt::NetGenerator gen(3);
  const graph::Net net = gen.random_net(12);
  const graph::RoutingGraph g = star_routing(net);
  EXPECT_TRUE(g.is_tree());
  EXPECT_EQ(g.degree(0), net.sink_count());
  // Star radius equals the max direct source-sink distance: minimal radius.
  double max_direct = 0.0;
  for (std::size_t i = 1; i < net.size(); ++i)
    max_direct = std::max(max_direct,
                          geom::manhattan_distance(net.source(), net.pins[i]));
  EXPECT_DOUBLE_EQ(graph::routing_radius(g), max_direct);
}

TEST(PrimDijkstra, EndpointsMatchMstAndShortestPathTree) {
  expt::NetGenerator gen(5);
  const graph::Net net = gen.random_net(15);
  const graph::RoutingGraph mst = graph::mst_routing(net);
  const graph::RoutingGraph star = star_routing(net);
  const graph::RoutingGraph pd0 = prim_dijkstra_routing(net, 0.0);
  const graph::RoutingGraph pd1 = prim_dijkstra_routing(net, 1.0);
  EXPECT_NEAR(pd0.total_wirelength(), mst.total_wirelength(), 1e-9);
  // c = 1 yields a shortest-path tree: star radius, but possibly cheaper
  // than the star thanks to path sharing among collinear-ish pins.
  EXPECT_LE(pd1.total_wirelength(), star.total_wirelength() * (1 + 1e-9));
  EXPECT_NEAR(graph::routing_radius(pd1), graph::routing_radius(star), 1e-6);
  // Every pin sits at its direct distance from the source.
  const graph::ShortestPaths sp = graph::shortest_paths(pd1, 0);
  for (graph::NodeId v = 1; v < pd1.node_count(); ++v)
    EXPECT_NEAR(sp.distance[v],
                geom::manhattan_distance(net.source(), net.pins[v]), 1e-6);
}

TEST(PrimDijkstra, TradeoffIsMonotoneAtEndpoints) {
  expt::NetGenerator gen(7);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::Net net = gen.random_net(20);
    const graph::RoutingGraph pd0 = prim_dijkstra_routing(net, 0.0);
    const graph::RoutingGraph pd_half = prim_dijkstra_routing(net, 0.5);
    const graph::RoutingGraph pd1 = prim_dijkstra_routing(net, 1.0);
    EXPECT_TRUE(pd_half.is_tree());
    // Cost grows toward the star; radius shrinks toward the star.
    EXPECT_LE(pd0.total_wirelength(), pd_half.total_wirelength() * (1 + 1e-9));
    EXPECT_LE(pd_half.total_wirelength(), pd1.total_wirelength() * (1 + 1e-9));
    EXPECT_LE(graph::routing_radius(pd1),
              graph::routing_radius(pd0) * (1 + 1e-9));
  }
}

TEST(PrimDijkstra, RejectsOutOfRangeParameter) {
  expt::NetGenerator gen(9);
  const graph::Net net = gen.random_net(5);
  EXPECT_THROW(prim_dijkstra_routing(net, -0.1), std::invalid_argument);
  EXPECT_THROW(prim_dijkstra_routing(net, 1.5), std::invalid_argument);
}

TEST(Ert, ProducesSpanningTree) {
  expt::NetGenerator gen(11);
  const graph::Net net = gen.random_net(10);
  const ErtResult res = elmore_routing_tree(net, kTech);
  EXPECT_TRUE(res.graph.is_tree());
  EXPECT_EQ(res.graph.node_count(), net.size());
  EXPECT_EQ(res.node_pin.size(), res.graph.node_count());
  // Every pin appears exactly once.
  std::vector<bool> seen(net.size(), false);
  for (const std::size_t pin : res.node_pin) {
    ASSERT_LT(pin, net.size());
    EXPECT_FALSE(seen[pin]);
    seen[pin] = true;
  }
}

class ErtPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ErtPropertyTest, BeatsMstElmoreDelayOnAverage) {
  expt::NetGenerator gen(13 + GetParam());
  double ert_total = 0.0, mst_total = 0.0;
  for (int trial = 0; trial < 6; ++trial) {
    const graph::Net net = gen.random_net(GetParam());
    const ErtResult ert = elmore_routing_tree(net, kTech);
    ert_total += delay::elmore_tree_delay(ert.graph, kTech);
    mst_total += delay::elmore_tree_delay(graph::mst_routing(net), kTech);
  }
  EXPECT_LT(ert_total, mst_total);
}

TEST_P(ErtPropertyTest, SertNeverWorseThanErtUnderElmore) {
  // SERT's candidate set strictly contains ERT's at every greedy step, so
  // the greedy objective after each attachment is no worse. (The final
  // objective is not theoretically ordered for greedy algorithms, but in
  // practice SERT wins or ties; we assert a small tolerance.)
  expt::NetGenerator gen(17 + GetParam());
  double sert_total = 0.0, ert_total = 0.0;
  for (int trial = 0; trial < 4; ++trial) {
    const graph::Net net = gen.random_net(GetParam());
    ErtOptions steiner_opts;
    steiner_opts.steiner = true;
    ert_total += delay::elmore_tree_delay(elmore_routing_tree(net, kTech).graph, kTech);
    sert_total += delay::elmore_tree_delay(
        elmore_routing_tree(net, kTech, steiner_opts).graph, kTech);
  }
  EXPECT_LT(sert_total, ert_total * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ErtPropertyTest,
                         ::testing::Values<std::size_t>(5, 10, 15));

TEST(Ert, CriticalSinkWeightingFavorsTheCriticalSinkOnAverage) {
  // Greedy construction gives no per-instance dominance guarantee, but
  // averaged over nets the criticality-weighted objective must steer the
  // tree toward its critical sink (paper Section 5.1 / ref [5]).
  expt::NetGenerator gen(23);
  const auto delay_of_pin = [](const ErtResult& r, std::size_t pin) {
    const std::vector<double> d = delay::elmore_node_delays(r.graph, kTech);
    for (graph::NodeId n = 0; n < r.graph.node_count(); ++n)
      if (r.node_pin[n] == pin) return d[n];
    throw std::logic_error("pin not found");
  };

  double critical_sum = 0.0, vanilla_sum = 0.0;
  for (int trial = 0; trial < 6; ++trial) {
    const graph::Net net = gen.random_net(10);
    ErtOptions opts;
    opts.criticality.assign(net.sink_count(), 0.0);
    opts.criticality.back() = 1.0;  // the last net pin is all-important
    const std::size_t target_pin = net.size() - 1;
    critical_sum += delay_of_pin(elmore_routing_tree(net, kTech, opts), target_pin);
    vanilla_sum += delay_of_pin(elmore_routing_tree(net, kTech), target_pin);
  }
  EXPECT_LT(critical_sum, vanilla_sum);
}

TEST(Ert, CriticalitySizeValidated) {
  expt::NetGenerator gen(29);
  const graph::Net net = gen.random_net(6);
  ErtOptions opts;
  opts.criticality = {1.0, 2.0};  // wrong size: net has 5 sinks
  EXPECT_THROW(elmore_routing_tree(net, kTech, opts), std::invalid_argument);
}

// A negative or NaN weight is refused before any work, as ldrg refuses
// it: the construction prunes its trials by a bound that holds only for
// non-negative weights. An infinite weight ties every trial at infinity.
TEST(Ert, RejectsNegativeOrNanCriticality) {
  expt::NetGenerator gen(29);
  const graph::Net net = gen.random_net(6);
  for (const double bad : {-1.0, -1e-300, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (const bool steiner : {false, true}) {
      ErtOptions opts;
      opts.steiner = steiner;
      opts.criticality.assign(net.sink_count(), 1.0);
      opts.criticality[2] = bad;
      std::string error = "nothing";
      try {
        (void)elmore_routing_tree(net, kTech, opts);
      } catch (const std::invalid_argument& e) {
        error = e.what();
      } catch (const std::exception& e) {
        error = std::string("another exception: ") + e.what();
      }
      EXPECT_EQ(error.rfind("elmore_routing_tree:", 0), 0u)
          << "weight " << bad << (steiner ? ", SERT" : "") << " threw " << error;
    }
  }
}

TEST(Ert, SertIntroducesSteinerNodesWhenProfitable) {
  // A long run with a sink just off its middle: splicing into the wire at
  // (5000, 0) costs 100um of new wire versus 5100um for any pin-to-pin
  // attachment, so SERT must take the Steiner split.
  graph::Net net{{{0, 0}, {5000, 100}, {10000, 0}}};
  ErtOptions opts;
  opts.steiner = true;
  const ErtResult res = elmore_routing_tree(net, kTech, opts);
  std::size_t steiner_count = 0;
  for (graph::NodeId n = 0; n < res.graph.node_count(); ++n)
    if (res.graph.node(n).kind == graph::NodeKind::kSteiner) ++steiner_count;
  EXPECT_GE(steiner_count, 1u);
  EXPECT_TRUE(res.graph.is_tree());
}

// ---- Reference ERT: every trial attachment materialized ----
//
// The construction as first written: each candidate attachment copies the
// tree, applies the attachment and times the copy with
// elmore_node_delays. elmore_routing_tree answers node attachments
// without the copy (delay::TreeLeafElmore) and skips every trial whose
// lower bound shows it cannot win, and must build the same trees. At 80
// pins it skips almost every trial.

geom::Point reference_bbox_point(const geom::Point& a, const geom::Point& b,
                                 const geom::Point& p) {
  return geom::Point{std::clamp(p.x, std::min(a.x, b.x), std::max(a.x, b.x)),
                     std::clamp(p.y, std::min(a.y, b.y), std::max(a.y, b.y))};
}

struct ReferenceCandidate {
  bool split = false;
  graph::NodeId node = graph::kInvalidNode;
  graph::EdgeId edge = graph::kInvalidEdge;
  geom::Point split_point;
  std::size_t pin = 0;
};

double reference_objective(const graph::RoutingGraph& t,
                           const std::vector<std::size_t>& node_pin,
                           const std::vector<double>& criticality) {
  const std::vector<double> delays = delay::elmore_node_delays(t, kTech);
  double objective = 0.0;
  double total_delay = 0.0;
  for (graph::NodeId n = 0; n < t.node_count(); ++n) {
    if (t.node(n).kind != graph::NodeKind::kSink) continue;
    total_delay += delays[n];
    if (criticality.empty()) {
      objective = std::max(objective, delays[n]);
    } else {
      objective += criticality.at(node_pin[n] - 1) * delays[n];
    }
  }
  if (!criticality.empty()) {
    const double scale =
        std::max(*std::max_element(criticality.begin(), criticality.end()), 1.0);
    objective += 1e-6 * scale * total_delay;
  }
  return objective;
}

void reference_apply(graph::RoutingGraph& t, std::vector<std::size_t>& node_pin,
                     const graph::Net& net, const ReferenceCandidate& c) {
  graph::NodeId attach = c.node;
  if (c.split) {
    attach = t.split_edge(c.edge, c.split_point);
    node_pin.push_back(kNoPin);
  }
  const graph::NodeId sink = t.add_node(net.pins[c.pin], graph::NodeKind::kSink);
  node_pin.push_back(c.pin);
  t.add_edge(attach, sink);
}

ErtResult reference_ert(const graph::Net& net, const ErtOptions& options) {
  ErtResult result;
  result.graph.add_node(net.source(), graph::NodeKind::kSource);
  result.node_pin.push_back(0);
  std::vector<std::size_t> unattached;
  for (std::size_t p = 1; p < net.pins.size(); ++p) unattached.push_back(p);
  while (!unattached.empty()) {
    double best_objective = std::numeric_limits<double>::infinity();
    ReferenceCandidate best;
    const auto consider = [&](const ReferenceCandidate& c) {
      graph::RoutingGraph trial = result.graph;
      std::vector<std::size_t> trial_pin = result.node_pin;
      reference_apply(trial, trial_pin, net, c);
      const double objective = reference_objective(trial, trial_pin, options.criticality);
      if (objective < best_objective) {
        best_objective = objective;
        best = c;
      }
    };
    for (const std::size_t pin : unattached) {
      for (graph::NodeId u = 0; u < result.graph.node_count(); ++u)
        consider(ReferenceCandidate{false, u, graph::kInvalidEdge, {}, pin});
      if (!options.steiner) continue;
      for (graph::EdgeId e = 0; e < result.graph.edge_count(); ++e) {
        const geom::Point& a = result.graph.node(result.graph.edge(e).u).pos;
        const geom::Point& b = result.graph.node(result.graph.edge(e).v).pos;
        const geom::Point split = reference_bbox_point(a, b, net.pins[pin]);
        if (split == a || split == b) continue;
        consider(ReferenceCandidate{true, graph::kInvalidNode, e, split, pin});
      }
    }
    reference_apply(result.graph, result.node_pin, net, best);
    std::erase(unattached, best.pin);
  }
  return result;
}

TEST(Ert, BuildsTheMaterializedReferenceTreesExactly) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> weight(0.0, 4.0);
  for (const std::size_t pins : {3u, 4u, 6u, 9u, 14u, 20u, 30u, 60u, 80u}) {
    expt::NetGenerator gen(4000 + pins);
    const graph::Net net = gen.random_net(pins);
    std::vector<double> criticality(net.sink_count());
    for (double& w : criticality) w = rng() % 3 == 0 ? 0.0 : weight(rng);
    for (const bool steiner : {false, true}) {
      for (const bool weighted : {false, true}) {
        ErtOptions opts;
        opts.steiner = steiner;
        if (weighted) opts.criticality = criticality;
        const std::string context = std::to_string(pins) + " pins" +
                                    (steiner ? ", SERT" : "") +
                                    (weighted ? ", weighted" : "");
        const ErtResult got = elmore_routing_tree(net, kTech, opts);
        const ErtResult want = reference_ert(net, opts);
        EXPECT_EQ(io::write_routing(got.graph), io::write_routing(want.graph)) << context;
        EXPECT_EQ(got.node_pin, want.node_pin) << context;
      }
    }
  }
}

}  // namespace
}  // namespace ntr::route
