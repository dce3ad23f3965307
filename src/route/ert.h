#pragma once

#include <cstddef>
#include <vector>

#include "graph/net.h"
#include "graph/routing_graph.h"
#include "spice/technology.h"

namespace ntr::route {

inline constexpr std::size_t kNoPin = static_cast<std::size_t>(-1);

struct ErtOptions {
  /// SERT: also consider attaching a sink to the closest point of an
  /// existing edge's bounding box, introducing a Steiner point.
  bool steiner = false;

  /// CSORG-style objective (paper Section 5.1): minimize
  /// sum_i criticality[i] * t(n_i) instead of max_i t(n_i).
  /// Indexed by net sink (pins[1..k] -> criticality[0..k-1]); empty means
  /// the classical minimize-the-max ERT objective. Each weight must be
  /// finite and non-negative.
  std::vector<double> criticality;
};

struct ErtResult {
  graph::RoutingGraph graph;
  /// For every graph node, the net pin index it realizes (0 = source), or
  /// kNoPin for Steiner points.
  std::vector<std::size_t> node_pin;
};

/// Elmore Routing Tree construction (Boese-Kahng-McCoy-Robins, paper ref
/// [4]): grow from the source, at each step attaching the unconnected sink
/// at the tree position that minimizes the Elmore objective of the
/// resulting tree. Near-optimal for Elmore delay (within ~2% on average,
/// per [4]) -- the strongest tree baseline the paper compares against, and
/// the starting point of the ERT-seeded LDRG experiment (Table 7).
/// Throws std::invalid_argument when `criticality` is neither empty nor
/// one finite, non-negative weight per sink.
ErtResult elmore_routing_tree(const graph::Net& net, const spice::Technology& tech,
                              const ErtOptions& options = {});

}  // namespace ntr::route
