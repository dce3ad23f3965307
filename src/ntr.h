#pragma once

/// \mainpage ntr -- Non-Tree Routing
///
/// Umbrella header for the Non-Tree Routing library (McCoy & Robins,
/// DATE 1994 reproduction). Include this for everything, or pick the
/// per-module headers to keep compile times down:
///
///   geom/     points, Manhattan metric, Hanan grid, rectilinear segments
///   graph/    routing graphs with cycles, MST, paths, bridges, embedding
///   linalg/   dense Cholesky, CSR, RCM with the envelope L D L^T
///   spice/    Table-1 technology, linear netlists, deck I/O, graph->RC
///   sim/      nodal reduction, DC/moments, transient engine (the SPICE substitute)
///   delay/    Elmore (tree + graph), D2M, Sherman-Morrison
///             incremental Elmore, pluggable DelayEvaluator
///   steiner/  Iterated 1-Steiner
///   route/    star/SPT, Prim-Dijkstra, BRBC, ERT/SERT
///   core/     LDRG, SLDRG, H1-H3, screened LDRG, exhaustive ORG,
///             wire sizing (WSORG), solve() facade  -- the paper's heart
///   grid/     GCell grid, Lee/A*/Dijkstra maze search, congestion-aware
///             multi-net global routing with rip-up-and-reroute
///   sta/      static timing analysis -> sink criticalities for CSORG
///   expt/     seeded nets, winners/all-cases aggregation, paper tables
///   viz/      SVG rendering of routings
///   io/       .net/.route text formats, CLI option parsing

#include "core/exhaustive.h"  // IWYU pragma: export
#include "core/heuristics.h"  // IWYU pragma: export
#include "core/horg.h"  // IWYU pragma: export
#include "core/ldrg.h"  // IWYU pragma: export
#include "core/solver.h"  // IWYU pragma: export
#include "core/wire_sizing.h"  // IWYU pragma: export
#include "delay/elmore.h"  // IWYU pragma: export
#include "delay/evaluator.h"  // IWYU pragma: export
#include "delay/incremental_elmore.h"  // IWYU pragma: export
#include "delay/moments.h"  // IWYU pragma: export
#include "expt/comparison.h"  // IWYU pragma: export
#include "expt/net_generator.h"  // IWYU pragma: export
#include "expt/protocol.h"  // IWYU pragma: export
#include "expt/statistics.h"  // IWYU pragma: export
#include "flow/timing_flow.h"  // IWYU pragma: export
#include "geom/bbox.h"  // IWYU pragma: export
#include "geom/hanan.h"  // IWYU pragma: export
#include "geom/point.h"  // IWYU pragma: export
#include "geom/segments.h"  // IWYU pragma: export
#include "graph/bridges.h"  // IWYU pragma: export
#include "graph/embedding.h"  // IWYU pragma: export
#include "graph/metrics.h"  // IWYU pragma: export
#include "graph/mst.h"  // IWYU pragma: export
#include "graph/net.h"  // IWYU pragma: export
#include "graph/paths.h"  // IWYU pragma: export
#include "graph/routing_graph.h"  // IWYU pragma: export
#include "grid/global_router.h"  // IWYU pragma: export
#include "grid/grid.h"  // IWYU pragma: export
#include "grid/layered.h"  // IWYU pragma: export
#include "grid/net_router.h"  // IWYU pragma: export
#include "grid/search.h"  // IWYU pragma: export
#include "io/cli.h"  // IWYU pragma: export
#include "io/net_io.h"  // IWYU pragma: export
#include "linalg/dense_matrix.h"  // IWYU pragma: export
#include "linalg/sparse.h"  // IWYU pragma: export
#include "linalg/sparse_cholesky.h"  // IWYU pragma: export
#include "linalg/vector_ops.h"  // IWYU pragma: export
#include "route/brbc.h"  // IWYU pragma: export
#include "route/constructions.h"  // IWYU pragma: export
#include "route/local_search.h"  // IWYU pragma: export
#include "route/ert.h"  // IWYU pragma: export
#include "sim/nodal.h"  // IWYU pragma: export
#include "sim/transient.h"  // IWYU pragma: export
#include "sim/waveform_io.h"  // IWYU pragma: export
#include "spice/deck_io.h"  // IWYU pragma: export
#include "spice/graph_netlist.h"  // IWYU pragma: export
#include "spice/netlist.h"  // IWYU pragma: export
#include "spice/spef.h"  // IWYU pragma: export
#include "spice/technology.h"  // IWYU pragma: export
#include "spice/units.h"  // IWYU pragma: export
#include "sta/timing_graph.h"  // IWYU pragma: export
#include "steiner/iterated_one_steiner.h"  // IWYU pragma: export
#include "viz/svg.h"  // IWYU pragma: export
