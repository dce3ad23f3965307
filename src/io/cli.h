#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/resilience.h"
#include "core/solver.h"
#include "runtime/status.h"

namespace ntr::io {

/// Options of the `ntr_route` command-line tool. Parsing lives in the
/// library so it is unit-testable; the tool's main() only wires parsed
/// options to library calls.
struct CliOptions {
  // Input: exactly one of net_file / random_pins.
  std::string net_file;
  std::size_t random_pins = 0;
  std::uint64_t seed = 1;

  core::Strategy strategy = core::Strategy::kLdrg;
  std::string evaluator = "transient";  // transient|elmore|graph-elmore|d2m

  // Strategy-specific knobs.
  std::size_t max_edges = static_cast<std::size_t>(-1);  // LDRG family
  /// Candidate-evaluation threads for the LDRG family (0 = all hardware
  /// threads). Output is bit-identical for every value.
  std::size_t threads = 1;
  double pd_c = -1.0;        ///< >=0 switches strategy to Prim-Dijkstra(c)
  double brbc_epsilon = -1;  ///< >=0 switches strategy to BRBC(epsilon)

  // Fault tolerance.
  /// Wall-clock budget for the solve in milliseconds; 0 = unbounded.
  double deadline_ms = 0.0;
  /// What to do when the solve fails or times out: fail (exit non-zero),
  /// degrade (walk the evaluator/seed-tree ladder), skip (drop the net).
  core::OnError on_error = core::OnError::kDegrade;
  /// Write the per-net outcome report (JSON) here; empty = no report.
  std::string report_json_path;

  // Outputs.
  std::string deck_path;
  std::string svg_path;
  std::string routing_path;
  std::string spef_path;
  bool per_sink_report = false;
  bool metrics = false;
  bool help = false;
};

/// Parses argv-style arguments (without the program name). Throws
/// std::invalid_argument with a user-readable message on bad input.
CliOptions parse_cli(std::span<const std::string> args);

/// The --help text.
std::string cli_usage();

/// Maps a --strategy name to the solver enum; throws on unknown names.
core::Strategy strategy_from_name(const std::string& name);

/// The exact number parsers every tool reads its flag values with. Each
/// takes the whole of `value` or throws std::invalid_argument naming
/// `flag`. An integer is decimal digits only: no sign, no exponent, no
/// trailing characters, and a value past 2^64 - 1 is an error, not a
/// wrap. A real is a finite decimal or scientific number.
[[nodiscard]] std::uint64_t parse_uint(std::string_view flag, std::string_view value);
[[nodiscard]] double parse_double(std::string_view flag, std::string_view value);
/// A TCP port: an integer of at most 65535.
[[nodiscard]] std::uint16_t parse_port(std::string_view flag, std::string_view value);
/// A lane or client count (--threads, --clients, NTR_THREADS): an integer
/// of at most kMaxLanes, so no typo can ask for billions of threads.
inline constexpr std::size_t kMaxLanes = 256;
[[nodiscard]] std::size_t parse_lanes(std::string_view flag, std::string_view value);
/// A comma-separated list of net sizes (--sizes, NTR_SIZES), each at least 2.
[[nodiscard]] std::vector<std::size_t> parse_sizes(std::string_view flag,
                                                   std::string_view text);

/// The port a port file holds: its whole text is a port of 1..65535 and
/// the newline its writer ends it with (an empty, half-written or garbled
/// file holds none). read_port_file polls `path` for about 10 s until it
/// holds one; a tool writes the file only once it listens.
[[nodiscard]] std::optional<std::uint16_t> port_file_text(std::string_view text);
[[nodiscard]] std::optional<std::uint16_t> read_port_file(const std::string& path);

/// Process exit codes shared by the tools (documented in --help). Distinct
/// codes let scripts tell a usage mistake from a bad input file from a
/// numerical/timeout failure without parsing stderr.
inline constexpr int kExitOk = 0;        ///< success
inline constexpr int kExitInternal = 1;  ///< contract violation / unclassified
inline constexpr int kExitUsage = 2;     ///< bad command line
inline constexpr int kExitInput = 3;     ///< unreadable or malformed input
inline constexpr int kExitNumerical = 4; ///< singular/non-finite/timeout/cancel

/// Maps a boundary Status to the exit-code convention above.
[[nodiscard]] int exit_code_for(const runtime::Status& status);

}  // namespace ntr::io
