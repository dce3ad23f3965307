#include "io/cli.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace ntr::io {

core::Strategy strategy_from_name(const std::string& name) {
  if (name == "mst") return core::Strategy::kMst;
  if (name == "star" || name == "spt") return core::Strategy::kStar;
  if (name == "steiner") return core::Strategy::kSteinerTree;
  if (name == "ert") return core::Strategy::kErt;
  if (name == "sert") return core::Strategy::kSert;
  if (name == "ldrg") return core::Strategy::kLdrg;
  if (name == "sldrg") return core::Strategy::kSldrg;
  if (name == "ert-ldrg") return core::Strategy::kErtLdrg;
  if (name == "h1") return core::Strategy::kH1;
  if (name == "h2") return core::Strategy::kH2;
  if (name == "h3") return core::Strategy::kH3;
  throw std::invalid_argument("unknown --strategy '" + name +
                              "' (try mst|star|steiner|ert|sert|ldrg|sldrg|"
                              "ert-ldrg|h1|h2|h3)");
}

std::string cli_usage() {
  return R"(ntr_route -- route one signal net with the Non-Tree Routing library

input (choose one):
  --net FILE          read a .net file ("pin <x> <y>" per line, first = source)
  --random N          generate N random pins on the 10x10mm Table-1 layout
  --seed S            RNG seed for --random (default 1)

algorithm:
  --strategy NAME     mst|star|steiner|ert|sert|ldrg|sldrg|ert-ldrg|h1|h2|h3
                      (default ldrg)
  --pd C              Prim-Dijkstra trade-off with parameter C in [0,1]
  --brbc EPS          BRBC with radius slack EPS >= 0
  --max-edges K       cap on extra LDRG edges
  --threads N         LDRG candidate-evaluation threads (0 = all cores,
                      default 1, at most 256); the routing is bit-identical
                      for any N
  --evaluator NAME    transient|elmore|graph-elmore|d2m (default transient)

fault tolerance:
  --deadline-ms MS    wall-clock budget for the solve (0 = unbounded); the
                      LDRG rounds and the transient march poll it
  --on-error POLICY   fail|degrade|skip (default degrade): what to do when
                      the solve fails or times out -- degrade retries with
                      the graph-Elmore evaluator, then ships the seed tree
  --report-json FILE  write the per-net outcome report (disposition, rung,
                      failure status) as JSON

outputs:
  --deck FILE.sp      export the routing as a SPICE deck
  --spef FILE.spef    export the routing's parasitics as SPEF
  --svg FILE.svg      render the routing as SVG
  --routing FILE      dump the routing in the ntr text format
  --report            print per-sink delays
  --metrics           print the routing quality card (radius, detour, ...)
  --help              this text

exit codes:
  0  success
  1  internal error (contract violation or unclassified failure)
  2  usage error (bad command line)
  3  input error (unreadable or malformed net/routing file)
  4  numerical failure or deadline/cancellation (singular matrix,
     non-finite waveform, timeout) that the --on-error policy let escape
)";
}

int exit_code_for(const runtime::Status& status) {
  switch (status.code()) {
    case runtime::StatusCode::kOk:
      return kExitOk;
    case runtime::StatusCode::kBadInput:
    case runtime::StatusCode::kIoError:
    case runtime::StatusCode::kUnavailable:
    case runtime::StatusCode::kConnectionReset:
      return kExitInput;
    case runtime::StatusCode::kSingular:
    case runtime::StatusCode::kNonFinite:
    case runtime::StatusCode::kTimeout:
    case runtime::StatusCode::kCancelled:
      return kExitNumerical;
    case runtime::StatusCode::kResourceExhausted:
    case runtime::StatusCode::kInternal:
      return kExitInternal;
  }
  return kExitInternal;
}

namespace {

std::invalid_argument bad_value(std::string_view flag, std::string_view value,
                                std::string_view expected) {
  return std::invalid_argument(std::string(flag) + " expects " +
                               std::string(expected) + ", got '" +
                               std::string(value) + "'");
}

}  // namespace

std::uint64_t parse_uint(std::string_view flag, std::string_view value) {
  const char* const end = value.data() + value.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc{} || ptr != end)
    throw bad_value(flag, value, "a non-negative integer below 2^64");
  return v;
}

double parse_double(std::string_view flag, std::string_view value) {
  const char* const end = value.data() + value.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v))
    throw bad_value(flag, value, "a finite number");
  return v;
}

std::uint16_t parse_port(std::string_view flag, std::string_view value) {
  const std::uint64_t v = parse_uint(flag, value);
  if (v > std::numeric_limits<std::uint16_t>::max())
    throw bad_value(flag, value, "a port of at most 65535");
  return static_cast<std::uint16_t>(v);
}

std::size_t parse_lanes(std::string_view flag, std::string_view value) {
  const std::uint64_t v = parse_uint(flag, value);
  if (v > kMaxLanes)
    throw bad_value(flag, value, "a count of at most " + std::to_string(kMaxLanes));
  return static_cast<std::size_t>(v);
}

std::vector<std::size_t> parse_sizes(std::string_view flag, std::string_view text) {
  std::vector<std::size_t> sizes;
  for (;;) {
    const std::size_t comma = text.find(',');
    const std::string_view item = text.substr(0, comma);
    sizes.push_back(parse_uint(flag, item));
    if (sizes.back() < 2) throw bad_value(flag, item, "a net size of at least 2 pins");
    if (comma == std::string_view::npos) return sizes;
    text.remove_prefix(comma + 1);
  }
}

std::optional<std::uint16_t> port_file_text(std::string_view text) {
  if (!text.ends_with('\n')) return std::nullopt;
  try {
    const std::uint16_t port = parse_port("port file", text.substr(0, text.size() - 1));
    if (port != 0) return port;
  } catch (const std::invalid_argument&) {
    // Not a port (yet): the caller reads the file again.
  }
  return std::nullopt;
}

std::optional<std::uint16_t> read_port_file(const std::string& path) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::ifstream in(path);
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    if (const std::optional<std::uint16_t> port = port_file_text(text)) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return std::nullopt;
}

CliOptions parse_cli(std::span<const std::string> args) {
  CliOptions opts;
  const auto next = [&](std::size_t& i, const std::string& flag) -> const std::string& {
    if (i + 1 >= args.size())
      throw std::invalid_argument(flag + " expects a value");
    return args[++i];
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--net") {
      opts.net_file = next(i, arg);
    } else if (arg == "--random") {
      opts.random_pins = parse_uint(arg, next(i, arg));
    } else if (arg == "--seed") {
      opts.seed = parse_uint(arg, next(i, arg));
    } else if (arg == "--strategy") {
      opts.strategy = strategy_from_name(next(i, arg));
    } else if (arg == "--evaluator") {
      opts.evaluator = next(i, arg);
      if (opts.evaluator != "transient" && opts.evaluator != "elmore" &&
          opts.evaluator != "graph-elmore" && opts.evaluator != "d2m")
        throw std::invalid_argument("unknown --evaluator '" + opts.evaluator + "'");
    } else if (arg == "--max-edges") {
      opts.max_edges = parse_uint(arg, next(i, arg));
    } else if (arg == "--threads") {
      opts.threads = parse_lanes(arg, next(i, arg));
    } else if (arg == "--pd") {
      opts.pd_c = parse_double(arg, next(i, arg));
      if (opts.pd_c < 0.0 || opts.pd_c > 1.0)
        throw std::invalid_argument("--pd expects a value in [0,1]");
    } else if (arg == "--brbc") {
      opts.brbc_epsilon = parse_double(arg, next(i, arg));
      if (opts.brbc_epsilon < 0.0)
        throw std::invalid_argument("--brbc expects a non-negative value");
    } else if (arg == "--deadline-ms") {
      opts.deadline_ms = parse_double(arg, next(i, arg));
      if (opts.deadline_ms < 0.0)
        throw std::invalid_argument("--deadline-ms expects a non-negative value");
    } else if (arg == "--on-error") {
      const std::string& name = next(i, arg);
      const std::optional<core::OnError> policy = core::on_error_from_name(name);
      if (!policy)
        throw std::invalid_argument("unknown --on-error '" + name +
                                    "' (try fail|degrade|skip)");
      opts.on_error = *policy;
    } else if (arg == "--report-json") {
      opts.report_json_path = next(i, arg);
    } else if (arg == "--deck") {
      opts.deck_path = next(i, arg);
    } else if (arg == "--svg") {
      opts.svg_path = next(i, arg);
    } else if (arg == "--routing") {
      opts.routing_path = next(i, arg);
    } else if (arg == "--spef") {
      opts.spef_path = next(i, arg);
    } else if (arg == "--metrics") {
      opts.metrics = true;
    } else if (arg == "--report") {
      opts.per_sink_report = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "' (see --help)");
    }
  }

  if (!opts.help) {
    const bool has_file = !opts.net_file.empty();
    const bool has_random = opts.random_pins > 0;
    if (has_file == has_random)
      throw std::invalid_argument("choose exactly one of --net and --random");
    if (has_random && opts.random_pins < 2)
      throw std::invalid_argument("--random expects at least 2 pins");
    if (opts.pd_c >= 0.0 && opts.brbc_epsilon >= 0.0)
      throw std::invalid_argument("--pd and --brbc are mutually exclusive");
  }
  return opts;
}

}  // namespace ntr::io
