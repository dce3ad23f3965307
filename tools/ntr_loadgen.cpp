// ntr_loadgen: load generator and correctness prober for ntr_serve.
//
//   $ ntr_loadgen --port-file /tmp/ntr.port --clients 8 --requests 16
//                 --timeout-every 5 --verify
//
// Drives a running server with a fleet of closed- or open-loop clients,
// aggregates throughput and p50/p95/p99 latency, optionally recomputes
// every rung-0 routing locally to prove the service bit-identical to the
// library (--verify), and can drain the server afterwards (--shutdown).

#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/cli.h"
#include "runtime/status.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"

namespace {

const char kUsage[] = R"(ntr_loadgen -- drive ntr_serve with concurrent clients

usage: ntr_loadgen [options]

target:
  --host ADDR        server address (default 127.0.0.1)
  --port N           server port
  --port-file PATH   read the port from PATH (waits up to 10s for it)

workload:
  --clients N        concurrent client connections (at most 256, default 4)
  --requests N       requests per client (default 8)
  --nets N           nets per request (default 1)
  --pins N           pins per generated net (default 12)
  --seed N           base RNG seed (default 7)
  --mode M           solve | flow (default solve)
  --strategy S       routing strategy per request (default ldrg)
  --evaluator E      transient|elmore|graph-elmore|d2m (default graph-elmore)
  --deadline-ms X    per-request deadline (default 0 = server default)
  --timeout-every N  every Nth request carries a ~zero deadline, forcing
                     deadline-exceeded degradation (default 0 = never)
  --rate X           open-loop sends per second per client (default 0 =
                     closed loop)

resilience (closed loop):
  --retries N        extra attempts per request: reconnect + resend after
                     drops and overloaded/shutting-down refusals (default 0)
  --backoff-ms X     base retry backoff; doubles per attempt with seeded
                     jitter (default 10)
  --backoff-max-ms X exponential backoff cap (default 1000)

checks and output:
  --verify           recompute rung-0 routings locally; fail on any
                     bit-difference
  --tolerate-drops   exit 0 despite dropped connections / unrecovered
                     requests (chaos runs); verify mismatches still fail
  --stats            fetch and print the server's stats document after the
                     fleet finishes
  --shutdown         send a shutdown request once the fleet finishes
  --help             this text

exit codes: 0 ok, 1 dropped connections / verify mismatch / internal,
2 usage error, 3 cannot reach the server.
)";

struct Options {
  ntr::serve::LoadgenOptions load;
  std::string port_file;
  bool send_shutdown = false;
  bool tolerate_drops = false;
  bool print_stats = false;
  bool help = false;
  bool port_set = false;
};

Options parse_args(const std::vector<std::string>& args) {
  Options opts;
  const auto next = [&](std::size_t& i, const std::string& flag) -> const std::string& {
    if (i + 1 >= args.size())
      throw std::invalid_argument(flag + " expects a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--host") {
      opts.load.host = next(i, arg);
    } else if (arg == "--port") {
      opts.load.port = ntr::io::parse_port(arg, next(i, arg));
      opts.port_set = true;
    } else if (arg == "--port-file") {
      opts.port_file = next(i, arg);
    } else if (arg == "--clients") {
      opts.load.clients = ntr::io::parse_lanes(arg, next(i, arg));
    } else if (arg == "--requests") {
      opts.load.requests_per_client = ntr::io::parse_uint(arg, next(i, arg));
    } else if (arg == "--nets") {
      opts.load.nets_per_request = ntr::io::parse_uint(arg, next(i, arg));
      if (opts.load.nets_per_request == 0)
        throw std::invalid_argument("--nets must be >= 1");
    } else if (arg == "--pins") {
      opts.load.pins = ntr::io::parse_uint(arg, next(i, arg));
    } else if (arg == "--seed") {
      opts.load.seed = ntr::io::parse_uint(arg, next(i, arg));
    } else if (arg == "--mode") {
      const std::string& mode = next(i, arg);
      if (mode == "solve")
        opts.load.mode = ntr::serve::RouteMode::kSolve;
      else if (mode == "flow")
        opts.load.mode = ntr::serve::RouteMode::kFlow;
      else
        throw std::invalid_argument("unknown --mode '" + mode + "'");
    } else if (arg == "--strategy") {
      opts.load.strategy = ntr::io::strategy_from_name(next(i, arg));
    } else if (arg == "--evaluator") {
      opts.load.evaluator = next(i, arg);
      if (opts.load.evaluator != "transient" && opts.load.evaluator != "elmore" &&
          opts.load.evaluator != "graph-elmore" && opts.load.evaluator != "d2m")
        throw std::invalid_argument("unknown --evaluator '" +
                                    opts.load.evaluator + "'");
    } else if (arg == "--deadline-ms") {
      opts.load.deadline_ms = ntr::io::parse_double(arg, next(i, arg));
    } else if (arg == "--timeout-every") {
      opts.load.timeout_every = ntr::io::parse_uint(arg, next(i, arg));
    } else if (arg == "--rate") {
      opts.load.open_loop_rate = ntr::io::parse_double(arg, next(i, arg));
    } else if (arg == "--retries") {
      opts.load.retry.max_retries = ntr::io::parse_uint(arg, next(i, arg));
    } else if (arg == "--backoff-ms") {
      opts.load.retry.backoff_ms = ntr::io::parse_double(arg, next(i, arg));
      if (opts.load.retry.backoff_ms < 0.0)
        throw std::invalid_argument("--backoff-ms must be >= 0");
    } else if (arg == "--backoff-max-ms") {
      opts.load.retry.backoff_max_ms = ntr::io::parse_double(arg, next(i, arg));
      if (opts.load.retry.backoff_max_ms < 0.0)
        throw std::invalid_argument("--backoff-max-ms must be >= 0");
    } else if (arg == "--verify") {
      opts.load.verify = true;
    } else if (arg == "--tolerate-drops") {
      opts.tolerate_drops = true;
    } else if (arg == "--stats") {
      opts.print_stats = true;
    } else if (arg == "--shutdown") {
      opts.send_shutdown = true;
    } else {
      throw std::invalid_argument("unknown flag '" + arg + "'");
    }
  }
  if (!opts.help && !opts.port_set && opts.port_file.empty())
    throw std::invalid_argument("one of --port / --port-file is required");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  Options opts;
  try {
    opts = parse_args(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntr_loadgen: %s\n", e.what());
    return ntr::io::kExitUsage;
  }
  if (opts.help || args.empty()) {
    std::fputs(kUsage, stdout);
    return ntr::io::kExitOk;
  }

  if (!opts.port_file.empty() && !opts.port_set) {
    const std::optional<std::uint16_t> port = ntr::io::read_port_file(opts.port_file);
    if (!port) {
      std::fprintf(stderr, "ntr_loadgen: no port in %s after 10s\n",
                   opts.port_file.c_str());
      return ntr::io::kExitInput;
    }
    opts.load.port = *port;
  }

  const ntr::serve::LoadgenReport report = ntr::serve::run_loadgen(opts.load);
  std::printf("ntr_loadgen: %s\n", report.summary().c_str());

  if (opts.print_stats) {
    ntr::serve::Client client;
    const ntr::runtime::Status s = client.connect(opts.load.host, opts.load.port);
    if (s.ok()) {
      ntr::serve::Request req;
      req.op = ntr::serve::RequestOp::kStats;
      req.id = ntr::serve::Json::string("loadgen-stats");
      const auto frames = client.call(req);
      if (frames.ok() && !frames->empty())
        std::printf("ntr_loadgen: stats %s\n",
                    frames->front().stats.dump().c_str());
      else
        std::fprintf(stderr, "ntr_loadgen: stats request failed\n");
    } else {
      std::fprintf(stderr, "ntr_loadgen: stats connect failed: %s\n",
                   s.to_string().c_str());
    }
  }

  if (opts.send_shutdown) {
    ntr::serve::Client client;
    const ntr::runtime::Status s = client.connect(opts.load.host, opts.load.port);
    if (s.ok()) {
      ntr::serve::Request req;
      req.op = ntr::serve::RequestOp::kShutdown;
      req.id = ntr::serve::Json::string("loadgen-shutdown");
      const auto ack = client.call(req);
      if (!ack.ok())
        std::fprintf(stderr, "ntr_loadgen: shutdown ack lost: %s\n",
                     ack.status().to_string().c_str());
    } else {
      std::fprintf(stderr, "ntr_loadgen: shutdown connect failed: %s\n",
                   s.to_string().c_str());
    }
  }

  // Verify failures are never tolerated: a chaos run may drop requests,
  // but every answer that did arrive must still be bit-identical.
  if (!opts.tolerate_drops) {
    if (report.connect_failures > 0) {
      std::fprintf(stderr, "ntr_loadgen: %zu connect attempts failed\n",
                   report.connect_failures);
      return ntr::io::kExitInput;
    }
    if (report.dropped_connections > 0) {
      std::fprintf(stderr, "ntr_loadgen: %zu connections dropped mid-run\n",
                   report.dropped_connections);
      return ntr::io::kExitInternal;
    }
    if (report.unrecovered > 0) {
      std::fprintf(stderr, "ntr_loadgen: %zu requests unrecovered\n",
                   report.unrecovered);
      return ntr::io::kExitInternal;
    }
  }
  if (report.verify_mismatches > 0) {
    std::fprintf(stderr,
                 "ntr_loadgen: %zu routings differ from the library's\n",
                 report.verify_mismatches);
    return ntr::io::kExitInternal;
  }
  if (opts.load.verify && report.verified == 0 && report.ok > 0) {
    std::fprintf(stderr, "ntr_loadgen: --verify collected nothing to check\n");
    return ntr::io::kExitInternal;
  }
  return ntr::io::kExitOk;
}
