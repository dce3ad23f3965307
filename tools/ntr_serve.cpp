// ntr_serve: concurrent routing service over the framed JSON protocol.
//
//   $ ntr_serve --port 0 --port-file /tmp/ntr.port --threads 4
//
// Accepts batches of nets over TCP, routes them through the library's
// resilient solve/flow engines on a bounded client-fair queue, and
// streams back routed topologies plus delay reports (docs/serving.md).
// SIGINT/SIGTERM or a `shutdown` request drain gracefully: queued work
// finishes, responses flush, then the process exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/cli.h"
#include "runtime/status.h"
#include "serve/server.h"

namespace {

// Signal handlers may only touch async-signal-safe state; Server's
// request_shutdown is an atomic store plus an eventfd write. The pointer
// is written once, before handlers are installed.
ntr::serve::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

const char kUsage[] = R"(ntr_serve -- serve Non-Tree Routing over TCP

usage: ntr_serve [options]

options:
  --host ADDR             bind address (default 127.0.0.1)
  --port N                TCP port; 0 picks an ephemeral port (default 0)
  --port-file PATH        write the bound port to PATH (for scripts/CI)
  --threads N             worker lanes routing requests (1-256, default 2)
  --queue-depth N         bounded request-queue capacity (default 256)
  --max-inflight N        per-client in-flight cap before the server stops
                          reading that client's socket (default 32)
  --max-frame-bytes N     per-frame payload cap (default 4194304)
  --default-deadline-ms X deadline for requests that carry none (0 = unbounded)
  --max-deadline-ms X     hard cap on any request's deadline (0 = no cap)
  --watchdog-interval-ms X  watchdog scan period; 0 disables (default 100)
  --watchdog-grace-ms X   grace past an item's deadline before the watchdog
                          cancels it (default 1000)
  --watchdog-stall-ms X   absolute wall ceiling per item, deadline or not
                          (default 0 = none)
  --enable-test-hooks     honor debug_wedge_ms requests (tests only; never
                          enable on a shared server)
  --help                  this text

protocol: length-prefixed JSON frames; see docs/serving.md. Response
`code` fields reuse the CLI exit-code taxonomy below.

exit codes: 0 ok (clean drain), 1 internal error, 2 usage error,
3 cannot bind/listen.
)";

struct Options {
  ntr::serve::ServerOptions server;
  std::string port_file;
  bool help = false;
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
      opts.server.host = next(i, arg);
    } else if (arg == "--port") {
      opts.server.port = ntr::io::parse_port(arg, next(i, arg));
    } else if (arg == "--port-file") {
      opts.port_file = next(i, arg);
    } else if (arg == "--threads") {
      opts.server.workers = ntr::io::parse_lanes(arg, next(i, arg));
      if (opts.server.workers == 0)
        throw std::invalid_argument("--threads must be >= 1");
    } else if (arg == "--queue-depth") {
      opts.server.queue_capacity = ntr::io::parse_uint(arg, next(i, arg));
    } else if (arg == "--max-inflight") {
      opts.server.per_client_inflight = ntr::io::parse_uint(arg, next(i, arg));
      if (opts.server.per_client_inflight == 0)
        throw std::invalid_argument("--max-inflight must be >= 1");
    } else if (arg == "--max-frame-bytes") {
      opts.server.max_frame_bytes = ntr::io::parse_uint(arg, next(i, arg));
    } else if (arg == "--default-deadline-ms") {
      opts.server.service.default_deadline_ms = ntr::io::parse_double(arg, next(i, arg));
    } else if (arg == "--max-deadline-ms") {
      opts.server.service.max_deadline_ms = ntr::io::parse_double(arg, next(i, arg));
    } else if (arg == "--watchdog-interval-ms") {
      opts.server.watchdog_interval_ms = ntr::io::parse_double(arg, next(i, arg));
    } else if (arg == "--watchdog-grace-ms") {
      opts.server.watchdog_grace_ms = ntr::io::parse_double(arg, next(i, arg));
    } else if (arg == "--watchdog-stall-ms") {
      opts.server.watchdog_stall_ms = ntr::io::parse_double(arg, next(i, arg));
    } else if (arg == "--enable-test-hooks") {
      opts.server.service.enable_test_hooks = true;
    } else {
      throw std::invalid_argument("unknown flag '" + arg + "'");
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  Options opts;
  try {
    opts = parse_args(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntr_serve: %s\n", e.what());
    return ntr::io::kExitUsage;
  }
  if (opts.help) {
    std::fputs(kUsage, stdout);
    return ntr::io::kExitOk;
  }

  ntr::serve::Server server(opts.server);
  const ntr::runtime::Status started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "ntr_serve: %s\n", started.to_string().c_str());
    return ntr::io::kExitInput;
  }

  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (!opts.port_file.empty()) {
    std::ofstream out(opts.port_file);
    out << server.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "ntr_serve: cannot write %s\n",
                   opts.port_file.c_str());
      server.request_shutdown();
      server.wait();
      return ntr::io::kExitInput;
    }
  }

  std::printf("ntr_serve: listening on %s:%u (%zu workers, queue depth %zu)\n",
              opts.server.host.c_str(), server.port(), opts.server.workers,
              opts.server.queue_capacity);
  std::fflush(stdout);

  server.wait();

  const ntr::serve::ServerStats stats = server.stats();
  std::printf("ntr_serve: drained: %llu connections, %llu frames in, "
              "%llu frames out, %llu items, %llu overloaded, %llu bad "
              "requests, %llu protocol errors, %llu watchdog cancels\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.frames_sent),
              static_cast<unsigned long long>(stats.items_admitted),
              static_cast<unsigned long long>(stats.rejected_overloaded),
              static_cast<unsigned long long>(stats.rejected_bad_request),
              static_cast<unsigned long long>(stats.protocol_errors),
              static_cast<unsigned long long>(stats.watchdog_cancels));
  return ntr::io::kExitOk;
}
