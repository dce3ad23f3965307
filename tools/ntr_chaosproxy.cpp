// ntr_chaosproxy: deterministic network-fault proxy for ntr_serve.
//
//   $ ntr_chaosproxy --port-file /tmp/chaos.port
//       --upstream-port-file /tmp/ntr.port
//       --spec "seed=42,tear=0.5,delay=0.2,disconnect=0.02"
//   (one command line, wrapped here)
//
// Forwards framed-JSON traffic to a running server while replaying a
// seeded schedule of torn frames, delayed/partial writes, slow-loris
// trickle streams, and mid-request disconnects (docs/robustness.md,
// "Chaos testing"). The printed chaos-digest line is a pure function of
// the spec: two runs with the same spec print the same digest, which is
// how scripts/chaos_smoke.sh proves a chaos run reproducible.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/cli.h"
#include "runtime/status.h"
#include "serve/chaos.h"
#include "serve/chaosproxy.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

const char kUsage[] = R"(ntr_chaosproxy -- seeded fault-injecting TCP proxy

usage: ntr_chaosproxy --upstream-port N [options]

options:
  --host ADDR               bind address (default 127.0.0.1)
  --port N                  listen port; 0 picks ephemeral (default 0)
  --port-file PATH          write the bound port to PATH
  --upstream-host ADDR      server address (default 127.0.0.1)
  --upstream-port N         server port
  --upstream-port-file PATH read the server port from PATH (waits up to 10s)
  --spec SPEC               chaos spec, e.g. "seed=42,tear=0.5,tear-chunk=9,
                            delay=0.2,delay-ms=2,trickle=0.25,trickle-bytes=1,
                            disconnect=0.02,eintr=0.3"; falls back to
                            NTR_CHAOS_SPEC, then to a disabled spec
  --help                    this text

Runs until SIGINT/SIGTERM, then prints forwarding stats and exits 0.
The startup line includes chaos-digest=<hex>, the seeded schedule's
fingerprint: identical specs print identical digests.

exit codes: 0 ok, 2 usage error, 3 cannot bind or reach the upstream.
)";

struct Options {
  ntr::serve::ChaosProxyOptions proxy;
  std::string port_file;
  std::string upstream_port_file;
  bool upstream_port_set = false;
  bool help = false;
};

Options parse_args(const std::vector<std::string>& args) {
  Options opts;
  // The env spec is the default; --spec overrides it.
  opts.proxy.spec = ntr::serve::chaos::process_spec();
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
      opts.proxy.host = next(i, arg);
    } else if (arg == "--port") {
      opts.proxy.port = ntr::io::parse_port(arg, next(i, arg));
    } else if (arg == "--port-file") {
      opts.port_file = next(i, arg);
    } else if (arg == "--upstream-host") {
      opts.proxy.upstream_host = next(i, arg);
    } else if (arg == "--upstream-port") {
      opts.proxy.upstream_port = ntr::io::parse_port(arg, next(i, arg));
      opts.upstream_port_set = true;
    } else if (arg == "--upstream-port-file") {
      opts.upstream_port_file = next(i, arg);
    } else if (arg == "--spec") {
      const std::string& text = next(i, arg);
      ntr::runtime::StatusOr<ntr::serve::chaos::ChaosSpec> spec =
          ntr::serve::chaos::ChaosSpec::parse(text);
      if (!spec.ok())
        throw std::invalid_argument(spec.status().to_string());
      opts.proxy.spec = *spec;
    } else {
      throw std::invalid_argument("unknown flag '" + arg + "'");
    }
  }
  if (!opts.help && !opts.upstream_port_set && opts.upstream_port_file.empty())
    throw std::invalid_argument(
        "one of --upstream-port / --upstream-port-file is required");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  Options opts;
  try {
    opts = parse_args(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntr_chaosproxy: %s\n", e.what());
    return ntr::io::kExitUsage;
  }
  if (opts.help) {
    std::fputs(kUsage, stdout);
    return ntr::io::kExitOk;
  }

  if (!opts.upstream_port_file.empty() && !opts.upstream_port_set) {
    const std::optional<std::uint16_t> port =
        ntr::io::read_port_file(opts.upstream_port_file);
    if (!port) {
      std::fprintf(stderr, "ntr_chaosproxy: no port in %s after 10s\n",
                   opts.upstream_port_file.c_str());
      return ntr::io::kExitInput;
    }
    opts.proxy.upstream_port = *port;
  }

  ntr::serve::ChaosProxy proxy(opts.proxy);
  const ntr::runtime::Status started = proxy.start();
  if (!started.ok()) {
    std::fprintf(stderr, "ntr_chaosproxy: %s\n", started.to_string().c_str());
    return ntr::io::kExitInput;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (!opts.port_file.empty()) {
    std::ofstream out(opts.port_file);
    out << proxy.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "ntr_chaosproxy: cannot write %s\n",
                   opts.port_file.c_str());
      return ntr::io::kExitInput;
    }
  }

  std::printf(
      "ntr_chaosproxy: %s:%u -> %s:%u spec \"%s\" chaos-digest=%s\n",
      opts.proxy.host.c_str(), proxy.port(), opts.proxy.upstream_host.c_str(),
      opts.proxy.upstream_port, opts.proxy.spec.to_string().c_str(),
      ntr::serve::chaos::schedule_digest(opts.proxy.spec).c_str());
  std::fflush(stdout);

  while (g_stop == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  proxy.stop();
  proxy.wait();
  const ntr::serve::ChaosProxyStats stats = proxy.stats();
  std::printf("ntr_chaosproxy: done: %llu connections, %llu bytes in %llu "
              "chunks, %llu disconnects, %llu delays, %llu trickle streams\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.bytes_forwarded),
              static_cast<unsigned long long>(stats.chunks_forwarded),
              static_cast<unsigned long long>(stats.injected_disconnects),
              static_cast<unsigned long long>(stats.injected_delays),
              static_cast<unsigned long long>(stats.trickle_streams));
  return ntr::io::kExitOk;
}
