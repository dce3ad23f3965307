#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.h"
#include "runtime/status.h"
#include "serve/json.h"
#include "serve/protocol.h"

/// Blocking protocol client and the multi-client load generator behind
/// `ntr_loadgen`. Library code so tests can drive a Server in-process;
/// the tool is a thin flag parser.
namespace ntr::serve {

/// One blocking TCP connection speaking the framed JSON protocol.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] runtime::Status connect(const std::string& host,
                                        std::uint16_t port);

  /// Frame-encodes and writes one request document.
  [[nodiscard]] runtime::Status send_document(const Json& doc);

  /// Writes raw bytes verbatim -- the hook tests use to send malformed
  /// frames and oversized headers.
  [[nodiscard]] runtime::Status send_bytes(std::string_view bytes);

  /// Blocks for the next response frame. kIoError on EOF/reset.
  [[nodiscard]] runtime::StatusOr<Response> read_response();

  /// Sends `req` and collects its complete response set: one frame for a
  /// ping/shutdown or request-level error; `nets` net-indexed frames for
  /// a solve batch; net frames plus a summary for a flow batch.
  [[nodiscard]] runtime::StatusOr<std::vector<Response>> call(const Request& req);

  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

 private:
  [[nodiscard]] runtime::Status read_exact(char* buf, std::size_t n);
  int fd_ = -1;
};

/// Given the frames already received for a request, decides whether the
/// response set is complete (the rule Client::call applies; exposed so
/// an open-loop reader can share it).
[[nodiscard]] bool response_set_complete(const std::vector<Response>& frames,
                                         RouteMode mode);

/// Client-side resilience: how hard a closed-loop client fights for each
/// request before giving up. With max_retries == 0 every failure is
/// terminal (the pre-chaos behavior).
struct RetryPolicy {
  /// Extra attempts per request after the first (covers reconnects after
  /// a mid-call drop and resends after `overloaded`/`shutting-down`).
  std::size_t max_retries = 0;
  double backoff_ms = 10.0;       ///< base backoff before attempt 1
  double backoff_max_ms = 1000.0; ///< exponential growth cap
};

/// The deterministic backoff before retry `attempt` (0-based): the base
/// doubled per attempt, capped, with seeded jitter in [1/2, 1) of the
/// step so a fleet of clients does not retry in lockstep. Pure function
/// of (policy, attempt, salt) -- chaos runs replay identical schedules.
[[nodiscard]] double backoff_delay_ms(const RetryPolicy& policy,
                                      std::size_t attempt, std::uint64_t salt);

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t clients = 4;
  std::size_t requests_per_client = 8;
  std::size_t nets_per_request = 1;
  std::size_t pins = 12;           ///< pins per generated net
  std::uint64_t seed = 7;          ///< base seed; per-request seeds derive
  RouteMode mode = RouteMode::kSolve;
  core::Strategy strategy = core::Strategy::kLdrg;
  std::string evaluator = "graph-elmore";
  double deadline_ms = 0.0;        ///< per-request deadline (0 = server default)
  /// Every Nth request (1-based; 0 = never) carries a ~zero deadline so
  /// it exercises deadline-exceeded degradation.
  std::size_t timeout_every = 0;
  /// requests/s per client; 0 = closed loop (next send waits for the
  /// previous response set). Open loop pipelines sends on schedule and
  /// matches responses by id, which exercises server-side backpressure.
  double open_loop_rate = 0.0;
  /// Recompute every rung-0 routing locally and bit-compare against the
  /// server's (the bit-identity gate).
  bool verify = false;
  /// Closed-loop retry/reconnect policy (ignored by open-loop clients,
  /// whose pipelined sends cannot be replayed without duplicating ids).
  RetryPolicy retry{};
};

struct LoadgenReport {
  std::size_t requests_sent = 0;
  std::size_t response_sets = 0;   ///< requests fully answered
  std::size_t net_frames = 0;
  std::size_t ok = 0;              ///< rung-0 routings
  std::size_t degraded = 0;
  std::size_t quarantined = 0;
  std::size_t overloaded = 0;
  std::size_t errors = 0;          ///< other error frames
  std::size_t connect_failures = 0;     ///< failed connect attempts (all kinds)
  std::size_t connect_refused = 0;      ///< ... of which kUnavailable
  std::size_t connect_reset = 0;        ///< ... of which kConnectionReset
  std::size_t connect_timeout = 0;      ///< ... of which kTimeout
  std::size_t dropped_connections = 0;  ///< sockets that died mid-run
  std::size_t retries = 0;              ///< retry attempts (drops + refusals)
  std::size_t reconnects = 0;           ///< successful reconnections
  std::size_t unrecovered = 0;          ///< requests lost after all retries
  std::size_t verified = 0;
  std::size_t verify_mismatches = 0;
  double wall_s = 0.0;
  double throughput_rps = 0.0;     ///< completed requests per second
  double mean_ms = 0.0, p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0, max_ms = 0.0;
  std::vector<double> latencies_ms;  ///< per-request, unsorted

  /// One-paragraph human summary.
  [[nodiscard]] std::string summary() const;
};

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when
/// empty. Exposed for tests.
[[nodiscard]] double percentile(std::vector<double> sample, double q);

/// Runs the configured client fleet against host:port and aggregates.
[[nodiscard]] LoadgenReport run_loadgen(const LoadgenOptions& options);

}  // namespace ntr::serve
