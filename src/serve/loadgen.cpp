#include "serve/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/resilience.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"
#include "graph/net.h"
#include "io/net_io.h"
#include "serve/chaos.h"
#include "serve/wire.h"
#include "spice/technology.h"

namespace ntr::serve {

using runtime::Status;
using runtime::StatusCode;

namespace {

/// Types a socket-level errno into the retryability taxonomy: refused /
/// unreachable peers are kUnavailable (the server may come back), torn
/// connections are kConnectionReset (reconnect and resend), stalls are
/// kTimeout. Anything else stays kIoError.
StatusCode socket_errno_code(int err) {
  switch (err) {
    case ECONNREFUSED:
    case ENETUNREACH:
    case EHOSTUNREACH:
      return StatusCode::kUnavailable;
    case ECONNRESET:
    case ECONNABORTED:
    case EPIPE:
      return StatusCode::kConnectionReset;
    case ETIMEDOUT:
      return StatusCode::kTimeout;
    default:
      return StatusCode::kIoError;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Client.

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0)
    return Status(StatusCode::kIoError,
                  "socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    return Status(StatusCode::kBadInput, "unparseable host '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const Status s(socket_errno_code(errno),
                   "connect " + host + ":" + std::to_string(port) + ": " +
                       std::string(std::strerror(errno)));
    close();
    return s;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Status();
}

Status Client::send_bytes(std::string_view bytes) {
  if (fd_ < 0) return Status(StatusCode::kIoError, "client not connected");
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = chaos::chaos_send(fd_, bytes.data() + off,
                                        bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status(socket_errno_code(errno),
                  "send: " + std::string(std::strerror(errno)));
  }
  return Status();
}

Status Client::send_document(const Json& doc) {
  return send_bytes(encode_frame(doc.dump()));
}

Status Client::read_exact(char* buf, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t got = chaos::chaos_recv(fd_, buf + off, n - off, 0);
    if (got > 0) {
      off += static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0)
      return Status(StatusCode::kConnectionReset,
                    "connection closed by server");
    if (errno == EINTR) continue;
    return Status(socket_errno_code(errno),
                  "recv: " + std::string(std::strerror(errno)));
  }
  return Status();
}

runtime::StatusOr<Response> Client::read_response() {
  if (fd_ < 0) return Status(StatusCode::kIoError, "client not connected");
  unsigned char header[kFrameHeaderBytes];
  Status s = read_exact(reinterpret_cast<char*>(header), sizeof header);
  if (!s.ok()) return s;
  const std::uint32_t len = (static_cast<std::uint32_t>(header[0]) << 24) |
                            (static_cast<std::uint32_t>(header[1]) << 16) |
                            (static_cast<std::uint32_t>(header[2]) << 8) |
                            static_cast<std::uint32_t>(header[3]);
  if (len == 0 || len > kDefaultMaxFrameBytes * 16)
    return Status(StatusCode::kBadInput,
                  "implausible response frame length " + std::to_string(len));
  std::string payload(len, '\0');
  s = read_exact(payload.data(), payload.size());
  if (!s.ok()) return s;
  runtime::StatusOr<Json> doc = Json::parse(payload);
  if (!doc.ok()) return doc.status();
  return Response::from_json(*doc);
}

bool response_set_complete(const std::vector<Response>& frames, RouteMode mode) {
  std::size_t expected = 0;
  std::size_t counted = 0;
  for (const Response& f : frames) {
    if (f.kind == ResponseKind::kPong || f.kind == ResponseKind::kStats ||
        f.kind == ResponseKind::kShutdown)
      return true;
    if (f.kind == ResponseKind::kSummary) return true;  // flow terminal frame
    if (f.kind == ResponseKind::kError && f.net_count == 0)
      return true;  // request-level failure
    if (f.kind == ResponseKind::kNet ||
        (f.kind == ResponseKind::kError && f.net_count > 0)) {
      ++counted;
      expected = f.net_count;
    }
  }
  // A flow batch ends with its summary; a solve batch ends when every
  // net is accounted for (routed or individually rejected).
  return mode == RouteMode::kSolve && expected > 0 && counted >= expected;
}

runtime::StatusOr<std::vector<Response>> Client::call(const Request& req) {
  Status s = send_document(request_to_json(req));
  if (!s.ok()) return s;
  std::vector<Response> frames;
  while (!response_set_complete(frames, req.mode)) {
    runtime::StatusOr<Response> r = read_response();
    if (!r.ok()) return r.status();
    frames.push_back(*std::move(r));
  }
  return frames;
}

// ---------------------------------------------------------------------------
// Load generator.

double backoff_delay_ms(const RetryPolicy& policy, std::size_t attempt,
                        std::uint64_t salt) {
  double step = policy.backoff_ms;
  for (std::size_t i = 0; i < attempt && step < policy.backoff_max_ms; ++i)
    step *= 2.0;
  step = std::min(step, policy.backoff_max_ms);
  // Seeded jitter, not rand(): the same (policy, attempt, salt) always
  // waits the same time, so a failing chaos run replays exactly.
  chaos::ChaosRng rng(salt ^ (0xB0FFULL + attempt));
  return step * (0.5 + 0.5 * rng.next_unit());
}

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(q * static_cast<double>(sample.size()));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  idx = std::min(idx, sample.size() - 1);
  return sample[idx];
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t request_seed(const LoadgenOptions& o, std::size_t client,
                           std::size_t k) {
  return o.seed + 1000003ULL * client + k;
}

/// The nets of request (client, k), regenerated identically by the
/// sender and by --verify.
std::vector<graph::Net> request_nets(const LoadgenOptions& o, std::size_t client,
                                     std::size_t k) {
  expt::NetGenerator gen(request_seed(o, client, k));
  std::vector<graph::Net> nets;
  nets.reserve(o.nets_per_request);
  for (std::size_t j = 0; j < o.nets_per_request; ++j)
    nets.push_back(gen.random_net(o.pins));
  return nets;
}

Request build_request(const LoadgenOptions& o, std::size_t client,
                      std::size_t k) {
  Request req;
  req.id = Json::string("c" + std::to_string(client) + "-r" + std::to_string(k));
  req.mode = o.mode;
  for (const graph::Net& net : request_nets(o, client, k))
    req.nets.push_back(io::write_net(net));
  req.strategy = o.strategy;
  req.evaluator = o.evaluator;
  req.deadline_ms = o.deadline_ms;
  // 1-based so "--timeout-every 4" hits requests 3, 7, ...: never the
  // very first, which keeps tiny runs from timing out everything.
  if (o.timeout_every > 0 && (k + 1) % o.timeout_every == 0)
    req.deadline_ms = 0.05;  // ~expired at admission: forces the ladder
  return req;
}

/// A rung-0 routing to re-derive locally for the bit-identity check.
struct VerifyItem {
  std::size_t client = 0;
  std::size_t k = 0;
  std::size_t net_index = 0;
  std::string routing;
};

/// Thread-shared accumulator for the client fleet.
struct Aggregator {
  std::mutex mutex;
  LoadgenReport report;
  std::vector<VerifyItem> verify_items;
  const LoadgenOptions& options;

  explicit Aggregator(const LoadgenOptions& o) : options(o) {}

  void record_set(std::size_t client, std::size_t k,
                  const std::vector<Response>& frames, double latency_ms) {
    std::lock_guard<std::mutex> lock(mutex);
    ++report.response_sets;
    report.latencies_ms.push_back(latency_ms);
    for (const Response& f : frames) {
      if (f.kind == ResponseKind::kNet) {
        ++report.net_frames;
        if (f.status == ResponseStatus::kOk) {
          ++report.ok;
          if (options.verify && options.mode == RouteMode::kSolve &&
              f.rung == 0 && !f.routing.empty() &&
              verify_items.size() < 65536)
            verify_items.push_back(VerifyItem{client, k, f.net_index, f.routing});
        } else if (f.status == ResponseStatus::kDegraded) {
          ++report.degraded;
        } else if (f.status == ResponseStatus::kQuarantined) {
          ++report.quarantined;
        } else {
          ++report.errors;
        }
      } else if (f.kind == ResponseKind::kError) {
        if (f.status == ResponseStatus::kOverloaded)
          ++report.overloaded;
        else
          ++report.errors;
      }
    }
  }

  void count(std::size_t LoadgenReport::* field, std::size_t n = 1) {
    std::lock_guard<std::mutex> lock(mutex);
    report.*field += n;
  }
};

void count_connect_failure(Aggregator& agg, const Status& s) {
  agg.count(&LoadgenReport::connect_failures);
  if (s.code() == StatusCode::kUnavailable)
    agg.count(&LoadgenReport::connect_refused);
  else if (s.code() == StatusCode::kConnectionReset)
    agg.count(&LoadgenReport::connect_reset);
  else if (s.code() == StatusCode::kTimeout)
    agg.count(&LoadgenReport::connect_timeout);
}

void backoff_sleep(const RetryPolicy& policy, std::size_t attempt,
                   std::uint64_t salt) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      backoff_delay_ms(policy, attempt, salt)));
}

/// Connects with the retry policy. `ever_connected` distinguishes a
/// first connect from a reconnect in the report.
bool connect_with_retry(Client& client, const LoadgenOptions& o,
                        Aggregator& agg, std::uint64_t salt,
                        bool& ever_connected) {
  for (std::size_t attempt = 0;; ++attempt) {
    const Status s = client.connect(o.host, o.port);
    if (s.ok()) {
      if (ever_connected) agg.count(&LoadgenReport::reconnects);
      ever_connected = true;
      return true;
    }
    count_connect_failure(agg, s);
    if (attempt >= o.retry.max_retries) return false;
    agg.count(&LoadgenReport::retries);
    backoff_sleep(o.retry, attempt, salt);
  }
}

/// True when every frame of a complete set is a retryable refusal --
/// the whole request was turned away, so a resend cannot duplicate
/// delivered results.
bool all_refused(const std::vector<Response>& frames) {
  if (frames.empty()) return false;
  for (const Response& f : frames) {
    if (f.kind != ResponseKind::kError) return false;
    if (f.status != ResponseStatus::kOverloaded &&
        f.status != ResponseStatus::kShuttingDown)
      return false;
  }
  return true;
}

void closed_loop_client(std::size_t ci, const LoadgenOptions& o, Aggregator& agg) {
  Client client;
  bool ever_connected = false;
  if (!connect_with_retry(client, o, agg, request_seed(o, ci, 0),
                          ever_connected))
    return;
  for (std::size_t k = 0; k < o.requests_per_client; ++k) {
    const Request req = build_request(o, ci, k);
    agg.count(&LoadgenReport::requests_sent);
    const std::uint64_t salt = request_seed(o, ci, k);
    bool recorded = false;
    for (std::size_t attempt = 0; attempt <= o.retry.max_retries; ++attempt) {
      if (attempt > 0) {
        agg.count(&LoadgenReport::retries);
        backoff_sleep(o.retry, attempt - 1, salt);
      }
      if (!client.connected() &&
          !connect_with_retry(client, o, agg, salt, ever_connected))
        break;
      const Clock::time_point t0 = Clock::now();
      const runtime::StatusOr<std::vector<Response>> frames = client.call(req);
      if (!frames.ok()) {
        // Mid-call drop (reset, torn frame, chaos disconnect): reconnect
        // and resend on the next attempt. Routing is idempotent, and the
        // dead socket cannot deliver partial results twice.
        agg.count(&LoadgenReport::dropped_connections);
        client.close();
        continue;
      }
      if (all_refused(*frames) && attempt < o.retry.max_retries)
        continue;  // overloaded/shutting-down: back off, resend
      agg.record_set(ci, k, *frames, ms_between(t0, Clock::now()));
      recorded = true;
      break;
    }
    if (!recorded) {
      agg.count(&LoadgenReport::unrecovered);
      if (!client.connected()) return;  // peer hard-down: stop this client
    }
  }
}

void open_loop_client(std::size_t ci, const LoadgenOptions& o, Aggregator& agg) {
  Client client;
  bool ever_connected = false;
  if (!connect_with_retry(client, o, agg, request_seed(o, ci, 0),
                          ever_connected))
    return;

  struct Pending {
    Clock::time_point t0;
    std::size_t k = 0;
    std::vector<Response> frames;
  };
  std::mutex mu;
  std::map<std::string, Pending> pending;
  std::size_t sent = 0;
  bool sender_dead = false;

  // Joined before scope exit.
  std::thread sender([&] {  // ntr-lint-allow(escaping-ref-capture)
    const auto interval = std::chrono::duration<double>(1.0 / o.open_loop_rate);
    Clock::time_point next = Clock::now();
    for (std::size_t k = 0; k < o.requests_per_client; ++k) {
      const Request req = build_request(o, ci, k);
      const std::string rid = req.id.as_string();
      {
        std::lock_guard<std::mutex> lock(mu);
        pending[rid] = Pending{Clock::now(), k, {}};
        ++sent;
      }
      agg.count(&LoadgenReport::requests_sent);
      if (!client.send_document(request_to_json(req)).ok()) {
        std::lock_guard<std::mutex> lock(mu);
        sender_dead = true;
        return;
      }
      next += std::chrono::duration_cast<Clock::duration>(interval);
      std::this_thread::sleep_until(next);
    }
  });

  // Reader: match frames to in-flight requests by id until every sent
  // request has a complete response set (or the socket dies).
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (pending.empty() && (sender_dead || sent == o.requests_per_client))
        break;
    }
    runtime::StatusOr<Response> frame = client.read_response();
    if (!frame.ok()) {
      agg.count(&LoadgenReport::dropped_connections);
      break;
    }
    const std::string rid =
        frame->id.is_string() ? frame->id.as_string() : std::string();
    std::vector<Response> done_frames;
    Clock::time_point t0{};
    std::size_t done_k = 0;
    bool done = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = pending.find(rid);
      if (it == pending.end()) continue;  // stale or unmatched frame
      it->second.frames.push_back(*std::move(frame));
      if (response_set_complete(it->second.frames, o.mode)) {
        done = true;
        t0 = it->second.t0;
        done_k = it->second.k;
        done_frames = std::move(it->second.frames);
        pending.erase(it);
      }
    }
    if (done) agg.record_set(ci, done_k, done_frames, ms_between(t0, Clock::now()));
  }
  sender.join();
}

/// Recomputes every collected rung-0 routing with the library directly
/// (same strategy/evaluator/config the service uses) and bit-compares.
void run_verification(Aggregator& agg) {
  const LoadgenOptions& o = agg.options;
  const spice::Technology tech = spice::kTable1Technology;
  const std::unique_ptr<delay::DelayEvaluator> evaluator =
      delay::make_evaluator(o.evaluator, tech);
  if (evaluator == nullptr) return;
  for (const VerifyItem& item : agg.verify_items) {
    const std::vector<graph::Net> nets = request_nets(o, item.client, item.k);
    if (item.net_index >= nets.size()) {
      ++agg.report.verify_mismatches;
      continue;
    }
    core::SolverConfig config;
    config.tech = tech;
    const core::GuardedSolution guarded = core::solve_resilient(
        nets[item.net_index], o.strategy, *evaluator, config, {});
    ++agg.report.verified;
    if (!guarded.solution ||
        io::write_routing(guarded.solution->graph) != item.routing)
      ++agg.report.verify_mismatches;
  }
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenOptions& options) {
  Aggregator agg(options);
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::thread> fleet;
    fleet.reserve(options.clients);
    for (std::size_t ci = 0; ci < options.clients; ++ci) {
      // Joined at the end of this block.
      fleet.emplace_back([ci, &options, &agg] {  // ntr-lint-allow(escaping-ref-capture)
        if (options.open_loop_rate > 0.0)
          open_loop_client(ci, options, agg);
        else
          closed_loop_client(ci, options, agg);
      });
    }
    for (std::thread& t : fleet) t.join();
  }
  agg.report.wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  if (options.verify) run_verification(agg);

  LoadgenReport& r = agg.report;
  if (r.wall_s > 0.0)
    r.throughput_rps = static_cast<double>(r.response_sets) / r.wall_s;
  if (!r.latencies_ms.empty()) {
    double sum = 0.0, mx = 0.0;
    for (const double v : r.latencies_ms) {
      sum += v;
      mx = std::max(mx, v);
    }
    r.mean_ms = sum / static_cast<double>(r.latencies_ms.size());
    r.max_ms = mx;
    r.p50_ms = percentile(r.latencies_ms, 0.50);
    r.p95_ms = percentile(r.latencies_ms, 0.95);
    r.p99_ms = percentile(r.latencies_ms, 0.99);
  }
  return agg.report;
}

std::string LoadgenReport::summary() const {
  char buf[640];
  std::snprintf(buf, sizeof buf,
                "%zu requests (%zu answered, %zu net frames: %zu ok, %zu "
                "degraded, %zu quarantined, %zu overloaded, %zu errors) in "
                "%.3fs; %.1f req/s; latency ms p50 %.2f p95 %.2f p99 %.2f "
                "max %.2f; %zu dropped connections; %zu retries, %zu "
                "reconnects, %zu unrecovered; verified %zu (%zu mismatches)",
                requests_sent, response_sets, net_frames, ok, degraded,
                quarantined, overloaded, errors, wall_s, throughput_rps,
                p50_ms, p95_ms, p99_ms, max_ms, dropped_connections, retries,
                reconnects, unrecovered, verified, verify_mismatches);
  return std::string(buf);
}

}  // namespace ntr::serve
