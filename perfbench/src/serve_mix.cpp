// serve_mix: the real ntr_serve binary fed over loopback by the benchmark's
// own open-loop load generator (phase 1), a saturating closed loop (phase 2)
// and a closed loop with one request per lane (phase 3), then every request
// replayed in-process through serve::execute_work_item.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "delay/evaluator.h"
#include "graph/routing_graph.h"
#include "io/net_io.h"
#include "serve/json.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "spice/technology.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace serve = ntr::serve;

/// Server lanes. Two lanes on a 4-vCPU VM leave room for the generator
/// (two threads, one connection) without oversubscribing.
constexpr std::size_t kLanes = 2;
/// Closed-loop windows: two outstanding requests per lane keep the lanes
/// saturated (phase 2, capacity); one per lane never queues a request
/// (phase 3, latency).
constexpr std::size_t kCapacityWindow = 2 * kLanes;
constexpr std::size_t kLatencyWindow = kLanes;
/// Each closed loop sends the phase-1 requests this many times, and the two
/// closed loops alternate in chunks: a few seconds of one phase is too
/// short to average out the VM's speed swings, and alternating makes both
/// phases sample them over the same stretch of time.
constexpr std::size_t kClosedPasses = 3;
constexpr std::size_t kClosedChunks = 12;
/// One mix cycle: 10 transient solves, 5 graph-Elmore solves, 2 flow
/// batches, shuffled.
constexpr std::size_t kCycleA = 10, kCycleB = 5, kCycleC = 2;
constexpr std::size_t kCycle = kCycleA + kCycleB + kCycleC;
/// Phase-1 requests per second of --seconds: 1200 at the default 20 s,
/// enough for 12 samples beyond the open-loop p99.
constexpr double kRequestsPerSecond = 60.0;
/// Phase-1 arrival rate. The mix's mean service time is about 6 ms on a
/// 4-vCPU VM, so this keeps the two lanes about half busy.
constexpr double kRatePerS = 150.0;
/// Flow clock: tight enough that the flow reroutes critical nets.
constexpr double kFlowClockS = 3.5e-9;
constexpr std::size_t kSetupRepeats = 31;
constexpr auto kSpinMargin = std::chrono::microseconds(500);

struct MixRequest {
  char kind = 'A';
  serve::Request request;  ///< as the server parses it
};

/// The frames one phase sends, encoded before it starts: send k carries
/// request k % reqs.size() with id "<phase>:<k>".
std::vector<std::string> phase_frames(const std::vector<MixRequest>& reqs, char phase,
                                      std::size_t sends) {
  std::vector<std::string> frames;
  frames.reserve(sends);
  for (std::size_t k = 0; k < sends; ++k) {
    serve::Request req = reqs[k % reqs.size()].request;
    req.id = serve::Json::string(std::string(1, phase) + ":" + std::to_string(k));
    frames.push_back(serve::encode_frame(serve::request_to_json(req).dump()));
  }
  return frames;
}

/// Evenly spread integers over [lo, hi]: the i-th of m.
std::size_t spread(std::size_t lo, std::size_t hi, std::size_t i, std::size_t m) {
  return lo + i * (hi - lo + 1) / m;
}

/// `cycles` mix cycles, each with the same kinds and the same multiset of
/// net sizes (pins and flow batch sizes spread evenly over their ranges),
/// shuffled within the cycle; the seed picks pin positions and order. Every
/// solve adds at most two edges (three for graph-Elmore), as in
/// paper_tables and large_nets, so a request's cost depends on its size
/// more than on where its pins fell.
std::vector<MixRequest> make_requests(std::uint64_t seed, std::size_t cycles,
                                      std::uint64_t purpose) {
  std::vector<MixRequest> out;
  out.reserve(cycles * kCycle);
  for (std::size_t c = 0; c < cycles; ++c) {
    std::vector<std::pair<char, std::size_t>> slots;  // kind, index within kind
    for (std::size_t i = 0; i < kCycleA; ++i) slots.emplace_back('A', i);
    for (std::size_t i = 0; i < kCycleB; ++i) slots.emplace_back('B', i);
    for (std::size_t i = 0; i < kCycleC; ++i) slots.emplace_back('C', i);
    Rng order(stream_seed(seed, purpose, 0x10000000u + c));
    shuffle(slots, order);
    for (const auto& [kind, i] : slots) {
      const std::size_t k = out.size();
      Rng rng(stream_seed(seed, purpose, k));
      serve::Request req;
      req.op = serve::RequestOp::kRoute;
      req.strategy = ntr::core::Strategy::kLdrg;
      if (kind == 'A') {
        req.evaluator = "transient";
        req.max_edges = 2;
        req.nets.push_back(random_net_text(rng, spread(8, 12, i, kCycleA)));
      } else if (kind == 'B') {
        req.evaluator = "graph-elmore";
        req.max_edges = 3;
        req.nets.push_back(
            random_net_text(rng, spread(30, 60, (c * kCycleB + i) % 31, 31)));
      } else {
        req.mode = serve::RouteMode::kFlow;
        req.evaluator = "transient";
        req.max_edges = 2;
        req.clock_period_s = kFlowClockS;
        // Batch sizes 4-8 across consecutive cycles' flow slots.
        const std::size_t n = spread(4, 8, (c * kCycleC + i) % 5, 5);
        for (std::size_t j = 0; j < n; ++j)
          req.nets.push_back(random_net_text(rng, spread(8, 12, j, n)));
      }
      // The replay must see the request exactly as the server parses it.
      const std::string text = serve::request_to_json(req).dump();
      auto doc = serve::Json::parse(text);
      if (!doc.ok()) throw std::runtime_error("serve_mix: request does not parse");
      auto parsed = serve::parse_request(*doc);
      if (!parsed.ok()) throw std::runtime_error("serve_mix: request rejected");
      out.push_back(MixRequest{kind, *std::move(parsed)});
    }
  }
  return out;
}

/// A spawned ntr_serve. The destructor kills and reaps it if it is still
/// running, so no path leaves it behind.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, std::size_t lanes) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("serve_mix: pipe failed");
    out_fd_ = fds[0];
    std::vector<std::string> args = {bin,    "--host",   "127.0.0.1", "--port",
                                     "0",    "--threads", std::to_string(lanes)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // Forked while this process is single-threaded. The child dies with
    // its parent, so a crashed or killed benchmark leaves no server behind.
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      const int null_fd = ::open("/dev/null", O_RDONLY);
      if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    if (pid_ < 0) throw std::runtime_error("serve_mix: fork failed");
    // "ntr_serve: listening on 127.0.0.1:PORT (...)"
    std::string line;
    char c = 0;
    while (line.find('\n') == std::string::npos && ::read(out_fd_, &c, 1) == 1) line += c;
    const std::size_t colon = line.find("127.0.0.1:");
    if (colon == std::string::npos)
      throw std::runtime_error("serve_mix: ntr_serve did not report its port");
    port_ = static_cast<std::uint16_t>(std::stoul(line.substr(colon + 10)));
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// utime + stime of the server so far, ms.
  [[nodiscard]] double cpu_ms() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::istringstream rest(text.substr(text.rfind(')') + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && rest >> field; ++i)
      if (i == 14 || i == 15) ticks += std::stod(field);
    return ticks * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set of the server, MiB.
  [[nodiscard]] double peak_rss_mib() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kib = 0.0;
        in >> kib;
        return kib / 1024.0;
      }
      in.ignore(4096, '\n');
    }
    return 0.0;
  }

  /// Waits for a clean exit after a shutdown request; false on a timeout
  /// (the process is then killed) or a non-zero exit.
  bool wait_exit() {
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

serve::Request op_request(serve::RequestOp op) {
  serve::Request r;
  r.op = op;
  return r;
}

/// Opens a connection and waits for a pong.
void connect_and_ping(serve::Client& client, std::uint16_t port) {
  if (!client.connect("127.0.0.1", port).ok())
    throw std::runtime_error("serve_mix: cannot connect to ntr_serve");
  auto pong = client.call(op_request(serve::RequestOp::kPing));
  if (!pong.ok() || pong->empty() || pong->front().kind != serve::ResponseKind::kPong)
    throw std::runtime_error("serve_mix: ntr_serve did not answer a ping");
}

bool shutdown_server(serve::Client& client, ServerProcess& server) {
  auto ack = client.call(op_request(serve::RequestOp::kShutdown));
  client.close();
  return ack.ok() && server.wait_exit();
}

/// Set-up: spawns ntr_serve and waits until it answers `client`'s ping;
/// appends the time that took to `setup_s`.
std::unique_ptr<ServerProcess> timed_spawn(const std::string& bin, serve::Client& client,
                                           std::vector<double>& setup_s) {
  const Clock::time_point t0 = Clock::now();
  auto server = std::make_unique<ServerProcess>(bin, kLanes);
  connect_and_ping(client, server->port());
  setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  return server;
}

struct Exchange {
  std::vector<serve::Response> frames;
  Clock::time_point scheduled{}, sent{}, done{};
  bool complete = false;
};

/// Routes a received frame to its request by id ("<phase>:<index>");
/// anything else maps past the end.
std::size_t index_of(const serve::Response& r) {
  std::size_t k = static_cast<std::size_t>(-1);
  if (!r.id.is_string()) return k;
  const std::string& id = r.id.as_string();
  const std::size_t colon = id.find(':');
  if (colon == std::string::npos) return k;
  std::from_chars(id.data() + colon + 1, id.data() + id.size(), k);
  return k;
}

/// Reads frames until the exchanges of sends [begin, end) are complete;
/// `on_complete` runs for each completed send. False when the connection
/// drops.
template <typename OnComplete>
bool read_until_complete(serve::Client& client, const std::vector<MixRequest>& reqs,
                         std::vector<Exchange>& ex, std::size_t begin, std::size_t end,
                         OnComplete&& on_complete) {
  std::size_t completed = 0;
  while (completed < end - begin) {
    auto frame = client.read_response();
    if (!frame.ok()) return false;
    const std::size_t k = index_of(*frame);
    if (k < begin || k >= end || ex[k].complete) continue;
    ex[k].frames.push_back(*std::move(frame));
    if (serve::response_set_complete(ex[k].frames,
                                     reqs[k % reqs.size()].request.mode)) {
      ex[k].done = Clock::now();
      ex[k].complete = true;
      ++completed;
      on_complete(k);
    }
  }
  return true;
}

/// Phase 1: sends frame k at its scheduled time from a sender thread while
/// this thread reads the responses.
bool open_loop(serve::Client& client, const std::vector<MixRequest>& reqs,
               const std::vector<std::string>& frames, std::vector<Exchange>& ex,
               const std::vector<double>& offsets_s) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t k = 0; k < ex.size(); ++k)
    ex[k].scheduled = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(offsets_s[k]));
  bool send_ok = true;
  std::thread sender([&] {
    for (std::size_t k = 0; k < ex.size(); ++k) {
      // Sleep to just short of the send time, then spin: a sleeping thread
      // wakes late by a VM-dependent margin that would otherwise show up
      // as generator lateness in every request's latency.
      std::this_thread::sleep_until(ex[k].scheduled - kSpinMargin);
      while (Clock::now() < ex[k].scheduled) {
      }
      ex[k].sent = Clock::now();
      if (!client.send_bytes(frames[k]).ok()) {
        send_ok = false;
        return;
      }
    }
  });
  const bool read_ok =
      read_until_complete(client, reqs, ex, 0, ex.size(), [](std::size_t) {});
  sender.join();
  return read_ok && send_ok;
}

/// Keeps `window` requests outstanding until sends [begin, end) have been
/// answered. Returns the wall time in seconds, or -1 when the connection
/// drops.
double closed_loop(serve::Client& client, const std::vector<MixRequest>& reqs,
                   const std::vector<std::string>& frames, std::vector<Exchange>& ex,
                   std::size_t begin, std::size_t end, std::size_t window) {
  const Clock::time_point start = Clock::now();
  std::size_t next = begin;
  bool send_ok = true;
  const auto send_next = [&] {
    if (next >= end || !send_ok) return;
    ex[next].scheduled = ex[next].sent = Clock::now();
    send_ok = client.send_bytes(frames[next]).ok();
    ++next;
  };
  while (next < std::min(begin + window, end)) send_next();
  if (!read_until_complete(client, reqs, ex, begin, end,
                           [&](std::size_t) { send_next(); }) ||
      !send_ok)
    return -1.0;
  return ms_between(start, Clock::now()) / 1e3;
}

/// Exponential gaps with mean 1/rate, drawn by stratified sampling (one
/// draw per quantile band, shuffled): Poisson-like arrivals whose total
/// offered load is the same in every run.
std::vector<double> poisson_offsets(std::size_t n, double rate, std::uint64_t seed) {
  Rng rng(stream_seed(seed, 7, 0));
  std::vector<double> gaps(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.unit()) / static_cast<double>(n);
    gaps[i] = -std::log1p(-u) / rate;
  }
  shuffle(gaps, rng);
  std::vector<double> offsets(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i] = t;
    t += gaps[i];
  }
  return offsets;
}

std::string normalized(serve::Response r) {
  r.id = serve::Json{};
  return r.to_json();
}

struct Replay {
  std::vector<std::vector<serve::Response>> frames;
  std::vector<double> service_ms;
  std::vector<Clock::time_point> start, end;
  std::vector<double> delay_ratio;  ///< per request: mean over its nets
  std::vector<double> cost_ratio;
  std::vector<double> mst_ms;
};

/// Replays every request through execute_work_item on kLanes threads, and
/// measures each served net against its MST under the request's
/// evaluator.
Replay replay_all(const std::vector<MixRequest>& reqs,
                  const std::vector<Exchange>& ex) {
  Replay out;
  const std::size_t n = reqs.size();
  out.frames.resize(n);
  out.service_ms.assign(n, 0.0);
  out.start.resize(n);
  out.end.resize(n);
  out.delay_ratio.assign(n, 0.0);
  out.cost_ratio.assign(n, 0.0);
  out.mst_ms.assign(n, 0.0);
  const serve::ServiceConfig config;
  ntr::runtime::CancelSource cancel;
  const auto work = [&](std::size_t lane) {
    const ntr::delay::TransientEvaluator transient(config.tech);
    const ntr::delay::GraphElmoreEvaluator elmore(config.tech);
    for (std::size_t k = lane; k < n; k += kLanes) {
      serve::WorkItem item;
      item.request = std::make_shared<const serve::Request>(reqs[k].request);
      item.net_index =
          reqs[k].request.mode == serve::RouteMode::kFlow ? serve::kWholeBatch : 0;
      out.start[k] = Clock::now();
      out.frames[k] = serve::execute_work_item(item, config, cancel.token());
      out.end[k] = Clock::now();
      out.service_ms[k] = ms_between(out.start[k], out.end[k]);

      const ntr::delay::DelayEvaluator& eval =
          reqs[k].request.evaluator == "transient"
              ? static_cast<const ntr::delay::DelayEvaluator&>(transient)
              : elmore;
      double dr = 0.0, cr = 0.0, nets = 0.0;
      for (const serve::Response& r : ex[k].frames) {
        if (r.kind != serve::ResponseKind::kNet || r.status != serve::ResponseStatus::kOk)
          continue;
        const ntr::graph::Net net = ntr::io::read_net(reqs[k].request.nets[r.net_index]);
        const Clock::time_point m0 = Clock::now();
        const ntr::graph::RoutingGraph mst = ntr::graph::mst_routing(net);
        out.mst_ms[k] += ms_between(m0, Clock::now());
        dr += r.max_delay_s / eval.max_delay(mst);
        cr += r.wirelength_um / mst.total_wirelength();
        nets += 1.0;
      }
      if (nets > 0.0) {
        out.delay_ratio[k] = dr / nets;
        out.cost_ratio[k] = cr / nets;
      }
    }
  };
  std::vector<std::thread> lanes;
  for (std::size_t lane = 1; lane < kLanes; ++lane) lanes.emplace_back(work, lane);
  work(0);
  for (std::thread& t : lanes) t.join();
  return out;
}

/// Counts a request failed unless every frame is an ok routing (or the
/// flow summary) bit-identical to the replay.
void check_exchange(const Exchange& ex,
                    const std::vector<serve::Response>& replay, const std::string& tag,
                    RunResult& result) {
  ++result.attempted;
  if (!ex.complete) {
    result.fail(tag + ": no complete response (connection dropped)");
    return;
  }
  for (const serve::Response& r : ex.frames) {
    const bool ok_net =
        r.kind == serve::ResponseKind::kNet && r.status == serve::ResponseStatus::kOk;
    const bool ok_summary = r.kind == serve::ResponseKind::kSummary &&
                            r.status == serve::ResponseStatus::kOk;
    if (!ok_net && !ok_summary) {
      result.fail(tag + ": " + serve::response_status_name(r.status) + " frame");
      return;
    }
  }
  if (ex.frames.size() != replay.size()) {
    result.fail(tag + ": frame count differs from the replay");
    return;
  }
  for (std::size_t i = 0; i < replay.size(); ++i) {
    if (normalized(ex.frames[i]) != normalized(replay[i])) {
      result.fail(tag + ": frame " + std::to_string(i) + " differs from the replay");
      return;
    }
  }
}

double json_count(const serve::Json& stats, const char* key) {
  const serve::Json* v = stats.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

}  // namespace

RunResult run_serve_mix(const Options& options) {
  RunResult result;
  if (options.serve_bin.empty())
    throw std::invalid_argument("serve_mix needs --serve-bin");
  Tracer tracer;

  // --seconds sets the phase-1 request count; the rate is fixed.
  const double rate = kRatePerS;
  const auto cycles1 = static_cast<std::size_t>(std::max(
      1.0, std::round(options.seconds * kRequestsPerSecond / static_cast<double>(kCycle))));
  const std::vector<MixRequest> reqs = make_requests(options.seed, cycles1, 1);
  // Phases 2 and 3 send the phase-1 requests again, so every phase runs the
  // same work and one replay covers all of them.
  const std::size_t n1 = reqs.size();
  const std::size_t n_closed = kClosedPasses * n1;
  const std::vector<double> offsets = poisson_offsets(n1, rate, options.seed);
  const std::vector<std::string> frames1 = phase_frames(reqs, '1', n1);
  const std::vector<std::string> frames2 = phase_frames(reqs, '2', n_closed);
  const std::vector<std::string> frames3 = phase_frames(reqs, '3', n_closed);

  // Set-up, kSetupRepeats times: the first server stays up for the run;
  // the others are spawned, pinged and shut down in the gaps between the
  // closed-loop chunks, so that the median, setup_s, samples the VM over
  // the whole run as the timed metrics do.
  std::vector<double> setup_s;
  serve::Client client;
  std::unique_ptr<ServerProcess> server = timed_spawn(options.serve_bin, client, setup_s);
  const auto extra_set_ups = [&](std::size_t count) {
    for (std::size_t r = 0; r < count; ++r) {
      serve::Client probe;
      std::unique_ptr<ServerProcess> extra = timed_spawn(options.serve_bin, probe, setup_s);
      if (!shutdown_server(probe, *extra)) result.fail("set-up server did not drain");
    }
  };

  // Warm-up: one cycle of requests outside the measured set.
  {
    const std::vector<MixRequest> warm = make_requests(options.seed, 1, 2);
    std::vector<Exchange> wex(warm.size());
    if (closed_loop(client, warm, phase_frames(warm, 'w', warm.size()), wex, 0,
                    warm.size(), kCapacityWindow) < 0.0)
      throw std::runtime_error("serve_mix: connection dropped during warm-up");
  }

  std::vector<Exchange> ex1(n1), ex2(n_closed), ex3(n_closed);
  const double cpu0 = server->cpu_ms();
  const Clock::time_point p1_start = Clock::now();
  const bool phase1_ok = open_loop(client, reqs, frames1, ex1, offsets);
  const double p1_wall_s = ms_between(p1_start, Clock::now()) / 1e3;
  double p2_wall_s = 0.0, p3_wall_s = 0.0;
  bool closed_ok = phase1_ok;
  for (std::size_t c = 0; c < kClosedChunks && closed_ok; ++c) {
    extra_set_ups((c + 1) * (kSetupRepeats - 1) / kClosedChunks -
                  c * (kSetupRepeats - 1) / kClosedChunks);
    const std::size_t begin = c * n_closed / kClosedChunks;
    const std::size_t end = (c + 1) * n_closed / kClosedChunks;
    const double t2 = closed_loop(client, reqs, frames2, ex2, begin, end, kCapacityWindow);
    const double t3 =
        t2 < 0.0 ? -1.0 : closed_loop(client, reqs, frames3, ex3, begin, end, kLatencyWindow);
    closed_ok = t3 >= 0.0;
    p2_wall_s += t2;
    p3_wall_s += t3;
  }
  const double cpu1 = server->cpu_ms();
  const double server_rss = server->peak_rss_mib();

  serve::Json stats;
  if (closed_ok) {
    auto st = client.call(op_request(serve::RequestOp::kStats));
    if (st.ok() && !st->empty()) stats = st->front().stats;
  }
  if (!shutdown_server(client, *server)) result.fail("ntr_serve did not drain cleanly");
  server.reset();
  if (!closed_ok) result.fail("connection to ntr_serve dropped during the timed phases");

  const Replay replay = replay_all(reqs, ex1);
  for (std::size_t k = 0; k < n1; ++k)
    check_exchange(ex1[k], replay.frames[k], "phase-1 request " + std::to_string(k),
                   result);
  for (std::size_t k = 0; k < n_closed; ++k) {
    check_exchange(ex2[k], replay.frames[k % n1], "phase-2 send " + std::to_string(k),
                   result);
    check_exchange(ex3[k], replay.frames[k % n1], "phase-3 send " + std::to_string(k),
                   result);
  }

  std::vector<double> latency_ms, late_ms, unqueued_ms;
  for (const Exchange& e : ex1) {
    if (!e.complete) continue;
    latency_ms.push_back(ms_between(e.scheduled, e.done));
    late_ms.push_back(ms_between(e.scheduled, e.sent));
  }
  for (const Exchange& e : ex3)
    if (e.complete) unqueued_ms.push_back(ms_between(e.sent, e.done));
  const auto beyond = [&](double q) {
    const double n = static_cast<double>(latency_ms.size());
    return latency_ms.size() - static_cast<std::size_t>(std::ceil(q * n));
  };
  char note[200];
  std::snprintf(note, sizeof note,
                "%zu phase-1 requests at %.1f/s over %.2f s (%zu beyond p99); "
                "%zu sends in %.2f s (phase 2) and %.2f s (phase 3)",
                n1, rate, p1_wall_s, beyond(0.99), n_closed, p2_wall_s, p3_wall_s);
  result.notes.push_back(note);
  if (!options.trace) {
    result.set("setup_s", median(setup_s), "s");
    result.set("ops_per_s", closed_ok ? static_cast<double>(n_closed) / p2_wall_s : 0.0,
               "1/s");
    result.set("latency_p50_ms", hd_quantile(unqueued_ms, 0.5), "ms");
    result.set("latency_p90_ms", hd_quantile(unqueued_ms, 0.9), "ms");
    result.set("delay_ratio", mean(replay.delay_ratio), "ratio");
    result.set("cost_ratio", mean(replay.cost_ratio), "ratio");
    result.set("peak_rss_mb", server_rss, "MiB");
    return result;
  }

  zero_layer_metrics(result);
  std::vector<double> wait_ms, flow_ms;
  double busy_ms = 0.0, parse_ns = 0.0, mst_ms = 0.0;
  std::size_t codec_bytes = 0;
  std::size_t parsed_nets = 0;
  double iterations = 0.0, rerouted = 0.0, wns_gain = 0.0, flows = 0.0;
  std::vector<SampledGraph> sample;
  const ntr::spice::Technology tech = serve::ServiceConfig{}.tech;
  for (std::size_t k = 0; k < n1; ++k) {
    const Exchange& e = ex1[k];
    const auto trace = static_cast<std::uint32_t>(k);
    tracer.record("gen.request", trace, tracer.to_ns(e.scheduled), tracer.to_ns(e.done));
    tracer.record("gen.late", trace, tracer.to_ns(e.scheduled), tracer.to_ns(e.sent));
    const double service = replay.service_ms[k];
    busy_ms += service;
    mst_ms += replay.mst_ms[k];
    if (e.complete) wait_ms.push_back(ms_between(e.sent, e.done) - service);

    tracer.record("serve.execute_work_item", trace, tracer.to_ns(replay.start[k]),
                  tracer.to_ns(replay.end[k]));

    // Codec: the client's encode of the request and decode of its frames,
    // folded into one span per request.
    std::int32_t codec = -1;
    const std::int64_t e0 = tracer.now_ns();
    const std::string frame =
        serve::encode_frame(serve::request_to_json(reqs[k].request).dump());
    tracer.accumulate(codec, "serve.codec", e0, tracer.now_ns());
    codec_bytes += frame.size();
    for (const serve::Response& r : replay.frames[k]) {
      const std::string payload = r.to_json();
      const std::int64_t d0 = tracer.now_ns();
      auto doc = serve::Json::parse(payload);
      const bool decoded = doc.ok() && serve::Response::from_json(*doc).ok();
      tracer.accumulate(codec, "serve.codec", d0, tracer.now_ns());
      if (decoded) codec_bytes += payload.size();
    }

    for (const std::string& text : reqs[k].request.nets) {
      const std::int64_t p0 = tracer.now_ns();
      (void)ntr::io::read_net(text);
      parse_ns += static_cast<double>(tracer.now_ns() - p0);
      ++parsed_nets;
    }
    for (const serve::Response& r : replay.frames[k]) {
      if (r.kind == serve::ResponseKind::kSummary) {
        iterations += r.iterations;
        rerouted += static_cast<double>(r.nets_rerouted);
        wns_gain += (r.worst_slack_s - r.initial_worst_slack_s) * 1e12;
        flows += 1.0;
      } else if (r.kind == serve::ResponseKind::kNet && reqs[k].request.evaluator ==
                                                            "transient" &&
                 k % 4 == 0 && sample.size() < 256) {
        sample.push_back(SampledGraph{ntr::io::read_routing(r.routing)});
      }
    }
    if (reqs[k].kind == 'C') flow_ms.push_back(service);
  }
  replay_transient(sample, tech, tracer, result);
  std::snprintf(note, sizeof note, "codec round-tripped %zu bytes", codec_bytes);
  result.notes.push_back(note);
  for (const char kind : {'A', 'B', 'C'}) {
    std::vector<double> sv;
    for (std::size_t k = 0; k < n1; ++k)
      if (reqs[k].kind == kind) sv.push_back(replay.service_ms[k]);
    std::snprintf(note, sizeof note,
                  "kind %c: %zu requests, service mean %.2f ms, p50 %.2f ms, max %.2f ms",
                  kind, sv.size(), mean(sv), median(sv), serve::percentile(sv, 1.0));
    result.notes.push_back(note);
  }

  result.set("graph.mst_ms", mst_ms, "ms");
  result.set("flow.ms", mean(flow_ms), "ms");
  result.set("flow.iterations", iterations, "count");
  result.set("flow.nets_rerouted", rerouted, "count");
  result.set("flow.wns_gain_ps", flows > 0.0 ? wns_gain / flows : 0.0, "ps");
  result.set("serve.service_ms_p50", median(replay.service_ms), "ms");
  result.set("serve.service_ms_p99", serve::percentile(replay.service_ms, 0.99), "ms");
  result.set("serve.wait_ms_p50", median(wait_ms), "ms");
  result.set("serve.wait_ms_p99", serve::percentile(wait_ms, 0.99), "ms");
  result.set("serve.codec_us",
             tracer.busy_ms("serve.codec") * 1e3 / static_cast<double>(n1), "us");
  result.set("serve.p50_ms", hd_quantile(latency_ms, 0.5), "ms");
  result.set("serve.p99_ms", serve::percentile(latency_ms, 0.99), "ms");
  result.set("serve.cpu_ms_per_req",
             (cpu1 - cpu0) / static_cast<double>(n1 + 2 * n_closed), "ms");
  result.set("serve.lane_busy_share",
             busy_ms / (static_cast<double>(kLanes) * p1_wall_s * 1e3), "share");
  result.set("serve.gen_late_ms_p99", serve::percentile(late_ms, 0.99), "ms");
  result.set("serve.overloaded", json_count(stats, "rejected_overloaded"), "count");
  result.set("serve.watchdog_cancels", json_count(stats, "watchdog_cancels"), "count");
  result.set("io.parse_us",
             parsed_nets == 0 ? 0.0 : parse_ns / 1e3 / static_cast<double>(parsed_nets),
             "us");
  // trace.overhead_share stays 0: nothing is instrumented while the timed
  // phases run; their spans are recorded afterwards from timestamps and
  // replays.
  if (!options.trace_out.empty() && !tracer.write(options.trace_out))
    result.notes.push_back("could not write " + options.trace_out);
  return result;
}

}  // namespace perfbench
