// serve_open and serve_closed: load against an in-process InferenceServer
// with default ServeOptions (S21, batch 8, device-model execution), over
// real loopback connections, from one client thread.
//
//   serve_open    independent users: Poisson arrivals at 30 requests/s over
//                 4 connections, each request written at its scheduled time
//                 on the connection with the fewest outstanding replies.
//   serve_closed  callers that wait: 4 connections each keep exactly 8
//                 requests outstanding.
//
// The request mix is store-calibrated as in bench_serve: a zipf draw over
// the install-ranked ML apps of the paper-calibrated store, then one of
// that app's shipped models. Every request carries deadline_ms=250. Server
// phases come from each reply's queue_us, infer_us, total_us and batch.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>

#include "android/playstore.hpp"
#include "bench.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace gauge;

constexpr std::size_t kConnections = 4;
constexpr double kOpenRate = 30.0;      // requests per second
constexpr std::size_t kClosedDepth = 8;  // outstanding per connection
constexpr double kDeadlineMs = 250.0;
constexpr int kSetups = 3;
// Replies later than this after the last send count as missing.
constexpr auto kDrain = std::chrono::seconds{10};

// ---- client connection ---------------------------------------------------

class Connection {
 public:
  explicit Connection(int fd) : fd_{fd} {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  static std::unique_ptr<Connection> open(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    auto conn = std::make_unique<Connection>(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      return nullptr;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return conn;
  }

  int fd() const { return fd_; }

  bool send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // One recv() of what is readable; complete lines are appended to *lines.
  // False once the peer has closed or the socket failed.
  bool read_lines(std::vector<std::string>* lines) {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t nl; (nl = buffer_.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      lines->push_back(buffer_.substr(begin, nl - begin));
    }
    buffer_.erase(0, begin);
    return true;
  }

  std::size_t outstanding = 0;

 private:
  int fd_;
  std::string buffer_;
};

// ---- traffic -------------------------------------------------------------

// Per-app archetype lists of the install-ranked ML apps (rank 0 = most
// installed), as bench_serve builds them.
std::vector<std::vector<std::string>> app_mix(const android::PlayStore& store) {
  const auto& instances = store.instances();
  const auto& unique = store.unique_models();
  std::vector<const android::AppEntry*> ml_apps;
  for (const auto& app : store.apps()) {
    if (app.present_2021 && !app.model_instances.empty()) {
      ml_apps.push_back(&app);
    }
  }
  std::stable_sort(ml_apps.begin(), ml_apps.end(),
                   [](const android::AppEntry* a, const android::AppEntry* b) {
                     return a->installs > b->installs;
                   });
  std::vector<std::vector<std::string>> mix;
  for (const auto* app : ml_apps) {
    std::vector<std::string> archetypes;
    for (const int idx : app->model_instances) {
      archetypes.push_back(
          unique[static_cast<std::size_t>(instances[idx].unique_id)].archetype);
    }
    mix.push_back(std::move(archetypes));
  }
  return mix;
}

std::string draw_model(const std::vector<std::vector<std::string>>& mix,
                       util::Rng& rng) {
  const auto& app = mix[rng.zipf(mix.size(), 1.1) - 1];
  return app[rng.uniform_u64(app.size())];
}

struct Request {
  std::string model;
  std::size_t conn = 0;
  Clock::time_point scheduled{};
  Clock::time_point sent{};
  Clock::time_point replied{};
  int replies = 0;
  serve::Response::Kind kind = serve::Response::Kind::Err;
  std::uint64_t queue_us = 0, infer_us = 0, total_us = 0;
  int batch = 0;
};

// The outcome of one load phase.
struct Phase {
  std::vector<Request> requests;
  Clock::time_point start{};
  double window_s = 0.0;        // the timed wall seconds
  std::uint64_t ok_in_window = 0;
  std::uint64_t ok = 0, shed = 0, err = 0, missing = 0;
  std::uint64_t protocol_violations = 0;  // unknown id, duplicate, wrong model
  std::vector<double> latency_ms;         // OK replies
};

// One client thread drives every connection: requests are written when
// due, replies are read as they arrive and matched by id.
class Client {
 public:
  Client(std::vector<std::unique_ptr<Connection>>& conns, Phase& phase)
      : conns_{conns}, phase_{phase} {}

  void send(std::size_t index, std::size_t conn) {
    Request& req = phase_.requests[index];
    req.conn = conn;
    req.sent = Clock::now();
    const auto line = util::format("INFER %s id=%zu deadline_ms=%.0f",
                                   req.model.c_str(), index, kDeadlineMs);
    if (conns_[conn]->send_line(line)) {
      ++conns_[conn]->outstanding;
    } else {
      broken_ = true;
    }
  }

  // Waits until `until` (or the first reply batch) and handles replies;
  // returns the connections that received replies.
  std::vector<std::size_t> pump(Clock::time_point until) {
    std::vector<pollfd> fds;
    for (const auto& conn : conns_) fds.push_back({conn->fd(), POLLIN, 0});
    const auto wait = std::max(Clock::duration::zero(), until - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    const timespec timeout{static_cast<time_t>(ns / 1'000'000'000),
                           static_cast<long>(ns % 1'000'000'000)};
    std::vector<std::size_t> touched;
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) return touched;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (fds[c].revents == 0) continue;
      std::vector<std::string> lines;
      if (!conns_[c]->read_lines(&lines)) broken_ = true;
      const auto now = Clock::now();
      for (const auto& line : lines) handle(c, line, now);
      if (!lines.empty()) touched.push_back(c);
    }
    return touched;
  }

  bool broken() const { return broken_; }
  std::size_t replies() const { return replies_; }

 private:
  void handle(std::size_t conn, const std::string& line,
              Clock::time_point now) {
    const auto parsed = serve::parse_response(line);
    char* end = nullptr;
    const unsigned long long index =
        parsed.ok() ? std::strtoull(parsed.value().id.c_str(), &end, 10) : 0;
    if (!parsed.ok() || end == nullptr || *end != '\0' ||
        index >= phase_.requests.size()) {
      ++phase_.protocol_violations;
      return;
    }
    const serve::Response& reply = parsed.value();
    Request& req = phase_.requests[index];
    if (++req.replies > 1 || req.conn != conn) {
      ++phase_.protocol_violations;
      return;
    }
    --conns_[conn]->outstanding;
    ++replies_;
    req.replied = now;
    req.kind = reply.kind;
    using Kind = serve::Response::Kind;
    if (reply.kind == Kind::Ok) {
      if (reply.model != req.model) ++phase_.protocol_violations;
      req.queue_us = reply.queue_us;
      req.infer_us = reply.infer_us;
      req.total_us = reply.total_us;
      req.batch = reply.batch;
    }
  }

  std::vector<std::unique_ptr<Connection>>& conns_;
  Phase& phase_;
  bool broken_ = false;
  std::size_t replies_ = 0;
};

void tally(Phase& phase, bool open_loop) {
  Clock::time_point last_reply = phase.start;
  const auto window_end =
      phase.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>{phase.window_s});
  for (const auto& req : phase.requests) {
    if (req.replies == 0) {
      ++phase.missing;
      continue;
    }
    switch (req.kind) {
      case serve::Response::Kind::Ok:
        ++phase.ok;
        // Open loop: from the scheduled send, so a stall that delays later
        // sends counts against them. Closed loop: from the send.
        phase.latency_ms.push_back(
            ms_between(open_loop ? req.scheduled : req.sent, req.replied));
        last_reply = std::max(last_reply, req.replied);
        if (req.replied <= window_end) ++phase.ok_in_window;
        break;
      case serve::Response::Kind::Shed: ++phase.shed; break;
      default: ++phase.err; break;
    }
  }
  if (open_loop) phase.window_s = seconds_between(phase.start, last_reply);
}

Phase open_phase(std::vector<std::unique_ptr<Connection>>& conns,
                 const std::vector<std::vector<std::string>>& mix,
                 std::uint64_t seed, double seconds) {
  // A Poisson process conditioned on its count: the arrival times of
  // rate x seconds requests are uniform over the window. The fixed count
  // keeps Poisson count noise out of the throughput figure.
  util::Rng rng{seed};
  Phase phase;
  const auto n = static_cast<std::size_t>(std::llround(kOpenRate * seconds));
  std::vector<double> at(n);
  for (auto& t : at) t = rng.uniform() * seconds;
  std::sort(at.begin(), at.end());
  phase.requests.resize(n);
  phase.start = Clock::now() + std::chrono::milliseconds{5};
  for (std::size_t i = 0; i < n; ++i) {
    phase.requests[i].model = draw_model(mix, rng);
    phase.requests[i].scheduled =
        phase.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>{at[i]});
  }
  Client client{conns, phase};
  std::size_t next = 0;
  const auto last = n > 0 ? phase.requests.back().scheduled : phase.start;
  while (client.replies() < n && !client.broken()) {
    const auto now = Clock::now();
    if (next < n && now >= phase.requests[next].scheduled) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < conns.size(); ++c) {
        if (conns[c]->outstanding < conns[best]->outstanding) best = c;
      }
      client.send(next++, best);
      continue;
    }
    if (next == n && now >= last + kDrain) break;
    client.pump(next < n ? phase.requests[next].scheduled : last + kDrain);
  }
  tally(phase, true);
  return phase;
}

Phase closed_phase(std::vector<std::unique_ptr<Connection>>& conns,
                   const std::vector<std::vector<std::string>>& mix,
                   std::uint64_t seed, double seconds) {
  Phase phase;
  phase.window_s = seconds;
  // Each connection draws its own model sequence, so a seed fixes what
  // every connection sends whatever order replies come back in.
  std::vector<util::Rng> rngs;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    rngs.push_back(util::Rng{seed}.fork(c));
  }
  Client client{conns, phase};
  const auto send_next = [&](std::size_t c) {
    Request req;
    req.model = draw_model(mix, rngs[c]);
    req.scheduled = Clock::now();
    phase.requests.push_back(std::move(req));
    client.send(phase.requests.size() - 1, c);
  };
  phase.start = Clock::now();
  const auto window_end =
      phase.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>{seconds});
  for (std::size_t c = 0; c < conns.size(); ++c) {
    for (std::size_t k = 0; k < kClosedDepth; ++k) send_next(c);
  }
  while (!client.broken()) {
    const auto now = Clock::now();
    std::size_t outstanding = 0;
    for (const auto& conn : conns) outstanding += conn->outstanding;
    if (now >= window_end && outstanding == 0) break;
    if (now >= window_end + kDrain) break;
    const auto until = now < window_end ? window_end : window_end + kDrain;
    for (const std::size_t c : client.pump(until)) {
      if (Clock::now() >= window_end) continue;
      while (conns[c]->outstanding < kClosedDepth) send_next(c);
    }
  }
  tally(phase, false);
  return phase;
}

// ---- server set-up -------------------------------------------------------

struct Service {
  std::unique_ptr<telemetry::MetricsRegistry> registry;
  std::optional<telemetry::ScopedRegistry> scope;
  std::unique_ptr<serve::InferenceServer> server;
  std::vector<std::unique_ptr<Connection>> conns;  // closed before shutdown
  double start_ms = 0.0;
  double warm_ms = 0.0;
  double seconds = 0.0;
  std::string error;
};

std::optional<std::uint64_t> served_count(Connection& conn) {
  if (!conn.send_line("STATS")) return std::nullopt;
  std::vector<std::string> lines;
  const auto deadline = Clock::now() + std::chrono::seconds{5};
  while (lines.empty() && Clock::now() < deadline) {
    pollfd fd{conn.fd(), POLLIN, 0};
    if (::poll(&fd, 1, 100) > 0 && !conn.read_lines(&lines)) break;
  }
  if (lines.empty()) return std::nullopt;
  const auto parsed = serve::parse_response(lines.front());
  if (!parsed.ok() || parsed.value().kind != serve::Response::Kind::Stats) {
    return std::nullopt;
  }
  return parsed.value().served;
}

// Server start, connections and the first request on every lane the mix
// uses (lane creation plus its batch curve): all lazy start-up.
std::unique_ptr<Service> set_up(const std::set<std::string>& lanes) {
  auto service = std::make_unique<Service>();
  const auto start = Clock::now();
  service->registry = std::make_unique<telemetry::MetricsRegistry>();
  service->scope.emplace(*service->registry);
  auto started = serve::InferenceServer::start(serve::ServeOptions{});
  if (!started.ok()) {
    service->error = started.error();
    return service;
  }
  service->server = std::move(started).take();
  service->start_ms = ms_between(start, Clock::now());
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto conn = Connection::open(service->server->port());
    if (!conn) {
      service->error = "connect failed";
      return service;
    }
    service->conns.push_back(std::move(conn));
  }
  const auto warm_start = Clock::now();
  Phase warm;
  for (const auto& lane : lanes) {
    Request req;
    req.model = lane;
    warm.requests.push_back(req);
  }
  Client client{service->conns, warm};
  for (std::size_t i = 0; i < warm.requests.size(); ++i) {
    client.send(i, i % kConnections);
  }
  const auto deadline = Clock::now() + kDrain;
  const auto answered = [&warm] {
    return std::all_of(warm.requests.begin(), warm.requests.end(),
                       [](const Request& r) { return r.replies > 0; });
  };
  while (!answered() && !client.broken() && Clock::now() < deadline) {
    client.pump(deadline);
  }
  const bool all_ok =
      answered() && warm.protocol_violations == 0 &&
      std::all_of(warm.requests.begin(), warm.requests.end(),
                  [](const Request& r) {
                    return r.kind == serve::Response::Kind::Ok;
                  });
  if (!all_ok) service->error = "warm-up request failed";
  service->warm_ms = ms_between(warm_start, Clock::now());
  service->seconds = seconds_between(start, Clock::now());
  return service;
}

void shut_down(std::unique_ptr<Service>& service) {
  if (!service) return;
  service->conns.clear();
  if (service->server) service->server->shutdown();
  service.reset();
}

void add_spans(Tracer& tracer, const Phase& phase, bool open_loop) {
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    const Request& req = phase.requests[i];
    if (req.replies == 0) continue;
    const auto track = static_cast<std::uint32_t>(req.conn + 1);
    const bool ok = req.kind == serve::Response::Kind::Ok;
    const std::uint64_t scheduled = tracer.to_ns(req.scheduled);
    const std::uint64_t sent = tracer.to_ns(req.sent);
    const std::uint64_t replied = tracer.to_ns(req.replied);
    const auto root = static_cast<std::int64_t>(
        tracer.add("serve.request", i, -1, open_loop ? scheduled : sent,
                   replied, track, !ok));
    if (open_loop) tracer.add("generator.lag", i, root, scheduled, sent, track);
    if (!ok) continue;
    const std::uint64_t total_ns = req.total_us * 1000;
    const std::uint64_t server_start =
        replied > total_ns ? std::max(sent, replied - total_ns) : sent;
    tracer.add("net.conn_wait", i, root, sent, server_start, track);
    const auto server = static_cast<std::int64_t>(
        tracer.add("serve.server", i, root, server_start, replied, track));
    const std::uint64_t queue_end = server_start + req.queue_us * 1000;
    tracer.add("serve.queue", i, server, server_start, queue_end, track);
    tracer.add("serve.exec", i, server, queue_end,
               queue_end + req.infer_us * 1000, track);
  }
}

void run_serve(const Options& options, Result& result, bool open_loop) {
  Tracer tracer;  // its epoch precedes every request timestamp
  const android::PlayStore store{android::StoreConfig{}};
  const auto mix = app_mix(store);
  std::set<std::string> lanes;
  for (const auto& app : mix) lanes.insert(app.begin(), app.end());

  std::vector<double> setup_s, start_ms, warm_ms;
  std::unique_ptr<Service> service;
  for (int i = 0; i < kSetups; ++i) {
    shut_down(service);
    service = set_up(lanes);
    if (!service->error.empty()) break;
    setup_s.push_back(service->seconds);
    start_ms.push_back(service->start_ms);
    warm_ms.push_back(service->warm_ms);
  }
  result.gate("setup", service->error.empty(),
              service->error.empty() ? util::format("%zu lanes warmed",
                                                    lanes.size())
                                     : service->error);
  if (!service->error.empty()) {
    shut_down(service);
    return;
  }

  const auto served_before = served_count(*service->conns.front());
  // A traced run measures an untraced and a traced half back to back, so
  // the difference between them is the tracing overhead.
  std::vector<Phase> phases;
  const int n_phases = options.trace ? 2 : 1;
  for (int p = 0; p < n_phases; ++p) {
    const double seconds = options.seconds / n_phases;
    const std::uint64_t seed = options.seed * 2 + static_cast<std::uint64_t>(p);
    phases.push_back(open_loop
                         ? open_phase(service->conns, mix, seed, seconds)
                         : closed_phase(service->conns, mix, seed, seconds));
  }
  const auto served_after = served_count(*service->conns.front());
  shut_down(service);

  std::uint64_t sent = 0, ok = 0, shed = 0, err = 0, missing = 0,
                violations = 0;
  for (const auto& phase : phases) {
    sent += phase.requests.size();
    ok += phase.ok;
    shed += phase.shed;
    err += phase.err;
    missing += phase.missing;
    violations += phase.protocol_violations;
  }
  result.gate("one_reply_each", missing == 0 && violations == 0,
              util::format("%llu requests, %llu missing replies, %llu "
                           "unknown/duplicate/mismatched",
                           static_cast<unsigned long long>(sent),
                           static_cast<unsigned long long>(missing),
                           static_cast<unsigned long long>(violations)));
  const bool stats_ok = served_before && served_after &&
                        *served_after - *served_before == ok;
  result.gate("stats_served",
              stats_ok,
              util::format("server STATS served delta %lld, client OK %llu",
                           served_before && served_after
                               ? static_cast<long long>(*served_after -
                                                        *served_before)
                               : -1ll,
                           static_cast<unsigned long long>(ok)));
  result.operations(sent, shed + err + missing);

  const auto throughput = [open_loop](const Phase& phase) {
    const double done = static_cast<double>(open_loop ? phase.ok
                                                      : phase.ok_in_window);
    return phase.window_s > 0 ? done / phase.window_s : 0.0;
  };
  if (!options.trace) {
    const Phase& phase = phases.front();
    const std::size_t n = phase.latency_ms.size();
    result.metric("throughput_per_s", throughput(phase), "1/s",
                  util::format("%llu OK replies in %.2f s",
                               static_cast<unsigned long long>(
                                   open_loop ? phase.ok : phase.ok_in_window),
                               phase.window_s));
    result.metric("p50_ms", median(phase.latency_ms), "ms",
                  util::format("from %s, n=%zu",
                               open_loop ? "scheduled send" : "send", n));
    const Tail tail = tail_of(phase.latency_ms);
    result.metric("tail_ms", tail.value, "ms",
                  util::format("p%.3f, n=%zu", tail.percentile, n));
    result.metric("setup_s", median(setup_s), "s",
                  util::format("median of %zu set-ups (start, connect, warm "
                               "%zu lanes)",
                               setup_s.size(), lanes.size()));
    result.metric("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
    std::printf("%s/fail_ratio = %.6g ratio  (%llu shed + %llu err + %llu "
                "missing of %llu)\n",
                options.workload.c_str(),
                sent ? static_cast<double>(shed + err + missing) /
                           static_cast<double>(sent)
                     : 0.0,
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(err),
                static_cast<unsigned long long>(missing),
                static_cast<unsigned long long>(sent));
    return;
  }

  // ---- traced run: the second half ----
  const Phase& untraced = phases[0];
  const Phase& traced = phases[1];
  add_spans(tracer, traced, open_loop);
  std::vector<double> queue_ms, exec_ms, batch, conn_wait_ms, lag_ms;
  for (const auto& req : traced.requests) {
    if (req.replies == 0) continue;
    lag_ms.push_back(ms_between(req.scheduled, req.sent));
    if (req.kind != serve::Response::Kind::Ok) continue;
    queue_ms.push_back(static_cast<double>(req.queue_us) / 1e3);
    exec_ms.push_back(static_cast<double>(req.infer_us) / 1e3);
    batch.push_back(static_cast<double>(req.batch));
    conn_wait_ms.push_back(ms_between(req.sent, req.replied) -
                           static_cast<double>(req.total_us) / 1e3);
  }
  const std::size_t n = queue_ms.size();
  const double traced_sent = static_cast<double>(traced.requests.size());
  result.layer("serve.start_ms", median(start_ms),
               util::format("median of %zu InferenceServer::start",
                            start_ms.size()));
  result.layer("serve.warm_ms", median(warm_ms),
               util::format("first request on each of %zu lanes",
                            lanes.size()));
  result.layer("serve.queue_p50_ms", median(queue_ms),
               util::format("reply queue_us, n=%zu", n));
  const Tail queue_tail = tail_of(queue_ms);
  result.layer("serve.queue_tail_ms", queue_tail.value,
               util::format("p%.3f, n=%zu", queue_tail.percentile, n));
  result.layer("serve.exec_p50_ms", median(exec_ms),
               util::format("reply infer_us, n=%zu", n));
  result.layer("serve.batch_mean", mean(batch),
               util::format("reply batch, n=%zu", n));
  result.layer("net.conn_wait_p50_ms", median(conn_wait_ms),
               util::format("client latency from send - total_us, n=%zu", n));
  const Tail wait_tail = tail_of(conn_wait_ms);
  result.layer("net.conn_wait_tail_ms", wait_tail.value,
               util::format("p%.3f, n=%zu", wait_tail.percentile, n));
  result.layer("serve.shed_ratio",
               traced_sent > 0 ? static_cast<double>(traced.shed) / traced_sent
                               : 0.0,
               util::format("%llu SHED", static_cast<unsigned long long>(
                                             traced.shed)));
  result.layer("serve.error_ratio",
               traced_sent > 0 ? static_cast<double>(traced.err) / traced_sent
                               : 0.0,
               util::format("%llu ERR",
                            static_cast<unsigned long long>(traced.err)));
  result.layer("generator.lag_p50_ms", median(lag_ms),
               util::format("send - scheduled send, n=%zu", lag_ms.size()));
  result.layer("generator.lag_max_ms",
               lag_ms.empty() ? 0.0
                              : *std::max_element(lag_ms.begin(), lag_ms.end()),
               "largest send delay");

  tracer.print_totals();
  std::printf(
      "tracing overhead: traced half %.2f/s p50 %.3f ms vs untraced half "
      "%.2f/s p50 %.3f ms\n",
      throughput(traced), median(traced.latency_ms), throughput(untraced),
      median(untraced.latency_ms));
  result.gate("trace_written",
              tracer.write_chrome_trace(options.trace_path,
                                        host_metadata(options)),
              options.trace_path);
}

}  // namespace

void run_serve_open(const Options& options, Result& result) {
  run_serve(options, result, true);
}

void run_serve_closed(const Options& options, Result& result) {
  run_serve(options, result, false);
}

}  // namespace perfbench
