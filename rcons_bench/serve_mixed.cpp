// serve-mixed: an in-process serve daemon (Service + Server, 2 workers,
// Unix socket, fresh in-memory verdict tier) under two closed-loop
// clients; each client sends its next request only after the reply to
// the previous one arrived, as CLI and hunt callers do.
//
// The daemon runs without the on-disk tier below its memory tier, like
// every workload here. With it, every miss creates several cache files,
// and file creation on the measured host took 0.2-0.9 ms at random,
// which swung the misses' median 0.9-4.4 ms between identical runs.
//
// The request order comes from the seed. 90% are HITS: `profile` of a
// data/*.type file at max_n=6, all eight warmed during set-up, checked
// byte for byte against the golden fixtures. 10% are MISSES: the
// `hunt` verb at max_n=3 for a box (3,2,2) genome whose canonical form
// the pass's daemon has not seen, checked for an ok status and
// rcons <= cons. One pass is a new daemon (set-up: Service, Server,
// warming, client connections) and then one fixed batch of requests;
// shortcut_ms and full_ms are the medians over hits and over misses of
// each request's fastest round trip in the run, pass_s their sum per
// client (finish()).
#include <latch>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "campaign/enumerate.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/socket.hpp"

namespace rcons_bench {
namespace {

namespace serve = rcons::serve;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kRequestsPerClient = 500;
constexpr int kMissPercent = 10;
constexpr int kProbes = 200;
constexpr rcons::campaign::Box kMissBox{3, 2, 2};

struct Request {
  bool hit = true;
  std::size_t file = 0;  // hits: index into files_
  std::string line;      // the wire line, '\n' included
};

struct Reply {
  bool transport_ok = false;
  std::string line;
  double ms = 0;
};

/// The result document of a response line ("result" is always last).
std::string result_body(const std::string& line) {
  const std::size_t at = line.find(",\"result\":");
  if (at == std::string::npos || line.empty() || line.back() != '}') return "";
  const std::size_t begin = at + 10;
  return line.substr(begin, line.size() - 1 - begin);
}

class ServeMixed : public Workload {
 public:
  explicit ServeMixed(const RunConfig& config)
      : socket_path_(config.scratch + "/serve.sock") {
    for (const std::string& file : golden_type_files(config.root)) {
      const std::string expected = golden_profile_json(config.root, file);
      if (expected.empty()) {
        throw std::runtime_error("no golden fixture for " + file);
      }
      files_.push_back(config.root + "/" + file);
      expected_.push_back(expected);
    }
    if (files_.size() != 8) {
      throw std::runtime_error("serve-mixed wants the 8 data/*.type files");
    }
    make_requests(config.seed);
  }

  ~ServeMixed() override { tear_down(); }
  ServeMixed(const ServeMixed&) = delete;
  ServeMixed& operator=(const ServeMixed&) = delete;

  void pass(Outcome& out) override {
    std::vector<std::vector<Reply>> replies(kClients);
    run_batch(&replies, nullptr);
    double work = 0;
    for (int c = 0; c < kClients; ++c) {
      for (std::size_t i = 0; i < requests_[c].size(); ++i) {
        const Reply& reply = replies[c][i];
        work += reply.ms * 1e-3;
        (requests_[c][i].hit ? hit_ms_ : miss_ms_)
            .add(c * kRequestsPerClient + i, reply.ms);
        check_reply(out, requests_[c][i], reply);
      }
    }
    out.untraced_work_s.push_back(work);
  }

  /// Every pass replays the same requests, so each request's fastest
  /// round trip over the run is its cost without the host's slow spells.
  /// The latencies are the medians of those over hits and over misses;
  /// pass_s is their sum per client, the batch's time at that speed.
  void finish(Outcome& out) override {
    out.shortcut_ms = median(hit_ms_.times());
    out.full_ms = median(miss_ms_.times());
    out.pass_s = (hit_ms_.sum() + miss_ms_.sum()) * 1e-3 / kClients;
  }

  void traced_pass(Outcome& out) override {
    const std::string before = metrics_json();
    std::vector<std::vector<Reply>> replies(kClients);
    run_batch(&replies, &out.tracer);
    const std::string after = metrics_json();
    out.sample("serve.memory_tier_entries",
               static_cast<double>(daemon_.service->cache().entry_count()));

    double client_s = 0;
    for (int c = 0; c < kClients; ++c) {
      for (std::size_t i = 0; i < requests_[c].size(); ++i) {
        client_s += replies[c][i].ms * 1e-3;
        check_reply(out, requests_[c][i], replies[c][i]);
      }
    }
    const double server_s =
        (histogram_sum(after) - histogram_sum(before)) * 1e-6;
    // The wire (framing, socket, hand-off to a worker), measured on its
    // own, once per request of the batch.
    const double transport_s =
        transport_per_request_s() * kClients * kRequestsPerClient;
    out.traced_work_s.push_back(client_s);
    out.reported_layer_s = server_s + transport_s;
    out.sample("serve.server_s", server_s);
    out.sample("serve.transport_s", transport_s);
    auto delta = [&](const char* name) {
      return static_cast<double>(json_int(after, name).value_or(0) -
                                 json_int(before, name).value_or(0));
    };
    out.sample("serve.admission_rejected", delta("serve.admission.rejected"));
    // Concurrency decides these (two hits on one type may share one
    // single-flight exploration), so they vary between runs; see README.
    out.sample("reduction.cache_hits", delta("cache.mem_hits"));
    out.sample("reduction.cache_misses", delta("cache.mem_misses"));
    out.sample("analysis.bounds_decided",
               delta("bounds.pruned_lo") + delta("bounds.pruned_hi"));
    out.sample("hierarchy.decider_runs", delta("bounds.decider_runs"));
  }

 private:
  struct Daemon {
    std::unique_ptr<serve::Service> service;
    std::unique_ptr<serve::Server> server;
    std::vector<int> fds;  // one connection per client, then one for metrics
  };

  /// Exactly kMissPercent% misses and the hits spread evenly over the
  /// eight types, in an order drawn from the seed: the seed decides which
  /// request comes when and which genomes miss, not how many requests of
  /// each kind there are (a cas3 hit costs far more than another type's, so
  /// a drawn mix would move the batch time with the seed).
  void make_requests(std::uint64_t seed) {
    Rng rng(seed);
    constexpr int kTotal = kClients * kRequestsPerClient;
    constexpr int kMisses = kTotal * kMissPercent / 100;
    constexpr int kMiss = -1;
    std::vector<int> kinds;  // kMiss, or a hit's index into files_
    for (int i = 0; i < kTotal; ++i) {
      kinds.push_back(i < kMisses ? kMiss
                                  : (i - kMisses) % static_cast<int>(
                                                        files_.size()));
    }
    shuffle(kinds, rng);
    const std::uint64_t box = rcons::campaign::box_size(kMissBox);
    std::unordered_set<std::string> seen;
    requests_.resize(kClients);
    for (int k = 0; k < kTotal; ++k) {
      Request r;
      const std::string id = std::to_string(k);
      r.hit = kinds[k] != kMiss;
      if (r.hit) {
        r.file = static_cast<std::size_t>(kinds[k]);
        r.line = "{\"id\":\"" + id +
                 "\",\"command\":\"profile\",\"target\":\"" +
                 files_[r.file] + "\",\"max_n\":6}\n";
      } else {
        rcons::campaign::GenomeId g;
        bool unseen = false;
        while (!unseen) {
          rcons::campaign::walk_box(
              kMissBox, rng.below(box),
              [&](const rcons::campaign::Candidate& c) {
                g = c.id;
                unseen = seen.insert(c.canon.key).second;
                return false;
              });
        }
        r.line = "{\"id\":\"" + id +
                 "\",\"command\":\"hunt\",\"spec\":\"" +
                 std::to_string(g.values) + " " + std::to_string(g.ops) +
                 " " + std::to_string(g.responses) + " " +
                 std::to_string(g.index) + "\",\"max_n\":3}\n";
      }
      requests_[k / kRequestsPerClient].push_back(std::move(r));
    }
  }

  /// A new daemon with an empty memory tier, the 8 hits warmed, and one
  /// connection per client plus one for metrics requests.
  void set_up() override {
    tear_down();
    Daemon& d = daemon_;
    serve::ServiceOptions options;
    options.default_threads = 1;
    d.service = std::make_unique<serve::Service>(options);
    serve::ServerOptions server_options;
    server_options.unix_path = socket_path_;
    server_options.workers = kWorkers;
    d.server = std::make_unique<serve::Server>(*d.service, server_options);
    std::string error;
    if (!d.server->start(&error)) {
      throw std::runtime_error("serve daemon did not start: " + error);
    }
    for (const std::string& file : files_) {
      serve::Request warm;
      warm.command = "profile";
      warm.target = file;
      warm.max_n = 6;
      if (d.service->handle(warm).exit_code != 0) {
        throw std::runtime_error("warming " + file + " failed");
      }
    }
    for (int c = 0; c <= kClients; ++c) {
      const int fd = rcons::util::connect_unix(socket_path_);
      if (fd < 0) throw std::runtime_error("cannot connect to " + socket_path_);
      d.fds.push_back(fd);
    }
  }

  void tear_down() override {
    for (const int fd : daemon_.fds) rcons::util::shutdown_and_close(fd);
    daemon_.fds.clear();
    daemon_.server.reset();  // stops and joins its threads
    daemon_.service.reset();
  }

  static Reply round_trip(int fd, rcons::util::LineReader& reader,
                          const std::string& line) {
    Reply reply;
    const std::int64_t start = now_ns();
    reply.transport_ok =
        rcons::util::write_all(fd, line) &&
        reader.read_line(&reply.line) == rcons::util::LineReader::Status::kLine;
    reply.ms = static_cast<double>(now_ns() - start) * 1e-6;
    return reply;
  }

  /// Both clients through the whole batch.
  void run_batch(std::vector<std::vector<Reply>>* replies, Tracer* tracer) {
    const Daemon& d = daemon_;
    std::latch ready(kClients + 1);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        if (tracer != nullptr) tracer->attach();
        rcons::util::LineReader reader(d.fds[c], 1 << 20);
        std::vector<Reply>& mine = (*replies)[c];
        mine.reserve(requests_[c].size());
        ready.arrive_and_wait();
        for (std::size_t i = 0; i < requests_[c].size(); ++i) {
          Tracer::set_request(
              static_cast<std::uint32_t>(c * kRequestsPerClient + i));
          Span span(Layer::kRequest);
          mine.push_back(round_trip(d.fds[c], reader, requests_[c][i].line));
        }
        Tracer::detach();
      });
    }
    ready.arrive_and_wait();
    for (std::thread& t : clients) t.join();
  }

  /// The wire's share of one request: the mean round trip of an
  /// `explain` (a rule-catalog lookup that, like profile and hunt, goes
  /// through the worker queue), less its server time, over kProbes probes
  /// per client with both clients sending at once as in a batch.
  double transport_per_request_s() const {
    const std::string before = metrics_json();
    std::vector<double> client_ms(kClients, 0);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        rcons::util::LineReader reader(daemon_.fds[c], 1 << 20);
        for (int i = 0; i < kProbes; ++i) {
          const Reply reply =
              round_trip(daemon_.fds[c], reader,
                         "{\"id\":\"p\",\"command\":\"explain\","
                         "\"target\":\"SA001\"}\n");
          if (!reply.transport_ok) {
            throw std::runtime_error("explain probe failed");
          }
          client_ms[c] += reply.ms;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double server_us = histogram_sum(metrics_json()) -
                             histogram_sum(before);
    double client_s = 0;
    for (const double ms : client_ms) client_s += ms * 1e-3;
    return (client_s - server_us * 1e-6) / (kClients * kProbes);
  }

  std::string metrics_json() const {
    const int fd = daemon_.fds[kClients];
    rcons::util::LineReader reader(fd, 1 << 24);
    const Reply reply = round_trip(fd, reader,
                                   "{\"id\":\"m\",\"command\":\"metrics\"}\n");
    if (!reply.transport_ok) throw std::runtime_error("metrics request failed");
    return result_body(reply.line);
  }

  static double histogram_sum(const std::string& metrics) {
    const std::size_t at = metrics.find("\"serve.request_us\":");
    if (at == std::string::npos) return 0;
    return static_cast<double>(json_int(metrics, "sum", at).value_or(0));
  }

  void check_reply(Outcome& out, const Request& request,
                   const Reply& reply) const {
    const std::string body = result_body(reply.line);
    const bool ok = reply.transport_ok &&
                    json_string(reply.line, "status").value_or("") == "ok";
    if (request.hit) {
      out.check(ok && body == expected_[request.file],
                "hit " + request.line.substr(0, request.line.size() - 1) +
                    " -> " + reply.line);
      return;
    }
    const auto cons = json_int(body, "value", body.find("\"discerning\":"));
    const auto rcons = json_int(body, "value", body.find("\"recording\":"));
    out.check(ok && cons && rcons && *rcons >= 1 && *rcons <= *cons,
              "miss " + request.line.substr(0, request.line.size() - 1) +
                  " -> " + reply.line);
  }

  std::string socket_path_;
  Daemon daemon_;
  std::vector<std::string> files_;
  std::vector<std::string> expected_;
  std::vector<std::vector<Request>> requests_;
  BestTimes hit_ms_;   // by request, over the run
  BestTimes miss_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const RunConfig& config) {
  return std::make_unique<ServeMixed>(config);
}

}  // namespace rcons_bench
