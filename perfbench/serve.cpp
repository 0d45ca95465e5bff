// Workload `serve`: an in-process serve::Server on a socket in the run
// directory, with a persistent store, under a closed loop of two client
// connections (two clients plus two connection threads fit four cores; the
// daemon's pool has half the cores for miss execution).
//
// The gate uses each query's CPU time: its client thread's, plus that of
// the daemon thread serving its connection, plus, for a miss, that of the
// daemon's pool and accept loop, which only misses keep busy. Misses are
// sent one at a time so that the pool's CPU time belongs to one of them.
// Wall latencies are reported beside the CPU times.
//
// The request stream comes from the seed. Seven in every eight requests
// repeat one of three hot full-space small sweeps (~200 KB CSV bodies) that
// a previous daemon left in the store: cache hits, which bypass simulation
// entirely. The rest are multi-job sweeps with a fresh seed: misses that
// execute on the daemon's pool and append to the store, so reads and writes
// share the daemon.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "scenario/exec.hpp"
#include "scenario/plan.hpp"
#include "scenario/spec.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace sc = dsa::scenario;
namespace sv = dsa::serve;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kHotSpecs = 3;
constexpr std::uint64_t kMissOneIn = 8;

struct Scale {
  const char* hot_protocols;
  int hot_rounds, hot_population;
  const char* miss_protocols;
  int miss_rounds, miss_population, miss_chunk;
};

Scale scale_for(const Options& options) {
  if (options.tiny) return {"stride:100", 2, 4, "stride:400", 2, 4, 4};
  return {"all", 6, 10, "stride:75", 8, 20, 11};
}

std::string sweep_spec(const char* name, const char* protocols, int rounds,
                       int population, int chunk, std::uint64_t seed) {
  return std::string("{\"scenario\":\"") + name +
         "\",\"kind\":\"sweep\",\"output\":\"unused.csv\",\"chunk\":" +
         std::to_string(chunk) + ",\"params\":{\"protocols\":\"" + protocols +
         "\",\"rounds\":" + std::to_string(rounds) +
         ",\"population\":" + std::to_string(population) +
         ",\"performance_runs\":1,\"encounter_runs\":1,"
         "\"opponent_sample\":1,\"seed\":" +
         std::to_string(seed % 1000000007ULL) + "}}";
}

std::string hot_spec(const Scale& s, std::uint64_t seed, std::size_t h) {
  return sweep_spec("bench-hot", s.hot_protocols, s.hot_rounds,
                    s.hot_population, 256, mix_seed(seed, 100 + h));
}

std::string miss_spec(const Scale& s, std::uint64_t fresh_seed) {
  return sweep_spec("bench-miss", s.miss_protocols, s.miss_rounds,
                    s.miss_population, s.miss_chunk, fresh_seed);
}

/// Ids of this process's threads.
std::set<pid_t> thread_ids() {
  std::set<pid_t> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(static_cast<pid_t>(std::stol(entry.path().filename())));
  }
  return ids;
}

/// The threads in `after` that are not in `before`.
std::vector<pid_t> started_between(const std::set<pid_t>& before,
                                   const std::set<pid_t>& after) {
  std::vector<pid_t> started;
  std::ranges::set_difference(after, before, std::back_inserter(started));
  return started;
}

/// CPU seconds used so far by thread `tid` of this process, read from its
/// CPU clock. Linux derives that clock's id from the thread id, as
/// pthread_getcpuclockid does; the daemon's threads are not ours to ask.
double thread_cpu_s(pid_t tid) {
  const clockid_t clock = (~static_cast<clockid_t>(tid) << 3) | 6;
  timespec now{};
  if (::clock_gettime(clock, &now) != 0) {
    throw std::runtime_error("no CPU clock for thread " +
                             std::to_string(tid));
  }
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

/// A running daemon: the Server plus the thread inside serve().
class Daemon {
 public:
  explicit Daemon(std::size_t threads) {
    sv::ServerOptions options;
    options.socket_path = "serve.sock";
    options.threads = threads;
    options.cache.store_path = "store.jsonl";
    options.poll_ms = 20;
    const std::set<pid_t> before = thread_ids();
    server_ = std::make_unique<sv::Server>(options);
    thread_ = std::thread([this] { server_->serve(stop_); });
    workers_ = started_between(before, thread_ids());
  }
  ~Daemon() {
    stop_.store(true);
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::filesystem::path& socket() const {
    return server_->socket_path();
  }
  /// The daemon's pool threads and its accept loop.
  [[nodiscard]] const std::vector<pid_t>& workers() const { return workers_; }

 private:
  std::unique_ptr<sv::Server> server_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::vector<pid_t> workers_;
};

/// A client connection and the daemon thread that serves it.
struct Connection {
  std::unique_ptr<sv::Client> client;
  pid_t daemon_thread = 0;
};

/// Connects to `daemon`. The daemon starts one thread per connection; it
/// is the one thread that appears while the connection answers a ping.
Connection connect(const Daemon& daemon) {
  const std::set<pid_t> before = thread_ids();
  Connection connection{std::make_unique<sv::Client>(daemon.socket())};
  connection.client->ping();
  const std::vector<pid_t> started = started_between(before, thread_ids());
  if (started.size() != 1) {
    throw std::runtime_error("cannot tell the daemon's connection thread: " +
                             std::to_string(started.size()) +
                             " threads started");
  }
  connection.daemon_thread = started.front();
  return connection;
}

struct Sample {
  bool miss = false;
  double ms = 0.0;      // wall latency
  double cpu_ms = 0.0;  // the query's CPU time (see the file comment)
  double end_s = 0.0;   // completion, seconds since the loop started
};

/// The measured loop is cut into this many equal windows; throughput and
/// median hit cost are the medians over windows, so a burst of load from
/// elsewhere on the machine moves one window, not the run's figure.
constexpr std::size_t kWindows = 6;

/// What the closed loop observed in one phase (untraced or traced).
struct LoopStats {
  std::vector<Sample> samples;
  double wall_s = 0.0;
  std::string miss_spec_text, miss_body;  // one miss kept for re-checking
};

/// Every connection issues its seeded request stream back to back until
/// `seconds` pass. Every hit body must equal the hot spec's first (cold)
/// answer byte for byte; every miss must have executed all its jobs.
LoopStats closed_loop(const Scale& s, const Options& options,
                      const Daemon& daemon,
                      const std::vector<std::string>& hot_bodies,
                      std::uint64_t stream, double seconds, Tracer& tracer,
                      Result& result, std::mutex& result_mutex) {
  LoopStats stats;
  std::mutex stats_mutex, miss_mutex;
  std::vector<Connection> connections;
  for (std::size_t c = 0; c < kConnections; ++c) {
    connections.push_back(connect(daemon));
  }
  const auto start = Clock::now();
  auto connection_loop = [&](std::size_t connection,
                             std::vector<Sample>& local) {
    sv::Client& client = *connections[connection].client;
    const pid_t daemon_thread = connections[connection].daemon_thread;
    for (std::uint64_t j = 0;
         j == 0 || seconds_between(start, Clock::now()) < seconds; ++j) {
      const std::uint64_t pick =
          mix_seed(options.seed, (stream * kConnections + connection) *
                                         1000000007ULL + j);
      const bool miss = j % kMissOneIn == kMissOneIn - 1;
      const std::size_t hot = (pick >> 16) % kHotSpecs;
      const std::string spec =
          miss ? miss_spec(s, pick >> 8) : hot_spec(s, options.seed, hot);
      bool ok = false;
      std::string what;
      std::unique_lock miss_lock(miss_mutex, std::defer_lock);
      if (miss) miss_lock.lock();
      const auto query_cpu_s = [&] {
        double cpu = perfbench::thread_cpu_s() + thread_cpu_s(daemon_thread);
        if (miss) {
          for (const pid_t worker : daemon.workers()) {
            cpu += thread_cpu_s(worker);
          }
        }
        return cpu;
      };
      const auto t0 = Clock::now();
      try {
        const double cpu0 = query_cpu_s();
        Scope span(tracer, miss ? "serve.query_miss" : "serve.query_hit", 0,
                   next_op_id());
        sv::Response response = client.query(spec);
        const double cpu_ms = (query_cpu_s() - cpu0) * 1e3;
        const double ms = seconds_between(t0, Clock::now()) * 1e3;
        local.push_back(
            {miss, ms, cpu_ms, seconds_between(start, Clock::now())});
        if (miss) {
          ok = response.executed_jobs == response.jobs && response.jobs > 1;
          what = "a fresh-seed query did not execute every job";
          std::lock_guard lock(stats_mutex);
          if (stats.miss_body.empty()) {
            stats.miss_spec_text = spec;
            stats.miss_body = response.body;
          }
        } else {
          if (options.corrupt && j == 0 && connection == 0) {
            response.body.back() = '#';
          }
          ok = response.cached_jobs == response.jobs &&
               response.body == hot_bodies[hot];
          what = "a cached answer differs from its cold answer";
        }
      } catch (const std::exception& error) {
        what = std::string("query failed: ") + error.what();
      }
      std::lock_guard lock(result_mutex);
      result.count(ok, what);
    }
  };
  auto client_loop = [&](std::size_t connection) {
    std::vector<Sample> local;
    try {
      connection_loop(connection, local);
    } catch (const std::exception& error) {
      std::lock_guard lock(result_mutex);
      result.count(false, std::string("connection failed: ") + error.what());
    }
    std::lock_guard lock(stats_mutex);
    stats.samples.insert(stats.samples.end(), local.begin(), local.end());
  };
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back(client_loop, c);
  }
  for (std::thread& t : clients) t.join();
  stats.wall_s = seconds_between(start, Clock::now());
  return stats;
}

/// The in-process answer: expand_plan, execute_job for every job, then
/// merge_rows — the library calls the daemon's answer must equal.
std::string in_process(const std::string& spec, std::size_t threads,
                       Tracer& tracer, std::vector<double>* merge_ms,
                       std::vector<sc::JobRows>* rows_out = nullptr) {
  const sc::Plan plan =
      sc::expand_plan(sc::parse_scenario_text(spec, "<perfbench>"));
  std::vector<sc::JobRows> rows(plan.jobs.size());
  {
    dsa::util::ThreadPool pool(threads);
    pool.parallel_for(plan.jobs.size(), [&](std::size_t j) {
      rows[j] = sc::execute_job(plan.spec, plan.jobs[j]);
    });
  }
  const auto t0 = Clock::now();
  std::string csv;
  {
    Scope span(tracer, "scenario.merge", 0, next_op_id());
    csv = sc::merge_rows(plan, rows).to_csv();
  }
  if (merge_ms != nullptr) {
    merge_ms->push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  if (rows_out != nullptr) *rows_out = std::move(rows);
  return csv;
}

void report_latencies(const LoopStats& loop, Result& result) {
  std::vector<double> hits, misses, hit_cpu, miss_cpu;
  std::vector<std::size_t> window_queries(kWindows, 0);
  std::vector<double> window_cpu_s(kWindows, 0.0);
  std::vector<std::vector<double>> window_hits(kWindows), window_hit_cpu(
                                                              kWindows);
  const double window_s = loop.wall_s / kWindows;
  for (const Sample& sample : loop.samples) {
    (sample.miss ? misses : hits).push_back(sample.ms);
    (sample.miss ? miss_cpu : hit_cpu).push_back(sample.cpu_ms);
    const std::size_t w = std::min(
        static_cast<std::size_t>(sample.end_s / window_s), kWindows - 1);
    ++window_queries[w];
    window_cpu_s[w] += sample.cpu_ms / 1e3;
    if (!sample.miss) {
      window_hits[w].push_back(sample.ms);
      window_hit_cpu[w].push_back(sample.cpu_ms);
    }
  }
  std::vector<double> window_qps, window_q_per_cpu_s, window_hit_p50,
      window_hit_cpu_p50;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto queries = static_cast<double>(window_queries[w]);
    window_qps.push_back(queries / window_s);
    window_q_per_cpu_s.push_back(
        window_cpu_s[w] > 0.0 ? queries / window_cpu_s[w] : 0.0);
    window_hit_p50.push_back(percentile(window_hits[w], 0.5));
    window_hit_cpu_p50.push_back(percentile(window_hit_cpu[w], 0.5));
  }
  result.e2e["ops_per_cpu_s"] = median(window_q_per_cpu_s);
  result.e2e["p50_cpu_ms"] = median(window_hit_cpu_p50);
  result.e2e["tail_cpu_ms"] = percentile(miss_cpu, 0.9);
  const std::string windows =
      "median of " + std::to_string(kWindows) + " windows, ";
  const std::string n_hits = "n=" + std::to_string(hits.size());
  result.detail("serve.qps", median(window_qps), "1/s",
                windows + std::to_string(loop.samples.size()) +
                    " queries, " + std::to_string(kConnections) +
                    " connections");
  result.detail("serve.queries_per_cpu_s", result.e2e["ops_per_cpu_s"], "1/s",
                windows + "queries / CPU time");
  result.detail("serve.hit_p50_ms", median(window_hit_p50), "ms",
                windows + "wall, " + n_hits);
  result.detail("serve.hit_cpu_p50_ms", result.e2e["p50_cpu_ms"], "ms",
                windows + "CPU time, " + n_hits);
  result.detail("serve.hit_p99_ms", percentile(hits, 0.99), "ms",
                "wall, " + tail_note(hits, 0.99));
  result.detail("serve.miss_p50_ms", percentile(misses, 0.5), "ms",
                "wall, n=" + std::to_string(misses.size()));
  result.detail("serve.miss_p90_ms", percentile(misses, 0.9), "ms",
                "wall, " + tail_note(misses, 0.9));
  result.detail("serve.miss_cpu_p90_ms", result.e2e["tail_cpu_ms"], "ms",
                "CPU time, " + tail_note(miss_cpu, 0.9));
}

}  // namespace

Result run_serve(const Options& options, Tracer& tracer) {
  Result result;
  std::mutex result_mutex;
  const Scale s = scale_for(options);
  const std::size_t daemon_threads = std::max<std::size_t>(
      1, options.threads / kConnections);

  // A previous daemon's store: each hot spec answered once, cold.
  std::vector<std::string> hot_bodies;
  {
    Daemon daemon(daemon_threads);
    sv::Client client(daemon.socket());
    for (std::size_t h = 0; h < kHotSpecs; ++h) {
      const sv::Response response = client.query(hot_spec(s, options.seed, h));
      result.count(response.executed_jobs == response.jobs,
                   "a hot spec was not executed cold");
      hot_bodies.push_back(response.body);
    }
  }
  // The store as every set-up below loads it; the loop's misses grow the
  // live one.
  std::filesystem::copy_file("store.jsonl", "setup-store.jsonl");

  // Set-up: daemon construction (socket bind + store pre-warm), its accept
  // loop, and a first connection that answers a ping. The previous daemon
  // is shut down outside the timed region; the last one built serves the
  // measured loop.
  std::unique_ptr<Daemon> daemon;
  const auto set_up = [&](int) {
    daemon = std::make_unique<Daemon>(daemon_threads);
    sv::Client client(daemon->socket());
    client.ping();
  };
  SetupTimer setup;
  for (int i = 0; i < 2 * kSetupsAtStart; ++i) {
    daemon.reset();
    setup.time(set_up);
  }
  setup.report(result, "daemon + store load + first ping");

  // The traced run alternates untraced and traced quarters of its time, so
  // drift in the machine's load favours neither.
  Tracer off(false);
  LoopStats loop, traced;
  const int phases = options.trace ? 4 : 1;
  for (int phase = 0; phase < phases; ++phase) {
    const bool traced_phase = phase % 2 == 1;
    LoopStats part = closed_loop(s, options, *daemon, hot_bodies,
                                 static_cast<std::uint64_t>(phase),
                                 options.seconds / phases,
                                 traced_phase ? tracer : off, result,
                                 result_mutex);
    LoopStats& into = traced_phase ? traced : loop;
    for (Sample sample : part.samples) {
      sample.end_s += into.wall_s;  // phases of one kind laid end to end
      into.samples.push_back(sample);
    }
    into.wall_s += part.wall_s;
    if (into.miss_body.empty()) {
      into.miss_spec_text = part.miss_spec_text;
      into.miss_body = part.miss_body;
    }
  }
  report_latencies(loop, result);

  auto& L = result.layer;
  if (options.trace) {
    std::map<std::string, std::uint64_t> counters;
    std::vector<double> rtt_us;
    {
      sv::Client client(daemon->socket());
      counters = client.status();
      for (int i = 0; i < 200; ++i) {
        const auto t0 = Clock::now();
        Scope span(tracer, "util.ping", 0, next_op_id());
        client.ping();
        rtt_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      }
    }
    L["serve.hits"] = static_cast<double>(counters["cache_hits"]);
    L["serve.misses"] = static_cast<double>(counters["cache_misses"]);
    L["serve.jobs_executed"] = static_cast<double>(counters["jobs_executed"]);
    L["util.socket_rtt_us"] = median(rtt_us);
    Result traced_result;
    report_latencies(traced, traced_result);
    const double rate = result.e2e["ops_per_cpu_s"];
    L["trace.overhead_frac"] =
        (rate - traced_result.e2e["ops_per_cpu_s"]) / rate;
  }
  daemon.reset();

  // In-process answers for one hot spec and one miss.
  std::vector<double> merge_ms;
  std::vector<sc::JobRows> hot_rows;
  const std::string hot_text = hot_spec(s, options.seed, 0);
  result.count(in_process(hot_text, options.threads, tracer, &merge_ms,
                          &hot_rows) == hot_bodies[0],
               "a hot answer differs from in-process execute_job + "
               "merge_rows");
  if (!loop.miss_body.empty()) {
    result.count(in_process(loop.miss_spec_text, options.threads, tracer,
                            nullptr) == loop.miss_body,
                 "a miss answer differs from in-process execute_job + "
                 "merge_rows");
  }
  if (!options.trace) return result;

  // Store load (of the store set-up loads) and cache calls, timed around
  // the cache's public API.
  std::vector<double> load_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    Scope span(tracer, "serve.store_load", 0, next_op_id());
    const sv::ResultCache cache({.store_path = "setup-store.jsonl"});
    load_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  L["serve.store_load_ms"] = median(load_ms);
  {
    const sc::Plan canonical = sv::canonical_plan(
        sc::parse_scenario_text(hot_text, "<perfbench>"));
    sv::ResultCache cache({.store_path = "probe-store.jsonl"});
    std::vector<double> insert_us, lookup_us;
    for (std::size_t j = 0; j < hot_rows.size(); ++j) {
      const auto t0 = Clock::now();
      Scope span(tracer, "serve.cache_insert", 0, next_op_id());
      cache.insert(canonical.jobs[j].fingerprint, hot_rows[j], 0.0);
      insert_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    for (std::size_t j = 0; j < hot_rows.size(); ++j) {
      const auto t0 = Clock::now();
      Scope span(tracer, "serve.cache_lookup", 0, next_op_id());
      const auto rows = cache.lookup(canonical.jobs[j].fingerprint);
      lookup_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      result.count(rows.has_value() && *rows == hot_rows[j],
                   "cache lookup returned other rows than inserted");
    }
    L["serve.cache_insert_us"] = median(insert_us);
    L["serve.cache_lookup_us"] = median(lookup_us);
  }
  L["scenario.merge_ms"] = median(merge_ms);
  return result;
}

}  // namespace perfbench
