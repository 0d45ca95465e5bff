// Workload `sweep`: the full 3270-protocol PRA sweep at reduced scale, made
// with swarming::compute_pra_dataset + save_pra_dataset (the `dsa_cli sweep`
// path), repeated with fresh seeds until the run's time is used.
//
// The traced run drives the same sweep through the layers' public
// functions instead — SwarmingModel behind a timing decorator handed to
// core::PraEngine, quantify() per checkpoint chunk, save_pra_checkpoint,
// save_pra_dataset — so each boundary gets a span; its CSV must be
// byte-identical to the untraced sweep of the same seed.
#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/pra.hpp"
#include "core/subspace.hpp"
#include "scenario/manifest.hpp"
#include "scenario/plan.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "swarming/bandwidth.hpp"
#include "swarming/dsa_model.hpp"
#include "swarming/pra_dataset.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using dsa::core::EncounterModel;
using dsa::core::MixedJob;
using dsa::core::PraEngine;
using dsa::swarming::kProtocolCount;
using dsa::swarming::PraDatasetOptions;
using dsa::swarming::PraRecord;

/// Forwards every EncounterModel virtual to the wrapped model, recording
/// one "swarming.sim" span per call under the current quantify chunk.
class TimedModel final : public EncounterModel {
 public:
  TimedModel(const EncounterModel& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void set_chunk(std::uint64_t span, std::uint64_t op) {
    chunk_span_.store(span);
    chunk_op_.store(op);
  }

  [[nodiscard]] std::uint32_t protocol_count() const override {
    return inner_.protocol_count();
  }
  [[nodiscard]] std::string protocol_name(std::uint32_t id) const override {
    return inner_.protocol_name(id);
  }
  [[nodiscard]] double homogeneous_utility(std::uint32_t protocol,
                                           std::size_t population,
                                           std::uint64_t seed) const override {
    Scope span(tracer_, "swarming.sim", chunk_span_.load(), chunk_op_.load());
    homogeneous_.fetch_add(1, std::memory_order_relaxed);
    return inner_.homogeneous_utility(protocol, population, seed);
  }
  [[nodiscard]] std::pair<double, double> mixed_utilities(
      std::uint32_t a, std::uint32_t b, std::size_t count_a,
      std::size_t count_b, std::uint64_t seed) const override {
    Scope span(tracer_, "swarming.sim", chunk_span_.load(), chunk_op_.load());
    mixed_.fetch_add(1, std::memory_order_relaxed);
    return inner_.mixed_utilities(a, b, count_a, count_b, seed);
  }
  void homogeneous_utility_batch(std::uint32_t protocol,
                                 std::size_t population,
                                 std::span<const std::uint64_t> seeds,
                                 std::span<double> out) const override {
    Scope span(tracer_, "swarming.sim", chunk_span_.load(), chunk_op_.load());
    homogeneous_.fetch_add(seeds.size(), std::memory_order_relaxed);
    inner_.homogeneous_utility_batch(protocol, population, seeds, out);
  }
  void mixed_utilities_batch(
      std::uint32_t a, std::size_t count_a, std::size_t count_b,
      std::span<const MixedJob> jobs,
      std::span<std::pair<double, double>> out) const override {
    Scope span(tracer_, "swarming.sim", chunk_span_.load(), chunk_op_.load());
    mixed_.fetch_add(jobs.size(), std::memory_order_relaxed);
    inner_.mixed_utilities_batch(a, count_a, count_b, jobs, out);
  }

  [[nodiscard]] std::uint64_t homogeneous_calls() const {
    return homogeneous_.load();
  }
  [[nodiscard]] std::uint64_t mixed_calls() const { return mixed_.load(); }

 private:
  const EncounterModel& inner_;
  Tracer& tracer_;
  std::atomic<std::uint64_t> chunk_span_{0};
  std::atomic<std::uint64_t> chunk_op_{0};
  mutable std::atomic<std::uint64_t> homogeneous_{0};
  mutable std::atomic<std::uint64_t> mixed_{0};
};

/// Times compute_pra_dataset's checkpoint chunks from outside the library:
/// an inotify watch on the run directory sees each checkpoint's atomic
/// rename into place, and the gap between two renames of one sweep's
/// checkpoint is one chunk (quantify plus the save). Each rename is stamped
/// with the wall clock and the process's CPU clock.
class CheckpointWatch {
 public:
  CheckpointWatch() : fd_(inotify_init1(IN_NONBLOCK | IN_CLOEXEC)) {
    // The kernel merges an event into the previous unread one when both are
    // alike, so two renames of one checkpoint with nothing between them
    // would read as one if this thread fell behind. Watching the temporary
    // file's close as well puts an event between every two renames.
    if (fd_ < 0 ||
        inotify_add_watch(fd_, ".", IN_MOVED_TO | IN_CLOSE_WRITE) < 0) {
      if (fd_ >= 0) close(fd_);
      throw std::runtime_error("cannot watch the run directory");
    }
    thread_ = std::thread([this] { watch(); });
  }
  ~CheckpointWatch() {
    stop_.store(true);
    thread_.join();
    close(fd_);
  }
  CheckpointWatch(const CheckpointWatch&) = delete;
  CheckpointWatch& operator=(const CheckpointWatch&) = delete;

  struct Chunks {
    std::vector<double> wall_ms, cpu_ms;
  };

  /// Wall and CPU times (ms) between consecutive renames of `name` so far.
  /// Events the watching thread has not read yet are taken now: the kernel
  /// queued them when the renames happened.
  Chunks chunks(const std::string& name) {
    std::lock_guard lock(mutex_);
    drain(now());
    Chunks gaps;
    const Stamp* last = nullptr;
    for (const auto& [file, at] : events_) {
      if (file != name) continue;
      if (last != nullptr) {
        gaps.wall_ms.push_back(seconds_between(last->wall, at.wall) * 1e3);
        gaps.cpu_ms.push_back((at.cpu_s - last->cpu_s) * 1e3);
      }
      last = &at;
    }
    return gaps;
  }

 private:
  struct Stamp {
    Clock::time_point wall;
    double cpu_s;
  };
  static Stamp now() { return {Clock::now(), process_cpu_s()}; }

  void watch() {
    pollfd fds{fd_, POLLIN, 0};
    while (!stop_.load()) {
      if (poll(&fds, 1, 50) <= 0) continue;
      const Stamp at = now();
      std::lock_guard lock(mutex_);
      drain(at);
    }
  }

  /// Reads every queued event (the descriptor does not block), stamping
  /// each with `at`. Called with the mutex held.
  void drain(const Stamp& at) {
    alignas(inotify_event) char buffer[4096];
    ssize_t n;
    while ((n = read(fd_, buffer, sizeof(buffer))) > 0) {
      for (ssize_t off = 0; off < n;) {
        const auto* event =
            reinterpret_cast<const inotify_event*>(buffer + off);
        if (event->len > 0 && (event->mask & IN_MOVED_TO) != 0) {
          events_.emplace_back(event->name, at);
        }
        off += static_cast<ssize_t>(sizeof(inotify_event) + event->len);
      }
    }
  }

  int fd_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::mutex mutex_;
  std::vector<std::pair<std::string, Stamp>> events_;
};

struct Scale {
  std::size_t rounds, population, perf_runs, encounter_runs, opponents;
  std::size_t sample;          // protocols re-checked serially per sweep
  std::size_t scaling_stride;  // every n-th protocol for core.scaling_eff
};

Scale scale_for(const Options& options) {
  if (options.tiny) return {3, 10, 1, 1, 1, 2, 200};
  return {12, 50, 3, 1, 3, 6, 30};
}

PraDatasetOptions sweep_options(const Scale& s, const Options& options,
                                std::uint64_t seed,
                                const std::filesystem::path& path) {
  PraDatasetOptions o;
  o.rounds = s.rounds;
  o.pra.population = s.population;
  o.pra.performance_runs = s.perf_runs;
  o.pra.encounter_runs = s.encounter_runs;
  o.pra.opponent_sample = s.opponents;
  o.pra.seed = seed;
  o.pra.threads = options.threads;
  o.path = path;
  return o;
}

dsa::swarming::SwarmingModel make_model(const PraDatasetOptions& o) {
  dsa::swarming::SimulationConfig sim;
  sim.rounds = o.rounds;
  sim.engine = o.engine;
  return dsa::swarming::SwarmingModel(
      sim, dsa::swarming::BandwidthDistribution::piatek());
}

/// compute_pra_dataset's chunk loop, rebuilt from public calls with a span
/// at each layer boundary.
void traced_sweep(const PraDatasetOptions& o, Tracer& tracer,
                  std::uint64_t& homogeneous, std::uint64_t& mixed) {
  Scope sweep(tracer, "sweep.run", 0, next_op_id());
  const dsa::swarming::SwarmingModel model = make_model(o);
  TimedModel timed(model, tracer);
  dsa::util::ThreadPool pool(o.pra.threads);
  const PraEngine engine(timed, o.pra, &pool);
  std::vector<PraRecord> records(kProtocolCount);
  const std::filesystem::path checkpoint =
      dsa::swarming::pra_checkpoint_path(o);
  for (std::size_t begin = 0; begin < kProtocolCount;
       begin += o.checkpoint_interval) {
    const std::size_t end =
        std::min<std::size_t>(begin + o.checkpoint_interval, kProtocolCount);
    std::vector<dsa::core::ProtocolMetrics> metrics;
    {
      Scope chunk(tracer, "core.quantify", Scope::kInherit, next_op_id());
      timed.set_chunk(chunk.id(), chunk.op());
      metrics = engine.quantify(static_cast<std::uint32_t>(begin),
                                static_cast<std::uint32_t>(end));
    }
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto id = static_cast<std::uint32_t>(begin + i);
      records[id] = {id, dsa::swarming::decode_protocol(id),
                     metrics[i].raw_performance, 0.0, metrics[i].robustness,
                     metrics[i].aggressiveness};
    }
    if (end < kProtocolCount) {
      Scope save(tracer, "swarming.checkpoint_save");
      dsa::swarming::save_pra_checkpoint(records, end, checkpoint);
    }
  }
  double best = 0.0;
  for (const PraRecord& rec : records) {
    best = std::max(best, rec.raw_performance);
  }
  for (PraRecord& rec : records) {
    rec.performance = best > 0.0 ? rec.raw_performance / best : 0.0;
  }
  {
    Scope save(tracer, "swarming.dataset_save");
    dsa::swarming::save_pra_dataset(records, o.path);
  }
  homogeneous += timed.homogeneous_calls();
  mixed += timed.mixed_calls();
}

/// Re-derives a seeded sample of rows serially through raw_performance_of /
/// win_rate_of; every value must equal the sweep's bit for bit.
void check_sample(const PraDatasetOptions& o, const Scale& s,
                  std::vector<PraRecord> records, std::uint64_t seed,
                  bool corrupt, Result& result) {
  const dsa::swarming::SwarmingModel model = make_model(o);
  dsa::core::PraConfig config = o.pra;
  config.threads = 1;
  const PraEngine engine(model, config);
  if (corrupt) records.front().robustness += 1.0;
  for (std::size_t k = 0; k < s.sample; ++k) {
    const auto p = static_cast<std::uint32_t>(
        k == 0 ? 0 : mix_seed(seed, k) % kProtocolCount);
    const PraRecord& rec = records.at(p);
    const bool ok =
        rec.protocol == p &&
        same_bits(rec.raw_performance, engine.raw_performance_of(p)) &&
        same_bits(rec.robustness, engine.win_rate_of(p, 0.5)) &&
        same_bits(rec.aggressiveness,
                  engine.win_rate_of(p, config.minority_fraction));
    result.count(ok, "sweep row " + std::to_string(p) +
                         " differs from its serial recomputation");
  }
}

}  // namespace

Result run_sweep(const Options& options, Tracer& tracer) {
  Result result;
  const Scale s = scale_for(options);
  const std::size_t sims_per_sweep =
      kProtocolCount * (s.perf_runs + 2 * s.opponents * s.encounter_runs);

  // Set-up: the objects a sweep builds before its first simulation.
  const auto set_up = [&](int i) {
    const PraDatasetOptions o =
        sweep_options(s, options, mix_seed(options.seed, 1000 + i), "unused");
    const dsa::swarming::SwarmingModel model = make_model(o);
    dsa::util::ThreadPool pool(o.pra.threads);
    const PraEngine engine(model, o.pra, &pool);
  };
  SetupTimer setup;
  for (int i = 0; i < kSetupsAtStart; ++i) setup.time(set_up);

  std::vector<double> walls, cpus, traced_cpus, chunk_ms, chunk_cpu_ms;
  std::uint64_t homogeneous = 0, mixed = 0;
  CheckpointWatch checkpoints;
  Budget budget(options.seconds);
  for (std::size_t i = 0; budget.next(); ++i) {
    for (int k = 0; k < kSetupsPerIteration; ++k) setup.time(set_up);
    const std::uint64_t seed = mix_seed(options.seed, i);
    const std::string tag = std::to_string(i);
    const std::filesystem::path path = "sweep-" + tag + ".csv";
    const std::filesystem::path traced_path = "sweep-" + tag + ".traced.csv";
    // The traced repeat of the same seed alternates with the untraced sweep
    // in which goes first, so warm-up favours neither.
    const bool traced_first = options.trace && i % 2 == 1;
    auto traced = [&] {
      const double cpu0 = process_cpu_s();
      traced_sweep(sweep_options(s, options, seed, traced_path), tracer,
                   homogeneous, mixed);
      traced_cpus.push_back(process_cpu_s() - cpu0);
    };
    try {
      if (traced_first) traced();
      const PraDatasetOptions o = sweep_options(s, options, seed, path);
      const auto t0 = Clock::now();
      const double cpu0 = process_cpu_s();
      const std::vector<PraRecord> records =
          dsa::swarming::compute_pra_dataset(o, /*verbose=*/false);
      dsa::swarming::save_pra_dataset(records, o.path);
      cpus.push_back(process_cpu_s() - cpu0);
      walls.push_back(seconds_between(t0, Clock::now()));
      result.count(records.size() == kProtocolCount,
                   "sweep " + tag + " row count");
      // k chunks save k - 1 checkpoints, so k - 2 gaps between them.
      const CheckpointWatch::Chunks chunks = checkpoints.chunks(
          dsa::swarming::pra_checkpoint_path(o).filename().string());
      const std::size_t chunk_count =
          (kProtocolCount + o.checkpoint_interval - 1) / o.checkpoint_interval;
      result.count(chunks.cpu_ms.size() + 2 == chunk_count,
                   "sweep " + tag + ": " +
                       std::to_string(chunks.cpu_ms.size() + 1) +
                       " checkpoint renames seen, " +
                       std::to_string(chunk_count - 1) + " expected");
      chunk_ms.insert(chunk_ms.end(), chunks.wall_ms.begin(),
                      chunks.wall_ms.end());
      chunk_cpu_ms.insert(chunk_cpu_ms.end(), chunks.cpu_ms.begin(),
                          chunks.cpu_ms.end());
      if (options.trace && !traced_first) traced();
      check_sample(o, s, records, seed, options.corrupt && i == 0, result);
      if (options.trace) {
        result.count(read_file(path) == read_file(traced_path),
                     "traced sweep " + tag +
                         " CSV differs from the untraced one");
      }
    } catch (const std::exception& error) {
      result.count(false, "sweep " + tag + ": " + error.what());
    }
  }

  setup.report(result, "model + pool + engine");
  // The gate is on CPU time (see process_cpu_s) of the median sweep, so one
  // sweep slowed by a neighbour on the machine moves neither figure much.
  const double sims_per_cpu_s =
      static_cast<double>(sims_per_sweep) / median(cpus);
  result.e2e["ops_per_cpu_s"] = sims_per_cpu_s;
  result.e2e["p50_cpu_ms"] = median(cpus) * 1e3;
  // The tail comes from the checkpoint chunks, which are numerous enough
  // for a p90 with more than ten samples beyond it; there are only 10-20
  // sweeps.
  result.e2e["tail_cpu_ms"] = percentile(chunk_cpu_ms, 0.9);
  const std::string n = "n=" + std::to_string(walls.size()) + " sweeps";
  const double sims_per_s =
      static_cast<double>(sims_per_sweep) / median(walls);
  result.detail("sweep.sims_per_s", sims_per_s, "1/s",
                std::to_string(sims_per_sweep) + " sims / median sweep wall, " +
                    n);
  result.detail("sweep.sims_per_cpu_s", sims_per_cpu_s, "1/s",
                "sims / median sweep CPU time, " + n);
  result.detail("sweep.wall_p50_s", median(walls), "s", n);
  result.detail("sweep.cpu_p50_s", median(cpus), "s", n);
  result.detail("sweep.chunk_p90_ms", percentile(chunk_ms, 0.9), "ms",
                "256-protocol checkpoint chunks, wall, " +
                    tail_note(chunk_ms, 0.9));
  result.detail("sweep.chunk_cpu_p90_ms", result.e2e["tail_cpu_ms"], "ms",
                "the same chunks, CPU time, " + tail_note(chunk_cpu_ms, 0.9));
  if (!options.trace || traced_cpus.empty()) return result;

  // Per-layer numbers, per traced sweep.
  const auto sweeps = static_cast<double>(traced_cpus.size());
  const std::vector<Span> spans = tracer.spans();
  std::vector<double> sim_us, quantify_s, checkpoint_ms, save_ms;
  double busy = 0.0;
  for (const Span& span : spans) {
    const double d = static_cast<double>(span.end_ns - span.start_ns) / 1e9;
    const std::string name = span.name;
    if (name == "swarming.sim") {
      sim_us.push_back(d * 1e6);
      busy += d;
    } else if (name == "core.quantify") {
      quantify_s.push_back(d);
    } else if (name == "swarming.checkpoint_save") {
      checkpoint_ms.push_back(d * 1e3);
    } else if (name == "swarming.dataset_save") {
      save_ms.push_back(d * 1e3);
    }
  }
  // Chunk tail: from the first worker going idle (its last simulation of
  // the chunk ending) to the end of the chunk.
  std::vector<double> tails;
  {
    std::map<std::uint64_t, std::map<std::uint32_t, std::int64_t>> last_end;
    for (const Span& span : spans) {
      if (std::string(span.name) != "swarming.sim") continue;
      std::int64_t& end = last_end[span.parent][span.thread];
      end = std::max(end, span.end_ns);
    }
    for (const Span& span : spans) {
      if (std::string(span.name) != "core.quantify") continue;
      const auto it = last_end.find(span.id);
      if (it == last_end.end()) continue;
      std::int64_t first_idle = span.end_ns;
      for (const auto& [thread, end] : it->second) {
        first_idle = std::min(first_idle, end);
      }
      tails.push_back(static_cast<double>(span.end_ns - first_idle) / 1e6);
    }
  }
  double quantify_total = 0.0;
  for (const double q : quantify_s) quantify_total += q;
  auto& L = result.layer;
  L["swarming.sims"] = static_cast<double>(homogeneous + mixed) / sweeps;
  L["swarming.homogeneous_calls"] = static_cast<double>(homogeneous) / sweeps;
  L["swarming.mixed_calls"] = static_cast<double>(mixed) / sweeps;
  L["swarming.sim_us_p50"] = percentile(sim_us, 0.5);
  L["swarming.sim_us_p99"] = percentile(sim_us, 0.99);
  L["swarming.busy_s"] = busy / sweeps;
  L["core.quantify_s"] = quantify_total / sweeps;
  L["core.pool_idle_frac"] =
      1.0 - busy / (static_cast<double>(options.threads) * quantify_total);
  L["core.chunk_tail_ms"] = median(tails);
  L["swarming.checkpoint_save_ms"] = median(checkpoint_ms);
  L["swarming.dataset_save_ms"] = median(save_ms);
  L["swarming.dataset_bytes"] =
      static_cast<double>(std::filesystem::file_size("sweep-0.csv"));
  const double traced_rate =
      static_cast<double>(sims_per_sweep) / median(traced_cpus);
  L["trace.overhead_frac"] = (sims_per_cpu_s - traced_rate) / sims_per_cpu_s;

  // Scaling: a strided subset of the space at 1 thread and at every thread.
  {
    Scope scaling(tracer, "core.scaling", 0, next_op_id());
    std::vector<std::uint32_t> members;
    for (std::uint32_t p = 0; p < kProtocolCount; p += s.scaling_stride) {
      members.push_back(p);
    }
    const PraDatasetOptions o =
        sweep_options(s, options, mix_seed(options.seed, 999), "unused");
    const dsa::swarming::SwarmingModel model = make_model(o);
    const dsa::core::SubspaceModel subset(model, members);
    const auto n = static_cast<std::uint32_t>(members.size());
    auto timed_quantify = [&](std::size_t threads) {
      dsa::util::ThreadPool pool(threads);
      const PraEngine engine(subset, o.pra, &pool);
      Scope span(tracer, threads == 1 ? "core.scaling_1t" : "core.scaling_nt");
      const auto t0 = Clock::now();
      (void)engine.quantify(0, n);
      return seconds_between(t0, Clock::now());
    };
    // Alternated and repeated; the faster of each pair is kept, so a burst
    // of load from elsewhere does not decide the ratio.
    const double one_a = timed_quantify(1);
    const double all_a = timed_quantify(options.threads);
    const double all_b = timed_quantify(options.threads);
    const double one_b = timed_quantify(1);
    const double one = std::min(one_a, one_b);
    const double all = std::min(all_a, all_b);
    L["core.scaling_eff"] = one / (all * static_cast<double>(options.threads));
  }

  // The scenario runner on a sweep-kind spec: every 10th protocol in chunks
  // of 64 (six jobs on the pool's workers). Its idle share comes from the
  // runner's own per-job times in the kept manifest.
  {
    namespace sc = dsa::scenario;
    Scope probe(tracer, "scenario.sweep_runner", 0, next_op_id());
    const std::string spec =
        "{\"scenario\":\"bench-runner\",\"kind\":\"sweep\",\"output\":"
        "\"runner.csv\",\"chunk\":64,\"threads\":" +
        std::to_string(options.threads) +
        ",\"params\":{\"protocols\":\"stride:10\",\"rounds\":" +
        std::to_string(s.rounds) +
        ",\"population\":" + std::to_string(s.population) +
        ",\"performance_runs\":" + std::to_string(s.perf_runs) +
        ",\"encounter_runs\":" + std::to_string(s.encounter_runs) +
        ",\"opponent_sample\":" + std::to_string(s.opponents) +
        ",\"seed\":" + std::to_string(options.seed % 1000000007ULL) + "}}";
    sc::Plan plan;
    {
      Scope expand(tracer, "scenario.expand");
      const auto t0 = Clock::now();
      plan = sc::expand_plan(sc::parse_scenario_text(spec, "<perfbench>"));
      L["scenario.expand_ms"] = seconds_between(t0, Clock::now()) * 1e3;
    }
    sc::RunOptions run_options;
    run_options.threads = options.threads;
    run_options.verbose = false;
    run_options.keep_manifest = true;
    const auto t0 = Clock::now();
    {
      Scope run(tracer, "scenario.run");
      const sc::RunReport report = sc::run_scenario(plan, run_options);
      result.count(report.executed == plan.jobs.size(),
                   "runner sweep did not execute every job");
    }
    const double wall_ms = seconds_between(t0, Clock::now()) * 1e3;
    const std::filesystem::path manifest = sc::manifest_path(plan);
    const sc::ManifestData data = sc::load_manifest(plan, manifest);
    double busy_ms = 0.0;
    for (const double ms : data.ms) busy_ms += std::max(ms, 0.0);
    L["scenario.runner_idle_frac"] =
        1.0 - busy_ms / (static_cast<double>(options.threads) * wall_ms);
    L["scenario.job_ms_p50"] = percentile(data.ms, 0.5);
    L["scenario.job_ms_p99"] = percentile(data.ms, 0.99);
    L["scenario.manifest_bytes"] =
        static_cast<double>(std::filesystem::file_size(manifest));
  }
  return result;
}

}  // namespace perfbench
