// Workload `swarm`: the piece-level path, driven through the scenario
// runner with no round-engine work at all. Each iteration runs
//   1. a Fig. 9/10 client grid (swarm kind: 5 clients x fractions
//      {0.1, 0.5, 0.9}, several runs per cell), then
//   2. a worst-case fault search (explore kind) on a 50-leecher, 80-piece
//      swarm under ambient loss and piece timeouts, followed by the shrink
//      step and counterexample save that `dsa_cli explore` performs,
// with a fresh seed per iteration until the run's time is used.
//
// The traced run repeats each iteration's scenarios with the benchmark's
// own job loop (expand_plan, execute_job per job on a pool, merge_rows),
// one span per call; the merged CSVs must equal the runner's bytes.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common.hpp"
#include "explore/counterexample.hpp"
#include "explore/explore.hpp"
#include "scenario/exec.hpp"
#include "scenario/explore_kind.hpp"
#include "scenario/manifest.hpp"
#include "scenario/plan.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace sc = dsa::scenario;
namespace ex = dsa::explore;

const char* const kClients[] = {"bt", "birds", "loyal", "sorts", "random"};
const double kFractions[] = {0.1, 0.5, 0.9};

struct Scale {
  int grid_runs;     // runs per grid cell
  int crash_leechers;
  int tick_count;
  int probe_runs;    // direct swarm::run_mixed_swarm calls (traced only)
};

Scale scale_for(const Options& options) {
  if (options.tiny) return {1, 1, 2, 2};
  return {30, 4, 8, 24};
}

std::int64_t spec_seed(std::uint64_t seed) {
  return static_cast<std::int64_t>(seed % 1000000007ULL);
}

std::string grid_spec(const Scale& s, const Options& o, std::int64_t seed,
                      const std::string& output) {
  return "{\"scenario\":\"bench-grid\",\"kind\":\"swarm\",\"output\":\"" +
         output + "\",\"threads\":" + std::to_string(o.threads) +
         ",\"params\":{\"a\":[\"bt\",\"birds\",\"loyal\",\"sorts\","
         "\"random\"],\"b\":\"bt\",\"fraction\":[0.1,0.5,0.9],\"total\":50,"
         "\"runs\":" +
         std::to_string(s.grid_runs) + ",\"seed\":" + std::to_string(seed) +
         "}}";
}

std::string explore_spec(const Scale& s, const Options& o, std::int64_t seed,
                         const std::string& output) {
  return "{\"scenario\":\"bench-explore\",\"kind\":\"explore\",\"output\":"
         "\"" +
         output + "\",\"threads\":" + std::to_string(o.threads) +
         ",\"chunk\":32,\"params\":{\"a\":\"bt\",\"b\":\"same\",\"total\":50,"
         "\"piece_count\":80,\"seed\":" +
         std::to_string(seed) +
         ",\"loss\":0.03,\"timeout\":2,\"crash_leechers\":" +
         std::to_string(s.crash_leechers) +
         ",\"crash_downtime\":60,\"outage_count\":1,\"outage_length\":80,"
         "\"tick_start\":1,\"tick_step\":40,\"tick_count\":" +
         std::to_string(s.tick_count) +
         ",\"max_faults\":2,\"objective\":\"mean_time\"}}";
}

sc::Plan plan_of(const std::string& text) {
  return sc::expand_plan(sc::parse_scenario_text(text, "<perfbench>"));
}

/// Per-layer accumulators of the traced iterations.
struct Layers {
  std::vector<double> expand_ms, merge_ms, eval_ms, run_ms;
  std::vector<double> runner_idle;
  double manifest_bytes = 0;
  std::uint64_t ticks = 0, lost = 0, retries = 0, crashes = 0;
  std::uint64_t shrink_evals = 0;
  /// Fault and shrink counts come from the first traced iteration only, so
  /// they are exact for a seed whatever the number of iterations.
  bool counting = true;
};

/// The post-run half of `dsa_cli explore`: rank the merged CSV (worst value
/// first, ties to the lowest ordinal), shrink the worst schedule, save the
/// counterexample. Returns its path, or an empty path when no schedule
/// beats the fault-free baseline.
std::filesystem::path shrink_worst(const sc::Plan& plan,
                                   const std::filesystem::path& output,
                                   Tracer& tracer, Layers* layers) {
  const dsa::util::CsvTable table = dsa::util::CsvTable::load(output);
  std::size_t worst_row = 0;
  double worst_value = table.number_at(0, "value");
  double baseline = 0.0;
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    const double value = table.number_at(row, "value");
    if (value > worst_value) {
      worst_value = value;
      worst_row = row;
    }
    if (table.at(row, "ordinal") == "0") baseline = value;
  }
  const std::uint64_t ordinal = std::stoull(table.at(worst_row, "ordinal"));
  const sc::ExploreContext ctx = sc::explore_context(plan.jobs.front().params);
  ex::Schedule worst;
  ex::for_schedules_in(ctx.domain, ordinal, ordinal + 1,
                       [&](std::uint64_t, const ex::Schedule& schedule) {
                         worst = schedule;
                       });
  if (worst.empty()) return {};
  const ex::EvaluateFn evaluate = [&](const ex::Schedule& schedule) {
    const auto t0 = Clock::now();
    dsa::swarm::SwarmResult run;
    {
      Scope span(tracer, "explore.eval");
      run = sc::run_explore_schedule(ctx, schedule);
    }
    if (layers != nullptr) {
      layers->eval_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    if (layers != nullptr && layers->counting) {
      layers->lost += run.fault_stats.messages_lost;
      layers->retries += run.fault_stats.retries_issued;
      layers->crashes += run.fault_stats.crashes;
    }
    return sc::explore_value(ctx, run);
  };
  ex::ShrinkResult shrunk;
  {
    Scope span(tracer, "explore.shrink");
    shrunk = ex::shrink(worst, worst_value, evaluate);
  }
  if (layers != nullptr && layers->counting) {
    layers->shrink_evals += shrunk.evaluations;
  }
  ex::Counterexample ce;
  ce.plan = ex::materialize(ctx.domain, shrunk.schedule, ctx.loss,
                            ctx.timeout);
  ce.a = ctx.a_name;
  ce.b = ctx.b_name;
  ce.count_a = ctx.count_a;
  ce.total = ctx.total;
  ce.seed = ctx.config.seed;
  ce.piece_count = ctx.config.piece_count;
  ce.piece_size_kb = ctx.config.piece_size_kb;
  ce.seeder_capacity_kbps = ctx.config.seeder_capacity_kbps;
  ce.max_ticks = ctx.config.max_ticks;
  ce.objective = ex::to_string(ctx.objective);
  ce.value = shrunk.value;
  ce.baseline = baseline;
  ce.schedule = ex::describe(ctx.domain, shrunk.schedule);
  std::filesystem::path path = output;
  path.replace_extension(".worst.json");
  ex::save_counterexample(path, ce);
  return path;
}

/// The saved counterexample must replay to its recorded value bit for bit.
bool replays(const std::filesystem::path& path, bool corrupt) {
  const ex::Counterexample ce = ex::load_counterexample(path);
  const dsa::swarm::SwarmResult run = ex::run_counterexample(ce);
  const double value =
      ex::objective_value(ex::parse_objective(ce.objective), run,
                          static_cast<double>(ce.max_ticks));
  return same_bits(value + (corrupt ? 1.0 : 0.0), ce.value);
}

/// One job of a swarm-kind plan (one CSV row per job) re-executed in
/// process must reproduce its row of the runner's merged CSV.
bool job_matches(const sc::Plan& plan, const std::filesystem::path& output,
                 std::size_t job_index) {
  const dsa::util::CsvTable table = dsa::util::CsvTable::load(output);
  const sc::JobRows rows = sc::execute_job(plan.spec, plan.jobs[job_index]);
  return table.row_count() == plan.jobs.size() && rows.size() == 1 &&
         table.row(job_index) == rows.front();
}

/// The benchmark's own job loop: every job of `plan` through execute_job on
/// a pool, one span per job, then merge_rows. Returns the merged CSV text.
std::string traced_scenario(const sc::Plan& plan, std::size_t threads,
                            Tracer& tracer, Layers& layers,
                            std::vector<double>& job_ms) {
  std::vector<sc::JobRows> rows(plan.jobs.size());
  std::vector<double> ms(plan.jobs.size());
  {
    Scope run(tracer, "scenario.run");
    dsa::util::ThreadPool pool(threads);
    const std::uint64_t parent = run.id();
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
      pool.submit([&, j, parent] {
        const auto t0 = Clock::now();
        Scope job(tracer, "scenario.job", parent, next_op_id());
        rows[j] = sc::execute_job(plan.spec, plan.jobs[j]);
        ms[j] = seconds_between(t0, Clock::now()) * 1e3;
      });
    }
    pool.wait_idle();
  }
  job_ms.insert(job_ms.end(), ms.begin(), ms.end());
  const auto t0 = Clock::now();
  Scope merge(tracer, "scenario.merge");
  std::string csv = sc::merge_rows(plan, rows).to_csv();
  layers.merge_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  return csv;
}

/// CPU time of the runner's jobs, taken on its worker threads: the gap in
/// a worker's CPU clock between the starts of two consecutive jobs is the
/// first one, as the runner runs it (execute_job plus its manifest append).
/// The last job of each worker has no next start and is not counted.
class JobCpu {
 public:
  void on_job_start() {
    const double now = thread_cpu_s();
    std::lock_guard lock(mutex_);
    const auto [it, first] =
        started_.try_emplace(std::this_thread::get_id(), now);
    if (!first) {
      ms_.push_back((now - it->second) * 1e3);
      it->second = now;
    }
  }
  [[nodiscard]] const std::vector<double>& ms() const { return ms_; }

 private:
  std::mutex mutex_;
  std::map<std::thread::id, double> started_;
  std::vector<double> ms_;
};

/// Wall and CPU time of one runner call.
struct RunTimes {
  double wall_s = 0.0, cpu_s = 0.0;
};

/// Runs `plan` through the crash-tolerant runner (the `dsa_cli run` path).
/// With `job_cpu_ms`, the CPU times of the runner's jobs (see JobCpu) are
/// appended to it. When asked for job times or layers, the manifest is kept
/// and read back: the runner's own per-job wall times are appended to
/// `job_ms`, and give its idle fraction in `layers`.
RunTimes run_through_runner(const sc::Plan& plan, std::size_t threads,
                            std::vector<double>* job_ms,
                            std::vector<double>* job_cpu_ms, Layers* layers,
                            Result& result) {
  sc::RunOptions run_options;
  run_options.threads = threads;
  run_options.verbose = false;
  run_options.keep_manifest = job_ms != nullptr || layers != nullptr;
  JobCpu job_cpu;
  if (job_cpu_ms != nullptr) {
    run_options.before_attempt = [&](std::size_t, std::size_t) {
      job_cpu.on_job_start();
    };
  }
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  const sc::RunReport report = sc::run_scenario(plan, run_options);
  const RunTimes times{seconds_between(t0, Clock::now()),
                       process_cpu_s() - cpu0};
  result.count(!report.reused_output && report.executed == plan.jobs.size(),
               plan.spec.name + ": runner reused or skipped work");
  if (job_cpu_ms != nullptr) {
    job_cpu_ms->insert(job_cpu_ms->end(), job_cpu.ms().begin(),
                       job_cpu.ms().end());
  }
  if (!run_options.keep_manifest) return times;
  const std::filesystem::path manifest = sc::manifest_path(plan);
  const sc::ManifestData data = sc::load_manifest(plan, manifest);
  result.count(data.ms.size() == plan.jobs.size() &&
                   std::ranges::all_of(data.ms, [](double ms) {
                     return ms >= 0.0;
                   }),
               plan.spec.name + ": manifest lacks a job's wall time");
  if (job_ms != nullptr) {
    job_ms->insert(job_ms->end(), data.ms.begin(), data.ms.end());
  }
  if (layers != nullptr) {
    double busy_ms = 0.0;
    for (const double ms : data.ms) busy_ms += std::max(ms, 0.0);
    layers->runner_idle.push_back(
        1.0 - busy_ms / (static_cast<double>(threads) * times.wall_s * 1e3));
    layers->manifest_bytes +=
        static_cast<double>(std::filesystem::file_size(manifest));
  }
  std::filesystem::remove(manifest);
  return times;
}

}  // namespace

Result run_swarm(const Options& options, Tracer& tracer) {
  Result result;
  const Scale s = scale_for(options);
  const std::size_t runs_per_grid =
      std::size(kClients) * std::size(kFractions) *
      static_cast<std::size_t>(s.grid_runs);

  // Set-up: spec parsing, plan expansion, explore domain validation and the
  // runner's pool, before the first job can start.
  const auto set_up = [&](int i) {
    const std::int64_t seed = spec_seed(mix_seed(options.seed, 500 + i));
    const sc::Plan grid = plan_of(grid_spec(s, options, seed, "g.csv"));
    const sc::Plan explore = plan_of(explore_spec(s, options, seed, "e.csv"));
    const sc::ExploreContext ctx =
        sc::explore_context(explore.jobs.front().params);
    dsa::util::ThreadPool pool(options.threads);
  };
  SetupTimer setup;
  for (int i = 0; i < kSetupsAtStart; ++i) setup.time(set_up);

  Layers layers;
  std::vector<double> grid_walls, grid_cpus, explore_walls, explore_cpus;
  std::vector<double> traced_grid_cpus, job_ms;
  std::vector<double> grid_job_ms;      // the runner's per-job wall times
  std::vector<double> grid_job_cpu_ms;  // and their CPU times (JobCpu)
  Budget budget(options.seconds);
  for (std::size_t i = 0; budget.next(); ++i) {
    for (int k = 0; k < kSetupsPerIteration; ++k) setup.time(set_up);
    const std::int64_t seed = spec_seed(mix_seed(options.seed, i));
    const std::string tag = std::to_string(i);
    const std::string grid_text =
        grid_spec(s, options, seed, "grid-" + tag + ".csv");
    const std::string explore_text =
        explore_spec(s, options, seed, "explore-" + tag + ".csv");
    const bool corrupt = options.corrupt && i == 0;

    std::filesystem::path worst;
    auto untraced = [&] {
      const sc::Plan grid = plan_of(grid_text);
      const RunTimes grid_times = run_through_runner(
          grid, options.threads, &grid_job_ms, &grid_job_cpu_ms,
          options.trace ? &layers : nullptr, result);
      grid_walls.push_back(grid_times.wall_s);
      grid_cpus.push_back(grid_times.cpu_s);
      result.count(
          job_matches(grid, grid.spec.output,
                      mix_seed(options.seed, i) % grid.jobs.size()),
          "grid " + tag + ": a re-executed job differs from the CSV");
      const auto t0 = Clock::now();
      const double cpu0 = process_cpu_s();
      const sc::Plan explore = plan_of(explore_text);
      run_through_runner(explore, options.threads, nullptr, nullptr,
                         options.trace ? &layers : nullptr, result);
      Tracer off(false);
      worst = shrink_worst(explore, explore.spec.output, off, nullptr);
      explore_cpus.push_back(process_cpu_s() - cpu0);
      explore_walls.push_back(seconds_between(t0, Clock::now()));
      result.count(worst.empty() || replays(worst, corrupt),
                   "explore " + tag + ": counterexample does not replay");
    };

    // Traced repeat of the same iteration through the benchmark's own job
    // loop. Its merged CSVs are kept for comparison with the runner's.
    std::string grid_csv, explore_csv;
    std::filesystem::path traced_worst;
    auto traced = [&] {
      const double cpu0 = process_cpu_s();
      sc::Plan grid;
      {
        Scope expand(tracer, "scenario.expand", 0, next_op_id());
        const auto e0 = Clock::now();
        grid = plan_of(grid_text);
        layers.expand_ms.push_back(seconds_between(e0, Clock::now()) * 1e3);
      }
      {
        Scope iteration(tracer, "swarm.grid", 0, next_op_id());
        grid_csv =
            traced_scenario(grid, options.threads, tracer, layers, job_ms);
      }
      traced_grid_cpus.push_back(process_cpu_s() - cpu0);
      sc::Plan explore;
      {
        Scope expand(tracer, "scenario.expand", 0, next_op_id());
        const auto e0 = Clock::now();
        explore = plan_of(explore_text);
        layers.expand_ms.push_back(seconds_between(e0, Clock::now()) * 1e3);
      }
      Scope iteration(tracer, "explore.search", 0, next_op_id());
      explore_csv =
          traced_scenario(explore, options.threads, tracer, layers, job_ms);
      const std::filesystem::path traced_output =
          "explore-" + tag + ".traced.csv";
      {
        std::ofstream out(traced_output, std::ios::binary);
        out << explore_csv;
      }
      traced_worst = shrink_worst(explore, traced_output, tracer, &layers);
      layers.counting = false;
    };

    try {
      // Alternate which pass goes first, so warm-up favours neither.
      const bool traced_first = options.trace && i % 2 == 1;
      if (traced_first) traced();
      untraced();
      if (options.trace && !traced_first) traced();
      if (!options.trace) continue;
      if (corrupt) grid_csv.back() = '#';
      result.count(grid_csv == read_file("grid-" + tag + ".csv"),
                   "grid " + tag + ": traced merge differs from the runner");
      result.count(explore_csv == read_file("explore-" + tag + ".csv"),
                   "explore " + tag + ": traced merge differs from the runner");
      result.count(traced_worst.empty() == worst.empty() &&
                       (worst.empty() ||
                        read_file(worst) == read_file(traced_worst)),
                   "explore " + tag +
                       ": traced counterexample differs from the untraced");
    } catch (const std::exception& error) {
      result.count(false, "iteration " + tag + ": " + error.what());
    }
  }

  setup.report(result, "parse + expand + domain + pool");
  // The gate is on CPU time (see process_cpu_s) of the median grid and
  // search, so one slowed by a neighbour on the machine does not move it.
  const double runs_per_cpu_s =
      static_cast<double>(runs_per_grid) / median(grid_cpus);
  result.e2e["ops_per_cpu_s"] = runs_per_cpu_s;
  result.e2e["p50_cpu_ms"] = median(explore_cpus) * 1e3;
  // The tail comes from the runner's jobs (one grid cell of piece-level
  // runs each), which are numerous enough for a p90 with more than ten
  // samples beyond it; there are only 10-15 iterations.
  result.e2e["tail_cpu_ms"] = percentile(grid_job_cpu_ms, 0.9);
  const std::string n = "n=" + std::to_string(grid_walls.size());
  result.detail("swarm.runs_per_s", static_cast<double>(runs_per_grid) /
                                        median(grid_walls),
                "1/s",
                std::to_string(runs_per_grid) + " runs / median grid wall, " +
                    n);
  result.detail("swarm.runs_per_cpu_s", runs_per_cpu_s, "1/s",
                "runs / median grid CPU time, " + n);
  result.detail("swarm.grid_job_p90_ms", percentile(grid_job_ms, 0.9), "ms",
                std::to_string(s.grid_runs) + " runs per job, wall, " +
                    tail_note(grid_job_ms, 0.9));
  result.detail("swarm.grid_job_cpu_p90_ms", result.e2e["tail_cpu_ms"], "ms",
                "the runner's jobs, CPU time, " +
                    tail_note(grid_job_cpu_ms, 0.9));
  result.detail("explore.wall_s", median(explore_walls), "s",
                "median search + shrink, " + n);
  result.detail("explore.cpu_s", median(explore_cpus), "s",
                "median search + shrink CPU time, " + n);
  if (!options.trace || traced_grid_cpus.empty()) return result;

  // Enumeration cost and pruning of the explore space, with a no-op visit.
  const sc::Plan explore =
      plan_of(explore_spec(s, options, spec_seed(options.seed), "x.csv"));
  const sc::ExploreContext ctx =
      sc::explore_context(explore.jobs.front().params);
  ex::SpaceCount count;
  double enum_s = 0.0;
  {
    Scope span(tracer, "explore.enumerate", 0, next_op_id());
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 20; ++rep) {
      count = ex::for_each_schedule(
          ctx.domain, [](std::uint64_t, const ex::Schedule&) {});
    }
    enum_s = seconds_between(t0, Clock::now()) / 20;
  }

  // Direct piece-level runs on grid cells.
  {
    Scope probe(tracer, "swarm.probe", 0, next_op_id());
    for (int k = 0; k < s.probe_runs; ++k) {
      const std::uint64_t pick = mix_seed(options.seed, 7000 + k);
      const char* client = kClients[pick % std::size(kClients)];
      const double fraction = kFractions[(pick >> 8) % std::size(kFractions)];
      dsa::swarm::SwarmConfig config;
      config.seed = static_cast<std::uint64_t>(spec_seed(pick));
      const std::size_t total = 50;
      const auto count_a = std::clamp<std::size_t>(
          static_cast<std::size_t>(
              std::lround(fraction * static_cast<double>(total))),
          1, total - 1);
      const auto t0 = Clock::now();
      dsa::swarm::SwarmResult run;
      {
        Scope span(tracer, "swarm.run");
        run = dsa::swarm::run_mixed_swarm(
            ex::client_from_name(client),
            dsa::swarm::ClientVariant::kBitTorrent, count_a, total, config);
      }
      layers.run_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      const double last =
          *std::max_element(run.completion_time.begin(),
                            run.completion_time.end());
      layers.ticks += run.all_completed
                          ? static_cast<std::uint64_t>(std::ceil(last))
                          : config.max_ticks;
    }
  }

  auto& L = result.layer;
  L["scenario.expand_ms"] = median(layers.expand_ms);
  L["scenario.job_ms_p50"] = percentile(job_ms, 0.5);
  L["scenario.job_ms_p99"] = percentile(job_ms, 0.99);
  L["scenario.runner_idle_frac"] = median(layers.runner_idle);
  L["scenario.manifest_bytes"] =
      layers.manifest_bytes / static_cast<double>(layers.runner_idle.size());
  L["scenario.merge_ms"] = median(layers.merge_ms);
  L["swarm.run_ms_p50"] = percentile(layers.run_ms, 0.5);
  L["swarm.run_ms_p99"] = percentile(layers.run_ms, 0.99);
  L["swarm.ticks"] = static_cast<double>(layers.ticks);
  L["fault.messages_lost"] = static_cast<double>(layers.lost);
  L["fault.retries"] = static_cast<double>(layers.retries);
  L["fault.crashes"] = static_cast<double>(layers.crashes);
  const auto space =
      static_cast<double>(std::max<std::uint64_t>(1, count.total));
  L["explore.enum_ns_per_schedule"] = enum_s * 1e9 / space;
  L["explore.visited"] = static_cast<double>(count.visited);
  L["explore.pruned"] = static_cast<double>(count.pruned);
  L["explore.prune_ratio"] = static_cast<double>(count.pruned) / space;
  L["explore.eval_ms_p50"] = percentile(layers.eval_ms, 0.5);
  L["explore.shrink_evals"] = static_cast<double>(layers.shrink_evals);
  const double traced_rate =
      static_cast<double>(runs_per_grid) / median(traced_grid_cpus);
  L["trace.overhead_frac"] = (runs_per_cpu_s - traced_rate) / runs_per_cpu_s;
  return result;
}

}  // namespace perfbench
