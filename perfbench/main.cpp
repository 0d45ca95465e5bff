// perfbench: the repository benchmark's driver.
//
//   perfbench --workload sweep|swarm|serve --seed N --seconds S --trace 0|1
//             --workdir DIR [--spans FILE] [--commit SHA] [--tiny]
//             [--corrupt]
//
// Runs one workload for about S seconds inside DIR (which must not exist
// yet), checks every answer it gets, prints a human-readable report and, as
// its last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the gated end-to-end ones;
// with --trace 1 they are the per-layer ones, taken from spans recorded
// around calls into each layer. Exit status is 0 only when every check
// passed. perfbench/run.py builds this binary and is the usual entry point.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "obs/obs.hpp"

namespace perfbench {

void Result::count(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Result::detail(std::string name, double value, std::string unit,
                    std::string note) {
  details.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

void SetupTimer::report(Result& result, const std::string& what) const {
  result.e2e["setup_s"] = median(cpu_s_);
  result.detail("setup_s", result.e2e["setup_s"], "s",
                what + ", CPU time, median of " +
                    std::to_string(cpu_s_.size()) + " (min " +
                    std::to_string(percentile(cpu_s_, 0.0)) + ", max " +
                    std::to_string(max_of(cpu_s_)) + ")");
  result.detail("setup.wall_s", median(wall_s_), "s",
                "wall time, median of " + std::to_string(wall_s_.size()));
}

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec now{};
  ::clock_gettime(clock, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

std::string tail_note(const std::vector<double>& samples, double q) {
  const double value = percentile(samples, q);
  const auto beyond = std::count_if(samples.begin(), samples.end(),
                                    [&](double x) { return x > value; });
  std::ostringstream out;
  out << 'p' << std::lround(q * 100) << " of n=" << samples.size() << ", "
      << beyond << " beyond";
  return out.str();
}

double max_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::max_element(samples.begin(), samples.end());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

namespace {

double cpu_mhz() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu MHz", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return std::strtod(line.c_str() + colon + 1, nullptr);
      }
    }
  }
  return 0.0;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string machine_json(const Options& options) {
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"threads\":" << options.threads
      << ",\"cpu_mhz\":" << number(cpu_mhz()) << ",\"compiler\":\""
      << json_escape(PERFBENCH_COMPILER) << "\",\"build_type\":\""
      << PERFBENCH_BUILD_TYPE
      // The build always uses the repository defaults (CMakeLists.txt).
      << "\",\"dsa_trace\":\"ON\",\"dsa_native\":\"OFF\",\"commit\":\""
      << json_escape(options.commit) << "\"}";
  return out.str();
}

const std::vector<LayerMetric>& end_to_end_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"ops_per_cpu_s", "1/s"},  {"p50_cpu_ms", "ms"},
      {"tail_cpu_ms", "ms"},
  };
  return metrics;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"swarming.sims", "count"},
      {"swarming.homogeneous_calls", "count"},
      {"swarming.mixed_calls", "count"},
      {"swarming.sim_us_p50", "us"},
      {"swarming.sim_us_p99", "us"},
      {"swarming.busy_s", "s"},
      {"core.quantify_s", "s"},
      {"core.pool_idle_frac", "ratio"},
      {"core.chunk_tail_ms", "ms"},
      {"core.scaling_eff", "ratio"},
      {"swarming.checkpoint_save_ms", "ms"},
      {"swarming.dataset_save_ms", "ms"},
      {"swarming.dataset_bytes", "bytes"},
      {"scenario.expand_ms", "ms"},
      {"scenario.job_ms_p50", "ms"},
      {"scenario.job_ms_p99", "ms"},
      {"scenario.runner_idle_frac", "ratio"},
      {"scenario.manifest_bytes", "bytes"},
      {"scenario.merge_ms", "ms"},
      {"swarm.run_ms_p50", "ms"},
      {"swarm.run_ms_p99", "ms"},
      {"swarm.ticks", "count"},
      {"fault.messages_lost", "count"},
      {"fault.retries", "count"},
      {"fault.crashes", "count"},
      {"explore.enum_ns_per_schedule", "ns"},
      {"explore.visited", "count"},
      {"explore.pruned", "count"},
      {"explore.prune_ratio", "ratio"},
      {"explore.eval_ms_p50", "ms"},
      {"explore.shrink_evals", "count"},
      {"serve.store_load_ms", "ms"},
      {"serve.cache_lookup_us", "us"},
      {"serve.cache_insert_us", "us"},
      {"serve.hits", "count"},
      {"serve.misses", "count"},
      {"serve.jobs_executed", "count"},
      {"util.socket_rtt_us", "us"},
      {"trace.overhead_frac", "ratio"},
      {"trace.spans", "count"},
  };
  return metrics;
}

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload sweep|swarm|serve "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--spans FILE] "
               "[--commit SHA] [--tiny] [--corrupt]\n",
               message.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed" || arg == "--seconds") {
      const std::string text = value();
      char* end = nullptr;
      if (arg == "--seed") {
        options.seed = std::strtoull(text.c_str(), &end, 10);
      } else {
        options.seconds = std::strtod(text.c_str(), &end);
      }
      if (text.empty() || *end != '\0') usage(arg + " needs a number");
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--workdir") {
      options.workdir = value();
      have_workdir = true;
    } else if (arg == "--spans") {
      options.spans_path = value();
    } else if (arg == "--commit") {
      options.commit = value();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--corrupt") {
      options.corrupt = true;
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (options.workload != "sweep" && options.workload != "swarm" &&
      options.workload != "serve") {
    usage("--workload must be sweep, swarm or serve");
  }
  if (!have_workdir) usage("--workdir is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  return options;
}

/// Observability stays off in every measured run: the switches the library
/// reads from the environment are pinned off before any library call.
void pin_observability_off() {
  for (const char* name : {"DSA_STATUS", "DSA_PROF", "DSA_RECORD"}) {
    ::setenv(name, "off", 1);
  }
  ::setenv("DSA_METRICS", "0", 1);
  dsa::obs::set_enabled(false);
  if (dsa::obs::enabled()) {
    throw std::logic_error("observability is on in a timed run");
  }
}

std::string metrics_json(const std::map<std::string, double>& values,
                         const std::vector<LayerMetric>& names) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = values.find(names[i].name);
    out << (i == 0 ? "" : ", ") << '"' << names[i].name
        << "\": {\"value\": "
        << number(it == values.end() ? 0.0 : it->second)
        << ", \"unit\": \"" << names[i].unit << "\"}";
  }
  out << '}';
  return out.str();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  std::error_code exists_error;
  if (std::filesystem::exists(options.workdir, exists_error)) {
    std::fprintf(stderr, "perfbench: run directory %s already exists\n",
                 options.workdir.string().c_str());
    return 2;
  }
  std::filesystem::path spans_path = options.spans_path;
  if (!spans_path.empty()) spans_path = std::filesystem::absolute(spans_path);
  Result result;
  Tracer tracer(options.trace);
  try {
    pin_observability_off();
    std::filesystem::create_directories(options.workdir);
    // Every output, checkpoint, manifest, socket and store the run makes is
    // relative to the run directory (this also keeps socket paths short).
    std::filesystem::current_path(options.workdir);
    if (options.workload == "sweep") {
      result = run_sweep(options, tracer);
    } else if (options.workload == "swarm") {
      result = run_swarm(options, tracer);
    } else {
      result = run_serve(options, tracer);
    }
    if (dsa::obs::enabled()) {
      result.count(false, "observability switched on during the run");
    }
  } catch (const std::exception& error) {
    result.count(false, std::string("run aborted: ") + error.what());
  }

  rusage usage_now{};
  ::getrusage(RUSAGE_SELF, &usage_now);
  result.e2e["peak_rss_mb"] = static_cast<double>(usage_now.ru_maxrss) / 1024;
  if (options.trace) {
    result.layer["trace.spans"] = static_cast<double>(tracer.spans().size());
  }

  const std::string machine = machine_json(options);
  std::printf("machine %s\n", machine.c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const Detail& d : result.details) {
    std::printf("  %-28s %14.6g %-6s %s\n", d.name.c_str(), d.value,
                d.unit.c_str(), d.note.c_str());
  }
  std::printf("  %-28s %14.6g %-6s %s\n", "ops_failed_frac",
              result.attempted == 0
                  ? 1.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
              "ratio",
              (std::to_string(result.failed) + " of " +
               std::to_string(result.attempted) + " operations and checks")
                  .c_str());
  if (options.trace) {
    for (const LayerMetric& m : layer_metrics()) {
      std::printf("  layer %-32s %14.6g %s\n", m.name, result.layer[m.name],
                  m.unit);
    }
    // Per-span-name totals; self time excludes what child spans cover.
    for (const auto& [name, t] : tracer.totals()) {
      std::printf("  span  %-32s n=%-8zu total %.6f s  self %.6f s\n",
                  name.c_str(), t.count, t.total_s, t.self_s);
    }
    if (!spans_path.empty()) {
      try {
        tracer.write(spans_path, "{\"workload\":\"" + options.workload +
                                     "\",\"seed\":" +
                                     std::to_string(options.seed) +
                                     ",\"machine\":" + machine + "}");
        std::printf("spans -> %s\n", spans_path.string().c_str());
      } catch (const std::exception& error) {
        result.count(false, error.what());
      }
    }
  }
  for (const std::string& failure : result.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  if (result.attempted == 0) result.count(false, "no operation attempted");
  const bool correct = result.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", result.attempted, result.failed,
      options.trace ? metrics_json(result.layer, layer_metrics()).c_str()
                    : metrics_json(result.e2e, end_to_end_metrics()).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
