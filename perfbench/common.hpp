// Shared plumbing of the benchmark driver: options, the per-run result
// (operations attempted/failed plus metrics), sample statistics, and the
// machine block every result carries.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seconds-scale inputs for the benchmark's own tests.
  bool tiny = false;
  /// Test hook: alter one answer before it is checked, so the run must
  /// report a failure.
  bool corrupt = false;
  /// Fresh per-run directory; the driver refuses one that already exists.
  std::filesystem::path workdir;
  /// Span file of a traced run.
  std::filesystem::path spans_path;
  std::string commit = "unknown";
  std::size_t threads = 1;
};

/// One metric line of the human-readable report.
struct Detail {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  /// Gated end-to-end metrics (BENCHMARK.json "end_to_end"), by name.
  std::map<std::string, double> e2e;
  /// The workload's own end-to-end figures under their descriptive names.
  std::vector<Detail> details;
  /// Per-layer metrics (BENCHMARK.json "per_layer"), by name.
  std::map<std::string, double> layer;

  /// Counts one operation or correctness check; a false `ok` is a failure.
  void count(bool ok, const std::string& what);
  void detail(std::string name, double value, std::string unit,
              std::string note = "");
};

/// Paces a run's measured loop: the first iteration always runs; another
/// starts only if it is expected (from the last one's length) to end within
/// the run's seconds.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds), start_(Clock::now()) {}
  /// True when one more iteration fits; call once before each iteration.
  bool next() {
    const auto now = Clock::now();
    if (iterations_ > 0) last_s_ = seconds_between(last_start_, now);
    const bool go = iterations_ == 0 ||
                    seconds_between(start_, now) + last_s_ <= seconds_;
    last_start_ = now;
    if (go) ++iterations_;
    return go;
  }
 private:
  double seconds_;
  Clock::time_point start_, last_start_;
  double last_s_ = 0.0;
  std::size_t iterations_ = 0;
};

/// CPU time used so far by every thread of this process, in seconds. The
/// gated timings are CPU times, not wall times: this clock leaves out the
/// time threads wait for a core, whether the guest's scheduler or (steal
/// time, on a paravirtualised guest) the host hands it to someone else.
/// Runs that shared the machine with other load read 1.5-2x the wall time
/// but within a tenth of the CPU time. Wall times are reported beside them.
double process_cpu_s();
/// CPU time used so far by the calling thread, in seconds.
double thread_cpu_s();

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double max_of(const std::vector<double>& samples);
/// "pNN of n=N, K beyond": names a tail percentile with its sample count
/// and the samples that lie beyond it.
std::string tail_note(const std::vector<double>& samples, double q);

/// Reads a whole file; throws when it cannot.
std::string read_file(const std::filesystem::path& path);

/// Deterministic 64-bit mix of a seed and a stream index.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Bitwise equality of two doubles.
bool same_bits(double a, double b);

/// The JSON machine block: nproc, CPU MHz, compiler, build type,
/// DSA_TRACE/DSA_NATIVE, commit.
std::string machine_json(const Options& options);

/// Per-layer metric names and units, in report order. Every traced run
/// prints all of them; a layer the workload does not reach reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Gated end-to-end metric names and units.
const std::vector<LayerMetric>& end_to_end_metrics();

/// Set-up timings of one run; the median of their CPU times is the run's
/// setup_s. A set-up is a short single-threaded burst, and its CPU time
/// swings by up to 2x with the host's load from one moment to the next, so
/// sweep and swarm spread their set-ups over the run.
class SetupTimer {
 public:
  template <typename Fn>
  void time(Fn&& fn) {
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    fn(static_cast<int>(cpu_s_.size()));
    cpu_s_.push_back(process_cpu_s() - cpu0);
    wall_s_.push_back(seconds_between(t0, Clock::now()));
  }
  /// Records setup_s and its report lines.
  void report(Result& result, const std::string& what) const;

 private:
  std::vector<double> cpu_s_, wall_s_;
};

/// Set-ups timed before the measured loop, and (sweep, swarm) before each
/// of its iterations.
constexpr int kSetupsAtStart = 8;
constexpr int kSetupsPerIteration = 2;

Result run_sweep(const Options& options, Tracer& tracer);
Result run_swarm(const Options& options, Tracer& tracer);
Result run_serve(const Options& options, Tracer& tracer);

}  // namespace perfbench
