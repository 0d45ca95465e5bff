// Span recording for the benchmark's traced run.
//
// Every span is taken in the benchmark's own code, around a call into one
// layer's public functions; nothing under src/ is instrumented. A span
// carries its name, start, end, parent span and the id of the operation it
// belongs to (a sweep, a scenario job, a query). Spans stay in memory and
// are written once, after the measured work, so recording costs one clock
// read and one locked vector append per boundary.
//
// Self time of a span is its duration minus the part of its interval that
// its children cover (overlapping children, e.g. simulations on four pool
// workers, count once).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;   // small per-process thread index
};

/// Aggregate of every span of one name.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and reads no clock.
  explicit Tracer(bool on);

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Allocates a span id (0 when disabled).
  [[nodiscard]] std::uint64_t next_id();

  /// Stores a finished span.
  void record(const Span& span);

  [[nodiscard]] std::int64_t now_ns() const;

  /// Every recorded span, in recording order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Per-name totals with self time derived from the parent links.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Self time of every span, indexed like spans().
  [[nodiscard]] std::vector<double> self_seconds() const;

  /// One JSON document per line: a header, then one line per span.
  void write(const std::filesystem::path& path,
             const std::string& header_json) const;

  /// Small stable index of the calling thread.
  static std::uint32_t thread_index();

 private:
  bool on_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_ = 1;
};

/// RAII span. Nests under the calling thread's current span unless a parent
/// is given explicitly (work handed to pool threads names its parent).
class Scope {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  Scope(Tracer& tracer, const char* name, std::uint64_t parent = kInherit,
        std::uint64_t op = kInherit);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  [[nodiscard]] std::uint64_t op() const noexcept { return span_.op; }

 private:
  Tracer& tracer_;
  Span span_;
  std::uint64_t saved_current_ = 0;
  std::uint64_t saved_op_ = 0;
};

/// Allocates a fresh operation id (shared by all spans of one operation).
std::uint64_t next_op_id();

}  // namespace perfbench
