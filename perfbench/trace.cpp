#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::uint64_t t_current = 0;
thread_local std::uint64_t t_op = 0;

std::atomic<std::uint64_t> g_next_op{1};

}  // namespace

std::uint64_t next_op_id() { return g_next_op.fetch_add(1); }

Tracer::Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

std::uint64_t Tracer::next_id() {
  if (!on_) return 0;
  std::lock_guard lock(mutex_);
  return next_++;
}

void Tracer::record(const Span& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::self_seconds() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      all.size());
  for (const Span& span : all) {
    const auto parent = index.find(span.parent);
    if (parent != index.end()) {
      children[parent->second].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t run_start = 0, run_end = -1;
    for (auto [start, end] : kids) {
      start = std::max(start, all[i].start_ns);
      end = std::min(end, all[i].end_ns);
      if (end <= start) continue;
      if (start > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = static_cast<double>(all[i].end_ns - all[i].start_ns - covered) /
              1e9;
  }
  return self;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_seconds();
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    SpanTotals& t = out[all[i].name];
    ++t.count;
    t.total_s += static_cast<double>(all[i].end_ns - all[i].start_ns) / 1e9;
    t.self_s += self[i];
  }
  return out;
}

void Tracer::write(const std::filesystem::path& path,
                   const std::string& header_json) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_seconds();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << header_json << '\n';
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"thread\":" << s.thread << ",\"start_us\":"
        << static_cast<double>(s.start_ns) / 1e3
        << ",\"end_us\":" << static_cast<double>(s.end_ns) / 1e3
        << ",\"self_us\":" << self[i] * 1e6 << "}\n";
  }
  if (!out) throw std::runtime_error("short write to " + path.string());
}

std::uint32_t Tracer::thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

Scope::Scope(Tracer& tracer, const char* name, std::uint64_t parent,
             std::uint64_t op)
    : tracer_(tracer) {
  if (!tracer_.on()) return;
  span_.name = name;
  span_.id = tracer_.next_id();
  span_.parent = parent == kInherit ? t_current : parent;
  span_.op = op == kInherit ? t_op : op;
  span_.thread = Tracer::thread_index();
  saved_current_ = t_current;
  saved_op_ = t_op;
  t_current = span_.id;
  t_op = span_.op;
  span_.start_ns = tracer_.now_ns();
}

Scope::~Scope() {
  if (!tracer_.on()) return;
  span_.end_ns = tracer_.now_ns();
  t_current = saved_current_;
  t_op = saved_op_;
  tracer_.record(span_);
}

}  // namespace perfbench
