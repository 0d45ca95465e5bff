#include "serve/cache.hpp"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>
#include <utility>

#include "util/fingerprint.hpp"
#include "util/json.hpp"

namespace dsa::serve {

namespace json = util::json;
using scenario::JobRows;

scenario::Plan canonical_plan(const scenario::ScenarioSpec& spec) {
  if (spec.kind != scenario::Kind::kSweep) return expand_plan(spec);
  scenario::ScenarioSpec canon = spec;
  for (scenario::Axis& axis : canon.axes) {
    if (axis.name == "engine") {
      axis.values = {scenario::ParamValue(std::string("sparse"))};
    }
  }
  return expand_plan(canon);
}

std::uint64_t rows_check(const JobRows& rows) {
  util::Fingerprint fp(0x7e3d91c5a60b48f2ULL);
  fp.mix(static_cast<std::uint64_t>(rows.size()));
  for (const std::vector<std::string>& row : rows) {
    fp.mix(static_cast<std::uint64_t>(row.size()));
    for (const std::string& cell : row) fp.mix(cell);
  }
  return fp.value();
}

namespace {

void put_size(std::string& out, std::size_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::size_t take_size(std::string_view& in) {
  std::size_t value = 0;
  std::memcpy(&value, in.data(), sizeof(value));
  in.remove_prefix(sizeof(value));
  return value;
}

/// Rows packed into one buffer: the row count, then per row its cell count
/// and per cell its length and bytes. A resident entry is one allocation
/// instead of one per row and per long cell, about a third of the
/// unpacked footprint; lookups rebuild the rows, which allocates no more
/// than copying them would.
std::string pack_rows(const JobRows& rows) {
  std::size_t bytes = sizeof(std::size_t);
  for (const std::vector<std::string>& row : rows) {
    bytes += sizeof(std::size_t);
    for (const std::string& cell : row) {
      bytes += sizeof(std::size_t) + cell.size();
    }
  }
  std::string packed;
  packed.reserve(bytes);
  put_size(packed, rows.size());
  for (const std::vector<std::string>& row : rows) {
    put_size(packed, row.size());
    for (const std::string& cell : row) {
      put_size(packed, cell.size());
      packed += cell;
    }
  }
  return packed;
}

JobRows unpack_rows(std::string_view packed) {
  JobRows rows(take_size(packed));
  for (std::vector<std::string>& row : rows) {
    row.resize(take_size(packed));
    for (std::string& cell : row) {
      const std::size_t size = take_size(packed);
      cell.assign(packed.data(), size);
      packed.remove_prefix(size);
    }
  }
  return rows;
}

/// Resident footprint of an entry: the packed rows plus the LRU list and
/// index nodes. It drives eviction, never correctness.
std::size_t entry_cost(const std::string& packed) {
  return 128 + packed.size();
}

/// One store line: the manifest job-line schema plus the "check" content
/// hash ("job" is fixed at 0 — the cache addresses by fingerprint alone).
std::string store_line(std::uint64_t fingerprint, const JobRows& rows,
                       double wall_ms) {
  std::string line = "{\"job\":0,\"fp\":\"" + scenario::hex16(fingerprint) +
                     "\",\"ms\":" + util::exact_number(wall_ms) +
                     ",\"check\":\"" + scenario::hex16(rows_check(rows)) +
                     "\",\"rows\":[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) line += ',';
    line += '[';
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) line += ',';
      line += '"' + json::escape(rows[r][c]) + '"';
    }
    line += ']';
  }
  line += "]}";
  return line;
}

/// Parses a 16-lowercase-hex fingerprint; nullopt on any other shape.
std::optional<std::uint64_t> parse_hex16(const std::string& text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char ch : text) {
    value <<= 4;
    if (ch >= '0' && ch <= '9') {
      value |= static_cast<std::uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      value |= static_cast<std::uint64_t>(ch - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return value;
}

}  // namespace

ResultCache::ResultCache(Options options) : options_(std::move(options)) {
  if (!options_.store_path.empty()) {
    load_store();
    const std::filesystem::path parent = options_.store_path.parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    store_.open(options_.store_path, std::ios::binary | std::ios::app);
    if (!store_) {
      throw std::runtime_error("cannot open cache store for append: " +
                               options_.store_path.string());
    }
  }
}

void ResultCache::load_store() {
  std::ifstream in(options_.store_path, std::ios::binary);
  if (!in) return;  // first start — nothing persisted yet
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();

  std::size_t pos = 0;
  while (pos < contents.size()) {
    const std::size_t newline = contents.find('\n', pos);
    if (newline == std::string::npos) {
      // Torn tail: the daemon was killed mid-append. The complete lines
      // before it are still good.
      ++stats_.store_rejected;
      break;
    }
    const std::string line = contents.substr(pos, newline - pos);
    pos = newline + 1;
    json::Value value;
    try {
      value = json::parse(line, "<cache-store>");
    } catch (const std::exception&) {
      ++stats_.store_rejected;
      continue;
    }
    std::optional<scenario::ParsedJobLine> parsed =
        scenario::parse_job_line(value);
    if (!parsed) {
      ++stats_.store_rejected;
      continue;
    }
    const std::optional<std::uint64_t> fp = parse_hex16(parsed->fp_hex);
    if (!fp) {
      ++stats_.store_rejected;
      continue;
    }
    const json::Value* check = value.find("check");
    if (check == nullptr || check->type != json::Value::Type::kString ||
        check->text != scenario::hex16(rows_check(parsed->rows))) {
      // Missing or mismatched content hash: the rows were altered after
      // being written (or the line predates the schema). Never served.
      ++stats_.store_rejected;
      continue;
    }
    insert_locked(*fp, parsed->rows, parsed->ms, /*persist=*/false);
    ++stats_.store_loaded;
  }
  // Loading counted each line as an insert; those are restorations, not new
  // work, so only explicit insert() calls show up in the insert counter.
  stats_.inserts = 0;
  stats_.evictions = 0;
}

std::optional<JobRows> ResultCache::lookup(std::uint64_t fingerprint) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(fingerprint);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return unpack_rows(it->second->packed);
}

void ResultCache::insert(std::uint64_t fingerprint, const JobRows& rows,
                         double wall_ms) {
  std::lock_guard lock(mutex_);
  insert_locked(fingerprint, rows, wall_ms, /*persist=*/true);
}

void ResultCache::insert_locked(std::uint64_t fingerprint,
                                const JobRows& rows, double wall_ms,
                                bool persist) {
  const auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    // Determinism makes re-inserts byte-identical; just bump recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (persist && store_.is_open()) {
    store_ << store_line(fingerprint, rows, wall_ms) << '\n';
    store_.flush();
  }
  std::string packed = pack_rows(rows);
  const std::size_t cost = entry_cost(packed);
  lru_.push_front(Entry{fingerprint, std::move(packed), cost});
  index_[fingerprint] = lru_.begin();
  bytes_ += cost;
  ++stats_.inserts;
  while (bytes_ > options_.memory_budget_bytes && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.cost;
    index_.erase(victim.fingerprint);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard lock(mutex_);
  Stats out = stats_;
  out.entries = lru_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace dsa::serve
