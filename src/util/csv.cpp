#include "util/csv.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/fs.hpp"

namespace dsa::util {

namespace {

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

/// Rejects the characters the writer cannot represent (',', '"', '\n',
/// '\r') in one pass: all four are below 64, so one shift of a bit mask
/// tests each byte.
void validate_field(const std::string& field) {
  constexpr std::uint64_t kUnsupported =
      (1ULL << ',') | (1ULL << '"') | (1ULL << '\n') | (1ULL << '\r');
  for (const char c : field) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 64 && ((kUnsupported >> byte) & 1) != 0) {
      throw std::invalid_argument(
          "CsvTable: field contains unsupported char: " + field);
    }
  }
}

}  // namespace

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  for (const auto& name : header_) validate_field(name);
}

std::size_t CsvTable::column(const std::string& name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  throw std::out_of_range("CsvTable: no column named '" + name + "'");
}

void CsvTable::add_row(std::vector<std::string> fields) {
  if (fields.size() != header_.size()) {
    throw std::invalid_argument("CsvTable: row width " +
                                std::to_string(fields.size()) +
                                " != header width " +
                                std::to_string(header_.size()));
  }
  for (const auto& field : fields) validate_field(field);
  rows_.push_back(std::move(fields));
}

const std::string& CsvTable::at(std::size_t row, const std::string& col) const {
  return rows_.at(row).at(column(col));
}

double CsvTable::number_at(std::size_t row, const std::string& col) const {
  const std::string& text = at(row, col);
  try {
    return std::stod(text);
  } catch (const std::exception&) {
    throw std::invalid_argument("CsvTable: field '" + text +
                                "' is not numeric");
  }
}

std::string CsvTable::to_csv() const {
  std::string text;
  auto write_row = [&text](const std::vector<std::string>& fields) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i) text += ',';
      text += fields[i];
    }
    text += '\n';
  };
  write_row(header_);
  for (const auto& row : rows_) write_row(row);
  return text;
}

void CsvTable::save(const std::filesystem::path& path) const {
  // Rendered in memory and handed to atomic_write (write `<path>.tmp`,
  // rename) so readers and checkpoint resumers never observe a
  // half-written table.
  atomic_write(path, to_csv());
}

CsvTable CsvTable::load(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("CsvTable: cannot open for read: " +
                             path.string());
  }
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("CsvTable: empty file: " + path.string());
  }
  CsvTable table(split_line(line));
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    table.add_row(split_line(line));
  }
  return table;
}

std::string format_number(double value) {
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, 10);
  if (ec != std::errc{}) return "nan";
  return std::string(buffer, ptr);
}

}  // namespace dsa::util
