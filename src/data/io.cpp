#include "data/io.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "common/check.hpp"

namespace gsj {

namespace {
constexpr char kMagic[4] = {'G', 'S', 'J', 'D'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& f) {
  T v{};
  f.read(reinterpret_cast<char*>(&v), sizeof(T));
  GSJ_CHECK_MSG(f.good(), "truncated dataset file");
  return v;
}

/// The whole cell (surrounding blanks aside) as a finite double, or
/// nullopt. NaN or ±inf would reach the grid's floor→int cell math.
std::optional<double> parse_coordinate(const std::string& cell) {
  const char* begin = cell.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  while (*end != '\0' && std::isspace(static_cast<unsigned char>(*end))) ++end;
  if (*end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}
}  // namespace

void save_binary(const Dataset& ds, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  GSJ_CHECK_MSG(f.good(), "cannot open " << path);
  f.write(kMagic, 4);
  write_pod(f, kVersion);
  write_pod(f, static_cast<std::uint32_t>(ds.dims()));
  write_pod(f, static_cast<std::uint64_t>(ds.size()));
  for (int d = 0; d < ds.dims(); ++d) {
    const auto col = ds.dim(d);
    f.write(reinterpret_cast<const char*>(col.data()),
            static_cast<std::streamsize>(col.size() * sizeof(double)));
  }
  GSJ_CHECK_MSG(f.good(), "write failed: " << path);
}

Dataset load_binary(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  GSJ_CHECK_MSG(f.good(), "cannot open " << path);
  char magic[4];
  f.read(magic, 4);
  GSJ_CHECK_MSG(f.good() && std::memcmp(magic, kMagic, 4) == 0,
                "bad magic in " << path);
  const auto version = read_pod<std::uint32_t>(f);
  GSJ_CHECK_MSG(version == kVersion, "unsupported version " << version);
  const auto dims = read_pod<std::uint32_t>(f);
  const auto n = read_pod<std::uint64_t>(f);
  GSJ_CHECK_MSG(dims >= 1 && dims <= 16, "bad dims " << dims);
  // The header is untrusted: size nothing from it before the file is
  // known to hold that many coordinates.
  const std::streamoff body_begin = f.tellg();
  f.seekg(0, std::ios::end);
  const std::streamoff body_end = f.tellg();
  f.seekg(body_begin);
  GSJ_CHECK_MSG(f.good() && body_begin >= 0 && body_end >= body_begin,
                "cannot size dataset file " << path);
  const auto body_bytes = static_cast<std::uint64_t>(body_end - body_begin);
  GSJ_CHECK_MSG(n <= body_bytes / (std::uint64_t{dims} * sizeof(double)),
                "dataset header of " << path << " claims " << n << " points x "
                                     << dims << " dims, but the file holds "
                                     << body_bytes << " bytes of coordinates");
  Dataset ds(static_cast<int>(dims), static_cast<std::size_t>(n));
  for (std::uint32_t d = 0; d < dims; ++d) {
    auto col = ds.fill_dim(static_cast<int>(d));
    f.read(reinterpret_cast<char*>(col.data()),
           static_cast<std::streamsize>(col.size() * sizeof(double)));
    GSJ_CHECK_MSG(f.good(), "truncated dataset file " << path);
    for (std::size_t i = 0; i < col.size(); ++i) {
      GSJ_CHECK_MSG(std::isfinite(col[i]),
                    path << ": point " << i << " dimension " << d
                         << " coordinate " << col[i]
                         << " is not a finite number");
    }
  }
  return ds;
}

Dataset load_csv(const std::string& path, int dims) {
  std::ifstream f(path);
  GSJ_CHECK_MSG(f.good(), "cannot open " << path);
  Dataset ds(dims);
  std::string line;
  std::vector<double> row(static_cast<std::size_t>(dims));
  std::uint64_t line_no = 0;
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string cell;
    for (int d = 0; d < dims; ++d) {
      GSJ_CHECK_MSG(std::getline(ls, cell, ','),
                    path << ":" << line_no << ": row with <" << dims
                         << " columns");
      const std::optional<double> v = parse_coordinate(cell);
      GSJ_CHECK_MSG(v.has_value(), path << ":" << line_no << ": column "
                                        << d + 1 << " '" << cell
                                        << "' is not a finite number");
      row[static_cast<std::size_t>(d)] = *v;
    }
    ds.push_back(row);
  }
  return ds;
}

void save_csv(const Dataset& ds, const std::string& path) {
  std::ofstream f(path);
  GSJ_CHECK_MSG(f.good(), "cannot open " << path);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (int d = 0; d < ds.dims(); ++d) {
      if (d) f << ',';
      f << ds.coord(i, d);
    }
    f << '\n';
  }
}

}  // namespace gsj
