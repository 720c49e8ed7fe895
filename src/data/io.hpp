// Binary and CSV dataset persistence, so benches can cache generated
// inputs and users can load their own point sets.
#pragma once

#include <string>

#include "data/dataset.hpp"

namespace gsj {

/// Writes a dataset in a simple self-describing little-endian binary
/// format: magic "GSJD", u32 version, u32 dims, u64 n, then n*dims
/// float64 values in SoA order.
void save_binary(const Dataset& ds, const std::string& path);

/// Loads a dataset written by save_binary. Throws CheckError on a
/// malformed file, including a header whose point count the file is
/// too short to hold (checked before anything is allocated).
[[nodiscard]] Dataset load_binary(const std::string& path);

/// Loads a headerless CSV of `dims` comma-separated coordinates per
/// line. Blank lines are skipped. Each cell must be one finite number
/// (blanks around it allowed); anything else — trailing text, NaN,
/// infinities, an empty cell — throws CheckError naming the path and
/// line.
[[nodiscard]] Dataset load_csv(const std::string& path, int dims);

/// Writes one comma-separated row per point.
void save_csv(const Dataset& ds, const std::string& path);

}  // namespace gsj
