#include "baselines/morton.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "sj/reference.hpp"

namespace gsj {

std::uint64_t morton_encode(std::span<const std::uint32_t> cells, int bits) {
  const int dims = static_cast<int>(cells.size());
  GSJ_CHECK(dims >= 1 && bits >= 1 && dims * bits <= 64);
  std::uint64_t code = 0;
  for (int b = 0; b < bits; ++b) {
    for (int d = 0; d < dims; ++d) {
      const std::uint64_t bit = (cells[static_cast<std::size_t>(d)] >> b) & 1u;
      code |= bit << (b * dims + d);
    }
  }
  return code;
}

std::vector<std::uint32_t> morton_decode(std::uint64_t code, int dims,
                                         int bits) {
  GSJ_CHECK(dims >= 1 && bits >= 1 && dims * bits <= 64);
  std::vector<std::uint32_t> cells(static_cast<std::size_t>(dims), 0);
  for (int b = 0; b < bits; ++b) {
    for (int d = 0; d < dims; ++d) {
      const std::uint64_t bit = (code >> (b * dims + d)) & 1u;
      cells[static_cast<std::size_t>(d)] |=
          static_cast<std::uint32_t>(bit << b);
    }
  }
  return cells;
}

namespace {

struct CellEntry {
  std::uint64_t code;
  std::uint32_t begin;
  std::uint32_t end;
};

}  // namespace

CpuJoinOutput morton_self_join(const Dataset& ds, double epsilon,
                               std::size_t nthreads, bool store_pairs) {
  GSJ_CHECK_MSG(epsilon > 0.0, "epsilon must be positive");
  GSJ_CHECK_MSG(!ds.empty(), "empty dataset");

  CpuJoinOutput out;
  const int dims = ds.dims();
  const std::size_t n = ds.size();

  Timer build_timer;
  // Epsilon cells per dimension; bits sized to the largest cell index,
  // which the bounding box gives and which is checked in double: no
  // point's index is larger, so each fits its uint32.
  const auto lo = ds.min_corner();
  const auto hi = ds.max_corner();
  std::uint32_t max_cell = 0;
  std::vector<std::vector<std::uint32_t>> cell_of(
      static_cast<std::size_t>(dims), std::vector<std::uint32_t>(n));
  for (int d = 0; d < dims; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    const double top = std::floor((hi[sd] - lo[sd]) / epsilon);
    GSJ_CHECK_MSG(top <= std::numeric_limits<std::uint32_t>::max(),
                  "epsilon too small: more than 2^32 Morton cells in dimension "
                      << d);
    max_cell = std::max(max_cell, static_cast<std::uint32_t>(top));
    for (std::size_t i = 0; i < n; ++i) {
      cell_of[sd][i] = static_cast<std::uint32_t>(
          std::floor((ds.coord(i, d) - lo[sd]) / epsilon));
    }
  }
  int bits = 1;
  while ((std::uint64_t{1} << bits) <= static_cast<std::uint64_t>(max_cell) + 1) {
    ++bits;
  }
  GSJ_CHECK_MSG(dims * bits <= 64,
                "epsilon too small for the Morton code width");

  // Morton code per point, then sort points along the curve.
  std::vector<std::uint64_t> codes(n);
  std::vector<std::uint32_t> tmp(static_cast<std::size_t>(dims));
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < dims; ++d) {
      tmp[static_cast<std::size_t>(d)] = cell_of[static_cast<std::size_t>(d)][i];
    }
    codes[i] = morton_encode(tmp, bits);
  }
  std::vector<PointId> order(n);
  std::iota(order.begin(), order.end(), PointId{0});
  std::sort(order.begin(), order.end(), [&codes](PointId a, PointId b) {
    return codes[a] != codes[b] ? codes[a] < codes[b] : a < b;
  });

  // Non-empty cell directory, sorted by code (binary searchable).
  std::vector<CellEntry> cells;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::uint64_t code = codes[order[pos]];
    if (cells.empty() || cells.back().code != code) {
      cells.push_back({code, static_cast<std::uint32_t>(pos),
                       static_cast<std::uint32_t>(pos)});
    }
    cells.back().end = static_cast<std::uint32_t>(pos + 1);
  }
  out.stats.build_seconds = build_timer.seconds();

  Timer join_timer;
  const double eps2 = epsilon * epsilon;
  ThreadPool pool(nthreads);
  std::atomic<std::uint64_t> dist_calcs{0};
  const auto join_cells = [&](std::size_t begin_cell, std::size_t end_cell,
                              ResultSet& rs) {
    std::uint64_t calcs = 0;
    std::vector<std::uint32_t> oc(static_cast<std::size_t>(dims));
    std::vector<std::uint32_t> nc(static_cast<std::size_t>(dims));
    std::vector<std::int32_t> off(static_cast<std::size_t>(dims), -1);
    for (std::size_t ci = begin_cell; ci < end_cell; ++ci) {
      const auto ocv = morton_decode(cells[ci].code, dims, bits);
      std::copy(ocv.begin(), ocv.end(), oc.begin());
      // Odometer over the 3^dims adjacent cells.
      std::fill(off.begin(), off.end(), -1);
      for (;;) {
        bool inb = true;
        for (int d = 0; d < dims; ++d) {
          const std::int64_t v = static_cast<std::int64_t>(oc[static_cast<std::size_t>(d)]) +
                                 off[static_cast<std::size_t>(d)];
          if (v < 0 || v > max_cell) {
            inb = false;
            break;
          }
          nc[static_cast<std::size_t>(d)] = static_cast<std::uint32_t>(v);
        }
        if (inb) {
          const std::uint64_t ncode = morton_encode(nc, bits);
          const auto it = std::lower_bound(
              cells.begin(), cells.end(), ncode,
              [](const CellEntry& e, std::uint64_t c) { return e.code < c; });
          if (it != cells.end() && it->code == ncode) {
            for (std::uint32_t i = cells[ci].begin; i < cells[ci].end; ++i) {
              const PointId q = order[i];
              for (std::uint32_t j = it->begin; j < it->end; ++j) {
                const PointId c = order[j];
                ++calcs;
                if (ds.dist2(q, c) <= eps2) rs.emit(q, c);
              }
            }
          }
        }
        int d = dims - 1;
        while (d >= 0) {
          auto& o = off[static_cast<std::size_t>(d)];
          if (++o <= 1) break;
          o = -1;
          --d;
        }
        if (d < 0) break;
      }
    }
    dist_calcs.fetch_add(calcs, std::memory_order_relaxed);
  };
  out.results = collect_pairs(pool, cells.size(), store_pairs, join_cells);
  out.stats.join_seconds = join_timer.seconds();
  out.stats.distance_calcs = dist_calcs.load(std::memory_order_relaxed);
  out.stats.result_pairs = out.results.count();
  return out;
}

}  // namespace gsj
