// Unit tests: Dataset container (including non-finite coordinate
// rejection and concurrent corner reads), generators (distribution
// properties, determinism, Table I registry), binary/CSV IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"

namespace gsj {
namespace {

TEST(Dataset, PushBackAndAccess) {
  Dataset ds(3);
  const double p0[] = {1.0, 2.0, 3.0};
  const double p1[] = {4.0, 5.0, 6.0};
  ds.push_back(p0);
  ds.push_back(p1);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_DOUBLE_EQ(ds.coord(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ds.coord(1, 2), 6.0);
  EXPECT_DOUBLE_EQ(ds.dist2(0, 1), 27.0);
}

TEST(Dataset, MinMaxCorners) {
  Dataset ds(2);
  const double a[] = {1.0, 9.0};
  const double b[] = {5.0, -2.0};
  ds.push_back(a);
  ds.push_back(b);
  EXPECT_EQ(ds.min_corner(), (std::vector<double>{1.0, -2.0}));
  EXPECT_EQ(ds.max_corner(), (std::vector<double>{5.0, 9.0}));
}

TEST(Dataset, PermutedReordersPoints) {
  Dataset ds(1);
  for (double v : {10.0, 20.0, 30.0}) ds.push_back({&v, 1});
  const std::vector<PointId> perm{2, 0, 1};
  const Dataset p = ds.permuted(perm);
  EXPECT_DOUBLE_EQ(p.coord(0, 0), 30.0);
  EXPECT_DOUBLE_EQ(p.coord(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(p.coord(2, 0), 20.0);
}

TEST(Dataset, DimsValidated) {
  EXPECT_THROW(Dataset(0), CheckError);
  EXPECT_THROW(Dataset(17), CheckError);
}

/// Message of the CheckError `f` throws, or "" when it throws none.
template <typename F>
std::string check_error(F&& f) {
  try {
    f();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

TEST(Dataset, InsertRejectsNonFiniteCoordinates) {
  Dataset ds(2);
  const double ok[] = {1.0, 2.0};
  ds.push_back(ok);
  const std::uint64_t gen = ds.generation();
  for (const double bad : kNonFinite) {
    const double p[] = {3.0, bad};
    const std::string msg = check_error([&] { (void)ds.insert(p); });
    EXPECT_NE(msg.find("point 1 dimension 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("not a finite number"), std::string::npos) << msg;
    EXPECT_THROW(ds.push_back(p), CheckError);
  }
  // Nothing was appended, counted as a mutation or folded into the bbox.
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.generation(), gen);
  EXPECT_EQ(ds.max_corner(), (std::vector<double>{1.0, 2.0}));
}

TEST(Dataset, MoveAndSetCoordRejectNonFiniteCoordinates) {
  Dataset ds(2);
  const double a[] = {1.0, 2.0};
  const double b[] = {3.0, 4.0};
  ds.push_back(a);
  ds.push_back(b);
  const std::uint64_t gen = ds.generation();
  for (const double bad : kNonFinite) {
    const double p[] = {bad, 0.0};
    std::string msg = check_error([&] { ds.move_point(1, p); });
    EXPECT_NE(msg.find("point 1 dimension 0"), std::string::npos) << msg;
    msg = check_error([&] { ds.set_coord(0, 1, bad); });
    EXPECT_NE(msg.find("point 0 dimension 1"), std::string::npos) << msg;
  }
  EXPECT_EQ(ds.generation(), gen);
  EXPECT_EQ(ds.coord(0, 1), 2.0);
  EXPECT_EQ(ds.coord(1, 0), 3.0);
}

TEST(Dataset, ConcurrentCornerReadsAgree) {
  // Concurrent const readers of a never-mutated dataset, as when
  // service workers build grids for different ε at once: corner reads
  // must not write a cache another reader is reading.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Dataset ds = gen_uniform(20'000, 3, seed, -1.0, 1.0);
    std::vector<double> lo(3), hi(3);
    for (int d = 0; d < 3; ++d) {
      const auto col = ds.dim(d);
      lo[static_cast<std::size_t>(d)] = *std::min_element(col.begin(), col.end());
      hi[static_cast<std::size_t>(d)] = *std::max_element(col.begin(), col.end());
    }
    std::atomic<int> wrong{0};
    std::latch go(4);
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&] {
        go.arrive_and_wait();  // first reads overlap as far as possible
        for (int i = 0; i < 4; ++i) {
          if (ds.min_corner() != lo || ds.max_corner() != hi) ++wrong;
        }
      });
    }
    for (auto& r : readers) r.join();
    EXPECT_EQ(wrong.load(), 0) << "seed " << seed;
  }
}

TEST(Generators, UniformBoundsAndMean) {
  const Dataset ds = gen_uniform(20000, 3, 11);
  ASSERT_EQ(ds.size(), 20000u);
  for (int d = 0; d < 3; ++d) {
    const Summary s = summarize(ds.dim(d));
    EXPECT_GE(s.min, 0.0);
    EXPECT_LT(s.max, 100.0);
    EXPECT_NEAR(s.mean, 50.0, 1.5);
  }
}

TEST(Generators, ExponentialIsSkewedTowardOrigin) {
  const Dataset ds = gen_exponential(20000, 2, 12);
  for (int d = 0; d < 2; ++d) {
    const Summary s = summarize(ds.dim(d));
    EXPECT_GE(s.min, 0.0);
    // Exp(40): mean 1/40, median ln(2)/40.
    EXPECT_NEAR(s.mean, 0.025, 0.002);
    EXPECT_NEAR(s.median, std::log(2.0) / 40.0, 0.002);
  }
}

TEST(Generators, DeterministicPerSeed) {
  const Dataset a = gen_exponential(100, 4, 99);
  const Dataset b = gen_exponential(100, 4, 99);
  const Dataset c = gen_exponential(100, 4, 100);
  EXPECT_DOUBLE_EQ(a.coord(50, 2), b.coord(50, 2));
  EXPECT_NE(a.coord(50, 2), c.coord(50, 2));
}

TEST(Generators, SwLikeShapes) {
  const Dataset d2 = gen_sw_like(5000, /*with_tec=*/false, 5);
  EXPECT_EQ(d2.dims(), 2);
  const Dataset d3 = gen_sw_like(5000, /*with_tec=*/true, 5);
  EXPECT_EQ(d3.dims(), 3);
  const Summary lon = summarize(d3.dim(0));
  EXPECT_GE(lon.min, -180.0);
  EXPECT_LE(lon.max, 180.0);
  const Summary tec = summarize(d3.dim(2));
  EXPECT_GE(tec.min, 0.0);
  EXPECT_LE(tec.max, 100.0);
}

TEST(Generators, SwLikeIsSpatiallySkewed) {
  // Hotspot mixture must produce a much heavier-tailed local density
  // than uniform: compare cell-occupancy dispersion on a coarse grid.
  const Dataset sw = gen_sw_like(20000, false, 3);
  const Dataset un = gen_uniform(20000, 2, 3, -180.0, 180.0);
  auto occupancy_cv = [](const Dataset& ds) {
    constexpr int kG = 32;
    std::vector<std::uint64_t> cnt(kG * kG, 0);
    const auto lo = ds.min_corner();
    const auto hi = ds.max_corner();
    for (std::size_t i = 0; i < ds.size(); ++i) {
      int cx = static_cast<int>((ds.coord(i, 0) - lo[0]) / (hi[0] - lo[0] + 1e-9) * kG);
      int cy = static_cast<int>((ds.coord(i, 1) - lo[1]) / (hi[1] - lo[1] + 1e-9) * kG);
      cnt[static_cast<std::size_t>(cy * kG + cx)]++;
    }
    return summarize(std::span<const std::uint64_t>(cnt)).cv();
  };
  EXPECT_GT(occupancy_cv(sw), 3.0 * occupancy_cv(un));
}

TEST(Generators, GaiaLikeConcentratedOnPlane) {
  const Dataset g = gen_gaia_like(20000, 8);
  ASSERT_EQ(g.dims(), 2);
  std::size_t near_plane = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    ASSERT_GE(g.coord(i, 1), -90.0);
    ASSERT_LE(g.coord(i, 1), 90.0);
    if (std::abs(g.coord(i, 1)) < 15.0) ++near_plane;
  }
  // Laplace(15): P(|b|<15) ~ 0.63 vs 0.167 for uniform latitude.
  EXPECT_GT(static_cast<double>(near_plane) / g.size(), 0.5);
}

TEST(Generators, SpecRegistryMatchesTable1) {
  EXPECT_EQ(dataset_specs().size(), 15u);  // 10 synthetic + 4 SW + Gaia
  const DatasetSpec* unif = find_spec("Unif4D2M");
  ASSERT_NE(unif, nullptr);
  EXPECT_EQ(unif->dims, 4);
  EXPECT_EQ(unif->paper_n, 2'000'000u);
  const DatasetSpec* gaia = find_spec("Gaia");
  ASSERT_NE(gaia, nullptr);
  EXPECT_EQ(gaia->dims, 2);
  EXPECT_EQ(find_spec("nope"), nullptr);
}

TEST(Generators, MakeDatasetByName) {
  const Dataset ds = make_dataset("Expo3D2M", 500, 7);
  EXPECT_EQ(ds.dims(), 3);
  EXPECT_EQ(ds.size(), 500u);
  EXPECT_THROW(make_dataset("Unknown", 10, 1), CheckError);
}

class IoTest : public ::testing::Test {
 protected:
  /// Per-test file names: ctest runs each test in its own process, in
  /// parallel, so shared names would race.
  std::string path(const char* name) {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    return (std::filesystem::temp_directory_path() / (test + "_" + name))
        .string();
  }
  void write_text(const std::string& p, const char* text) {
    std::FILE* f = std::fopen(p.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
  }
  /// Message of the CheckError load_csv throws on `text`, or "".
  std::string csv_error(const char* text) {
    const std::string p = path("gsj_io_test.csv");
    write_text(p, text);
    return check_error([&] { (void)load_csv(p, 2); });
  }
  void TearDown() override {
    std::filesystem::remove(path("gsj_io_test.bin"));
    std::filesystem::remove(path("gsj_io_test.csv"));
  }
};

TEST_F(IoTest, BinaryRoundTrip) {
  const Dataset ds = gen_uniform(1234, 5, 21);
  save_binary(ds, path("gsj_io_test.bin"));
  const Dataset back = load_binary(path("gsj_io_test.bin"));
  ASSERT_EQ(back.size(), ds.size());
  ASSERT_EQ(back.dims(), ds.dims());
  for (std::size_t i = 0; i < ds.size(); i += 97) {
    for (int d = 0; d < ds.dims(); ++d) {
      EXPECT_DOUBLE_EQ(back.coord(i, d), ds.coord(i, d));
    }
  }
}

TEST_F(IoTest, CsvRoundTrip) {
  const Dataset ds = gen_exponential(200, 2, 33);
  save_csv(ds, path("gsj_io_test.csv"));
  const Dataset back = load_csv(path("gsj_io_test.csv"), 2);
  ASSERT_EQ(back.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); i += 13) {
    EXPECT_NEAR(back.coord(i, 0), ds.coord(i, 0), 1e-5);
  }
}

TEST_F(IoTest, LoadRejectsGarbage) {
  const std::string p = path("gsj_io_test.bin");
  std::FILE* f = std::fopen(p.c_str(), "wb");
  std::fputs("not a dataset", f);
  std::fclose(f);
  EXPECT_THROW(load_binary(p), CheckError);
}

TEST_F(IoTest, BinaryHeaderLargerThanFileIsRejectedBeforeAllocating) {
  // Valid magic/version/dims, n = 2^61 points, then a few body bytes:
  // sizing a Dataset from that header would ask for 2^65 bytes.
  const std::string p = path("gsj_io_test.bin");
  std::FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint32_t version = 1, dims = 2;
  const std::uint64_t n = std::uint64_t{1} << 61;
  std::fwrite("GSJD", 1, 4, f);
  std::fwrite(&version, sizeof version, 1, f);
  std::fwrite(&dims, sizeof dims, 1, f);
  std::fwrite(&n, sizeof n, 1, f);
  std::fwrite("12345678abc", 1, 11, f);
  std::fclose(f);
  try {
    (void)load_binary(p);
    FAIL() << "corrupt header accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("claims"), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, BinaryTruncatedBodyIsRejected) {
  const Dataset ds = gen_uniform(100, 3, 22);
  const std::string p = path("gsj_io_test.bin");
  save_binary(ds, p);
  std::filesystem::resize_file(p, std::filesystem::file_size(p) - 8);
  EXPECT_THROW((void)load_binary(p), CheckError);
}

TEST_F(IoTest, BinaryRejectsNonFiniteCoordinates) {
  const std::string p = path("gsj_io_test.bin");
  for (const double bad : kNonFinite) {
    save_binary(gen_uniform(10, 2, 23), p);
    {
      // Overwrite point 3 of dimension 1: a 20-byte header, then the
      // columns one after another.
      std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(20 + (10 + 3) * static_cast<std::streamoff>(sizeof(double)));
      f.write(reinterpret_cast<const char*>(&bad), sizeof bad);
    }
    const std::string msg = check_error([&] { (void)load_binary(p); });
    EXPECT_NE(msg.find("point 3 dimension 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("not a finite number"), std::string::npos) << msg;
  }
}

TEST_F(IoTest, CsvAcceptsBlanksAroundNumbersAndCrlf) {
  const std::string p = path("gsj_io_test.csv");
  write_text(p, "1.5, -2e-3\r\n\n +3 ,4\n");
  const Dataset ds = load_csv(p, 2);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.coord(0, 0), 1.5);
  EXPECT_EQ(ds.coord(0, 1), -2e-3);
  EXPECT_EQ(ds.coord(1, 0), 3.0);
  EXPECT_EQ(ds.coord(1, 1), 4.0);
}

TEST_F(IoTest, CsvRejectsTrailingText) {
  const std::string msg = csv_error("0,0\n1.5abc,2\n");
  EXPECT_NE(msg.find("gsj_io_test.csv:2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("1.5abc"), std::string::npos) << msg;
}

TEST_F(IoTest, CsvRejectsNonNumbersWithCheckError) {
  const std::string msg = csv_error("abc,1\n");
  EXPECT_NE(msg.find("gsj_io_test.csv:1:"), std::string::npos) << msg;
  EXPECT_NE(csv_error("1,\n"), "");  // empty cell
}

TEST_F(IoTest, CsvRejectsNonFiniteValues) {
  for (const char* text : {"nan,1\n", "1,NaN\n", "inf,1\n", "1,-infinity\n",
                           "1e999,1\n"}) {
    const std::string msg = csv_error(text);
    EXPECT_NE(msg.find("not a finite number"), std::string::npos)
        << text << " -> " << msg;
  }
}

}  // namespace
}  // namespace gsj
