// Unit tests: RNG determinism and distribution sanity, statistics,
// tables, CLI parsing, thread pool semantics.
#include <gtest/gtest.h>

#include <cmath>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace gsj {
namespace {

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a() == b();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_LT(lo, 0.001);
  EXPECT_GT(hi, 0.999);
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIndexBounds) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_index(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, SplitMixExpandsDistinctStreams) {
  SplitMix64 sm(123);
  const auto a = sm.next();
  const auto b = sm.next();
  EXPECT_NE(a, b);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum, 15.0);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize(std::span<const double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 100.0), 10.0);
}

TEST(Table, AlignedAndCsvOutput) {
  Table t({"name", "value"});
  t.set_precision(2);
  t.add_row({std::string("a"), 1.5});
  t.add_row({std::string("b,c"), std::int64_t{7}});
  std::ostringstream ascii;
  t.print(ascii);
  EXPECT_NE(ascii.str().find("| a"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\na,1.50\n\"b,c\",7\n");
}

TEST(Table, RowWidthChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), CheckError);
}

TEST(Cli, ParsesFormsAndDefaults) {
  // A bare trailing flag is boolean; positionals go before flags (a
  // bare flag would otherwise consume the following token as its value).
  const char* argv[] = {"prog", "pos", "--alpha", "3", "--beta=x", "--flag"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get("beta", ""), "x");
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_double("gamma", 2.5), 2.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
  EXPECT_FALSE(cli.help_requested());
}

TEST(Cli, HelpRequested) {
  const char* argv[] = {"prog", "--help"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.help_requested());
  (void)cli.get_int("n", 5, "sample size");
  EXPECT_NE(cli.help_text().find("--n"), std::string::npos);
  EXPECT_NE(cli.help_text().find("sample size"), std::string::npos);
}

TEST(Cli, RejectsMalformedNumericValues) {
  // Silent strtoll/strtod prefix parsing once turned "--n 10x" into 10
  // and "--epsilon abc" into 0.0; malformed values must instead fail
  // loudly, naming the flag.
  const char* argv[] = {"prog",      "--n",     "10x",  "--epsilon", "abc",
                        "--empty=",  "--huge",  "99999999999999999999",
                        "--bigexp",  "1e999999"};
  Cli cli(10, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), CheckError);
  EXPECT_THROW((void)cli.get_double("epsilon", 0.0), CheckError);
  EXPECT_THROW((void)cli.get_int("empty", 0), CheckError);
  EXPECT_THROW((void)cli.get_double("empty", 0.0), CheckError);
  EXPECT_THROW((void)cli.get_int("huge", 0), CheckError);     // ERANGE
  EXPECT_THROW((void)cli.get_double("bigexp", 0.0), CheckError);
  try {
    (void)cli.get_int("n", 0);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("10x"), std::string::npos);
  }
}

TEST(Cli, AcceptsWellFormedNumericValues) {
  const char* argv[] = {"prog", "--a", "-42", "--b", "3.5e-2", "--c", "0"};
  Cli cli(7, argv);
  EXPECT_EQ(cli.get_int("a", 0), -42);
  EXPECT_DOUBLE_EQ(cli.get_double("b", 0.0), 3.5e-2);
  EXPECT_EQ(cli.get_int("c", 9), 0);
  // Defaults still pass through the strict parser unharmed.
  EXPECT_EQ(cli.get_int("absent", -7), -7);
  EXPECT_DOUBLE_EQ(cli.get_double("absent2", 0.25), 0.25);
}

TEST(Cli, RangedGetIntRejectsValuesOutsideItsBounds) {
  // A flag narrowed to int or size_t once wrapped: "--workers -1" became
  // SIZE_MAX and "--host-threads 4294967297" ran with 1 thread.
  const char* argv[] = {"prog", "--workers", "-1", "--threads", "4294967297",
                        "--k", "8"};
  Cli cli(7, argv);
  EXPECT_EQ(cli.get_int("k", 1, 1, 32), 8);
  EXPECT_EQ(cli.get_int("absent", 4, 1, 32), 4);
  EXPECT_THROW((void)cli.get_int("threads", 0, 0, 1024), CheckError);
  try {
    (void)cli.get_int("workers", 4, 1, 1024);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "--workers: expected an integer in [1, 1024], got '-1'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parse_int("7", "key", 0, 7), 7);
  EXPECT_THROW((void)parse_int("8", "key", 0, 7), CheckError);
}

TEST(Cli, StrictParseNamesTheSourceAndValue) {
  // The tools' own CSV and request-file tokens once went through
  // std::stoi/std::stod, which stop at the first bad character:
  // "--device-sms 56x,28" ran with 56 SMs. The shared strict parse
  // rejects the whole token and names where it came from.
  EXPECT_EQ(parse_int("56", "--device-sms"), 56);
  EXPECT_EQ(parse_int("-3", "priority"), -3);
  EXPECT_DOUBLE_EQ(parse_double("1.3", "--device-clock"), 1.3);
  EXPECT_DOUBLE_EQ(parse_double("2e-3", "epsilon"), 2e-3);
  for (const char* bad : {"56x", "", "x56", "5 6", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    try {
      (void)parse_int(bad, "--device-sms");
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--device-sms"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
  }
  for (const char* bad : {"1.3GHz", "", "abc", "1e999999", "0.1,"}) {
    SCOPED_TRACE(bad);
    try {
      (void)parse_double(bad, "request key 'epsilon'");
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("request key 'epsilon'"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
  }
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(1000, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 999u * 1000 / 2);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForWaitsForEveryChunkWhenOneThrows) {
  // 16 indices on 4 workers are 16 one-index chunks. Chunk 0 throws at
  // once; the rest still run `fn`, which lives in this frame, so the
  // call may only return (by throwing) once all of them have finished.
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  int seen = -1;
  try {
    pool.parallel_for(16, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("chunk 0");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++finished;
    });
  } catch (const std::runtime_error&) {
    seen = finished.load();
  }
  EXPECT_EQ(seen, 15);
}

TEST(ThreadPool, ChunkedCoversRangeOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for_chunks(257, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Check, MacrosThrow) {
  EXPECT_THROW(GSJ_CHECK(false), CheckError);
  EXPECT_NO_THROW(GSJ_CHECK(true));
  EXPECT_THROW(GSJ_CHECK_MSG(1 == 2, "context " << 42), CheckError);
}

}  // namespace
}  // namespace gsj
