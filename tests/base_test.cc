// Unit tests for the base substrate: status/result, rng, stats, locks,
// clocks, and table formatting.
#include <algorithm>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/clock.h"
#include "src/base/locks.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/table.h"
#include "src/base/types.h"

namespace flipc {
namespace {

// ---------------------------------- types ----------------------------------

TEST(Types, AlignUp) {
  EXPECT_EQ(AlignUp(0, 64), 0u);
  EXPECT_EQ(AlignUp(1, 64), 64u);
  EXPECT_EQ(AlignUp(64, 64), 64u);
  EXPECT_EQ(AlignUp(65, 64), 128u);
}

TEST(Types, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(1023));
}

TEST(Types, CacheLinesFor) {
  EXPECT_EQ(CacheLinesFor(1), 1u);
  EXPECT_EQ(CacheLinesFor(64), 1u);
  EXPECT_EQ(CacheLinesFor(65), 2u);
}

// --------------------------------- status ----------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(Status, CodesRoundTrip) {
  EXPECT_EQ(UnavailableStatus().code(), StatusCode::kUnavailable);
  EXPECT_EQ(InvalidArgumentStatus().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(TimedOutStatus().code(), StatusCode::kTimedOut);
  EXPECT_EQ(UnavailableStatus().ToString(), "UNAVAILABLE");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r(NotFoundStatus());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Doubler(Result<int> in) {
  FLIPC_ASSIGN_OR_RETURN(const int v, std::move(in));
  return v * 2;
}

TEST(Result, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(InternalStatus()).status().code(), StatusCode::kInternal);
}

// ----------------------------------- rng -----------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    differs |= a2() != c();
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.Between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UnitDoubleInRange) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UnitDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// ---------------------------------- stats ----------------------------------

TEST(RunningStats, MeanAndStddev) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
}

TEST(LinearFit, ExactLine) {
  LinearFit fit;
  for (int x = 0; x < 20; ++x) {
    fit.Add(x, 15.45 + 6.25 * x);
  }
  const LineFit line = fit.Fit();
  EXPECT_NEAR(line.intercept, 15.45, 1e-9);
  EXPECT_NEAR(line.slope, 6.25, 1e-9);
  EXPECT_NEAR(line.r_squared, 1.0, 1e-9);
}

TEST(LinearFit, DegenerateInputs) {
  LinearFit fit;
  EXPECT_EQ(fit.Fit().slope, 0.0);
  fit.Add(1.0, 2.0);
  EXPECT_EQ(fit.Fit().slope, 0.0);
  fit.Add(1.0, 3.0);  // vertical: sxx == 0
  EXPECT_EQ(fit.Fit().slope, 0.0);
}

TEST(Histogram, Quantiles) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) {
    h.Add(i + 0.5);
  }
  EXPECT_EQ(h.total(), 100u);
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 1.5);
}

TEST(Histogram, OverflowUnderflow) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-5.0);
  h.Add(50.0);
  h.Add(5.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 10.0);
}

// ---------------------------------- locks ----------------------------------

TEST(TasLock, MutualExclusionUnderContention) {
  TasLock lock;
  long counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<TasLock> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, long{kThreads} * kIters);
}

TEST(TasLock, TryLock) {
  TasLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// ---------------------------------- clock ----------------------------------

TEST(ManualClock, AdvancesOnly) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowNs(), 100);
  clock.AdvanceBy(50);
  EXPECT_EQ(clock.NowNs(), 150);
  clock.AdvanceTo(1000);
  EXPECT_EQ(clock.NowNs(), 1000);
}

TEST(RealClock, Monotonic) {
  RealClock& clock = RealClock::Instance();
  const TimeNs a = clock.NowNs();
  const TimeNs b = clock.NowNs();
  EXPECT_GE(b, a);
}

// ---------------------------------- table ----------------------------------

TEST(TextTable, FormatsAligned) {
  TextTable table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "2.50"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 2.50  |"), std::string::npos);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(2.0, 0), "2");
}

}  // namespace
}  // namespace flipc
