// Statistics helpers used by the benchmark harnesses.
//
// The paper reports mean latencies with standard deviations (Figure 4) and a
// least-squares line (latency = 15.45 us + 6.25 ns/byte); RunningStats and
// LinearFit regenerate exactly those summaries from measured samples.
#ifndef SRC_BASE_STATS_H_
#define SRC_BASE_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace flipc {

// Welford's online mean/variance.
class RunningStats {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Ordinary least-squares fit y = intercept + slope * x.
struct LineFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};

class LinearFit {
 public:
  void Add(double x, double y) {
    xs_.push_back(x);
    ys_.push_back(y);
  }

  std::size_t count() const { return xs_.size(); }

  LineFit Fit() const {
    LineFit out;
    const std::size_t n = xs_.size();
    if (n < 2) {
      return out;
    }
    double sx = 0, sy = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sx += xs_[i];
      sy += ys_[i];
    }
    const double mx = sx / static_cast<double>(n);
    const double my = sy / static_cast<double>(n);
    double sxx = 0, sxy = 0, syy = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = xs_[i] - mx;
      const double dy = ys_[i] - my;
      sxx += dx * dx;
      sxy += dx * dy;
      syy += dy * dy;
    }
    if (sxx == 0.0) {
      return out;
    }
    out.slope = sxy / sxx;
    out.intercept = my - out.slope * mx;
    out.r_squared = (syy == 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
    return out;
  }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

// Fixed-bucket histogram with percentile queries; used for latency tails in
// the real-time isolation experiments.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets)
      : lo_(lo), hi_(hi), counts_(buckets, 0) {}

  void Add(double x) {
    ++total_;
    if (x < lo_) {
      ++underflow_;
      return;
    }
    if (x >= hi_) {
      ++overflow_;
      return;
    }
    const auto idx = static_cast<std::size_t>(
        (x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size()));
    ++counts_[std::min(idx, counts_.size() - 1)];
  }

  std::uint64_t total() const { return total_; }

  // Returns the lower edge of the bucket containing quantile q in [0, 1].
  double Quantile(double q) const {
    if (total_ == 0) {
      return lo_;
    }
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_));
    std::uint64_t seen = underflow_;
    if (seen > target) {
      return lo_;
    }
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > target) {
        return lo_ + width * static_cast<double>(i);
      }
    }
    return hi_;
  }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace flipc

#endif  // SRC_BASE_STATS_H_
