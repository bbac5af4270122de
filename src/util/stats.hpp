// Sample statistics used by the benchmark harness and the simulator:
// `CdfCollector` stores raw samples to report quantiles and CDF series,
// which is how every flow-completion figure in the paper is rendered.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace cicero::util {

/// Sample-retaining collector for quantiles and CDF output.
class CdfCollector {
 public:
  void add(double x);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double min() const;
  double max() const;

  /// Quantile by linear interpolation between order statistics.  Total on
  /// all inputs: empty collectors return 0, a single sample is every
  /// quantile, and q is clamped into [0,1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double p99() const { return quantile(0.99); }

  /// Returns `points` (x, F(x)) pairs evenly spaced in probability,
  /// suitable for plotting a CDF like the paper's Figs. 11 and 12.
  std::vector<std::pair<double, double>> cdf_series(std::size_t points = 50) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;
  std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace cicero::util
