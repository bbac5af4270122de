#include "util/stats.hpp"

#include <algorithm>

namespace cicero::util {

void CdfCollector::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void CdfCollector::ensure_sorted() const {
  if (!sorted_) {
    auto& s = const_cast<std::vector<double>&>(samples_);
    std::sort(s.begin(), s.end());
    const_cast<bool&>(sorted_) = true;
  }
}

double CdfCollector::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double CdfCollector::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double CdfCollector::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double CdfCollector::quantile(double q) const {
  // Total: empty -> 0 (matches mean()/min()/max()), one sample -> that
  // sample, q outside [0,1] (NaN included) clamped to the nearest valid
  // quantile.  Callers probe tails of possibly-empty phase collectors;
  // throwing here turned missing data into crashes.
  if (samples_.empty()) return 0.0;
  if (!(q > 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  ensure_sorted();
  if (samples_.size() == 1) return samples_.front();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::vector<std::pair<double, double>> CdfCollector::cdf_series(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points < 2) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

}  // namespace cicero::util
