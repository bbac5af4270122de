#include "obs/metrics.hpp"

#include <stdexcept>

namespace cicero::obs {

std::vector<double> latency_buckets_ms() {
  // 10us .. 10s in a 1-2-5 ladder; covers everything from a single message
  // hop to a multi-DC membership change.
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0,  2.0,  5.0,    10.0,
          20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0};
}

std::vector<double> size_buckets_bytes() {
  std::vector<double> b;
  for (double x = 64.0; x <= 16.0 * 1024 * 1024; x *= 4.0) b.push_back(x);
  return b;
}

Counter MetricsRegistry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    check_kind_collision(name, "counter");
    counter_cells_.push_back(0);
    it = counters_.emplace(name, &counter_cells_.back()).first;
  }
  return Counter{it->second};
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    check_kind_collision(name, "gauge");
    gauge_cells_.push_back(0.0);
    it = gauges_.emplace(name, &gauge_cells_.back()).first;
  }
  return Gauge{it->second};
}

Histogram MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    check_kind_collision(name, "histogram");
    HistogramCell cell;
    cell.bounds = std::move(bounds);
    cell.counts.assign(cell.bounds.size() + 1, 0);
    histogram_cells_.push_back(std::move(cell));
    it = histograms_.emplace(name, &histogram_cells_.back()).first;
  }
  return Histogram{it->second};
}

void MetricsRegistry::check_kind_collision(const std::string& name, const char* wanted) const {
  // One name, one kind: the report writer serializes counters, gauges and
  // histograms into separate JSON sections, so a name registered under two
  // kinds would silently fork into two cells and mis-report both.  Fail at
  // registration instead.
  const char* existing = nullptr;
  if (counters_.count(name) != 0) existing = "counter";
  else if (gauges_.count(name) != 0) existing = "gauge";
  else if (histograms_.count(name) != 0) existing = "histogram";
  if (existing != nullptr) {
    throw std::logic_error("MetricsRegistry: metric '" + name + "' requested as " + wanted +
                           " but already registered as " + existing);
  }
}

void MetricsRegistry::zero() {
  for (auto& cell : counter_cells_) cell = 0;
  for (auto& cell : gauge_cells_) cell = 0.0;
  for (auto& cell : histogram_cells_) {
    cell.counts.assign(cell.counts.size(), 0);
    cell.count = 0;
    cell.sum = 0.0;
    cell.min = 0.0;
    cell.max = 0.0;
  }
}

void MetricsRegistry::merge_sum(const std::vector<const MetricsRegistry*>& sources) {
  for (const MetricsRegistry* src : sources) {
    if (src == nullptr) continue;
    for (const auto& [name, cell] : src->counters_) {
      counter(name);  // materialize the destination cell
      *counters_.at(name) += *cell;
    }
    for (const auto& [name, cell] : src->gauges_) {
      gauge(name);
      *gauges_.at(name) += *cell;
    }
    for (const auto& [name, cell] : src->histograms_) {
      histogram(name, cell->bounds);
      HistogramCell& dst = *histograms_.at(name);
      if (dst.bounds != cell->bounds) {
        throw std::logic_error("MetricsRegistry::merge_sum: bucket bounds differ for " + name);
      }
      if (cell->count == 0) continue;
      for (std::size_t i = 0; i < dst.counts.size(); ++i) dst.counts[i] += cell->counts[i];
      if (dst.count == 0) {
        dst.min = cell->min;
        dst.max = cell->max;
      } else {
        if (cell->min < dst.min) dst.min = cell->min;
        if (cell->max > dst.max) dst.max = cell->max;
      }
      dst.count += cell->count;
      dst.sum += cell->sum;
    }
  }
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : *it->second;
}

CryptoOpCounters& crypto_ops() {
  static CryptoOpCounters g;
  return g;
}

}  // namespace cicero::obs
