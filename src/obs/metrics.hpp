// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// The registry is the single source of truth for "what happened in this
// run"; the run-report writer (obs/report.hpp) serializes it to JSON so
// BENCH_* outputs are self-describing and diffable across PRs.
//
// Hot-path design: instruments resolve their metric ONCE at construction
// into a handle holding a raw pointer to the backing cell.  Recording is
// a pointer-null check plus an add — no lookup, no allocation, no lock
// (the simulator is single-threaded).  A component without an obs sink
// holds default-constructed (null) handles, so its record calls are a
// dead branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace cicero::obs {

/// Backing storage of one histogram: fixed upper-bound buckets plus an
/// implicit +inf overflow bucket, and running summary fields.
struct HistogramCell {
  std::vector<double> bounds;         ///< ascending upper bounds
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t delta = 1) {
    if (cell_ != nullptr) *cell_ += delta;
  }
  std::uint64_t value() const { return cell_ != nullptr ? *cell_ : 0; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint64_t* cell) : cell_(cell) {}
  std::uint64_t* cell_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (cell_ != nullptr) *cell_ = v;
  }
  void add(double delta) {
    if (cell_ != nullptr) *cell_ += delta;
  }
  double value() const { return cell_ != nullptr ? *cell_ : 0.0; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(double* cell) : cell_(cell) {}
  double* cell_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(double x) {
    if (cell_ == nullptr) return;
    HistogramCell& h = *cell_;
    // Linear scan: bucket counts are small (<= ~24) and the early buckets
    // absorb most samples, so this beats binary search in practice.
    std::size_t i = 0;
    while (i < h.bounds.size() && x > h.bounds[i]) ++i;
    ++h.counts[i];
    if (h.count == 0) {
      h.min = h.max = x;
    } else {
      if (x < h.min) h.min = x;
      if (x > h.max) h.max = x;
    }
    ++h.count;
    h.sum += x;
  }
  const HistogramCell* cell() const { return cell_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(HistogramCell* cell) : cell_(cell) {}
  HistogramCell* cell_ = nullptr;
};

/// Common bucket ladders (upper bounds).  Latencies are recorded in
/// milliseconds throughout (the paper reports ms everywhere).
std::vector<double> latency_buckets_ms();  ///< 10us .. 10s, log-ish ladder
std::vector<double> size_buckets_bytes();  ///< 64B .. 16MB powers of four

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Handles for the same name share one backing cell.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name, std::vector<double> bounds);

  // --- read side (report writer, tests) ---
  const std::map<std::string, std::uint64_t*>& counters() const { return counters_; }
  const std::map<std::string, double*>& gauges() const { return gauges_; }
  const std::map<std::string, HistogramCell*>& histograms() const { return histograms_; }
  std::uint64_t counter_value(const std::string& name) const;

  /// Zeroes every existing cell in place; names and outstanding handles
  /// stay valid.  Pairs with merge_sum for repeatable fold-ins.
  void zero();

  /// Accumulates every metric of `sources` into this registry: counters
  /// and gauges add, histograms merge bucket-wise (the same name must
  /// carry the same bucket bounds).  Used to fold the per-shard
  /// registries of a parallel run into the deployment-wide view; sources
  /// are folded in order, so the result is deterministic.
  void merge_sum(const std::vector<const MetricsRegistry*>& sources);

 private:
  /// Throws std::logic_error if `name` already exists under another kind
  /// (a gauge-vs-counter collision would silently fork into two cells).
  void check_kind_collision(const std::string& name, const char* wanted) const;

  // deques: stable addresses across growth (handles keep raw pointers).
  std::deque<std::uint64_t> counter_cells_;
  std::deque<double> gauge_cells_;
  std::deque<HistogramCell> histogram_cells_;
  std::map<std::string, std::uint64_t*> counters_;
  std::map<std::string, double*> gauges_;
  std::map<std::string, HistogramCell*> histograms_;
};

/// Process-wide crypto operation counters, incremented directly by the
/// crypto kernels (they have no registry in scope and must stay cheap).
/// The run-report writer snapshots them; `reset` scopes them to one run.
/// Atomic because parallel-mode workers may sign/verify concurrently; the
/// single-threaded cost is one lock-free RMW per (expensive) crypto op.
/// Per-field atomics are the whole synchronization story here (no mutex,
/// nothing for CICERO_GUARDED_BY to guard — see DESIGN.md §13); callers
/// must only reset()/snapshot between windows, when workers are
/// quiescent, or counts can straddle the boundary.
struct CryptoOpCounters {
  std::atomic<std::uint64_t> schnorr_sign{0};
  std::atomic<std::uint64_t> schnorr_verify{0};
  std::atomic<std::uint64_t> partial_sign{0};
  std::atomic<std::uint64_t> partial_verify{0};
  std::atomic<std::uint64_t> aggregate{0};
  std::atomic<std::uint64_t> threshold_verify{0};
  std::atomic<std::uint64_t> frost_sign{0};
  std::atomic<std::uint64_t> frost_aggregate{0};
  std::atomic<std::uint64_t> frost_verify{0};
  /// SHA-256 work: finished hashes and the 64-byte blocks they compressed,
  /// padding included.  Added once per hash, relaxed.
  std::atomic<std::uint64_t> sha256_hashes{0};
  std::atomic<std::uint64_t> sha256_blocks{0};
  void reset() {
    schnorr_sign = 0;
    schnorr_verify = 0;
    partial_sign = 0;
    partial_verify = 0;
    aggregate = 0;
    threshold_verify = 0;
    frost_sign = 0;
    frost_aggregate = 0;
    frost_verify = 0;
    sha256_hashes = 0;
    sha256_blocks = 0;
  }
};
CryptoOpCounters& crypto_ops();

}  // namespace cicero::obs
