// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed by the benchmark itself around its calls
// into the simulator's modules (workload generation, deployment set-up,
// Deployment::run, the consistency check, report building, and every
// replayed public function).  They stay in memory until the benchmark
// ends and are then written out once as a Chrome trace-event file.  A
// disabled recorder (the untraced run) costs one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct Span {
  std::uint32_t request = 0;  ///< spans of one repetition share this id
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
};

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_request(std::uint32_t request) { request_ = request; }

  /// Opens a span; returns its id (0 when disabled).
  std::uint32_t open(std::string name, std::string layer) {
    if (!enabled_) return 0;
    Span s;
    s.request = request_;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.start = now_s();
    spans_.push_back(std::move(s));
    return static_cast<std::uint32_t>(spans_.size());
  }

  void close(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end = now_s();
  }

  /// Writes every span as a Chrome trace-event JSON file; false on I/O
  /// failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::uint32_t request_ = 0;
  std::vector<Span> spans_;
};

/// RAII guard for one span.
class Scope {
 public:
  Scope(Spans& spans, std::string name, std::string layer)
      : spans_(spans), id_(spans.open(std::move(name), std::move(layer))) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  std::uint32_t id_;
};

}  // namespace perfbench
