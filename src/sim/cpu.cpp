#include "sim/cpu.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace cicero::sim {

CpuServer::CpuServer(Simulator& simulator) : sim_(simulator) {}

void CpuServer::set_obs(obs::Observability* obs, obs::TracePid pid, obs::TraceTid tid) {
  obs_ = obs;
  pid_ = pid;
  tid_ = tid;
  if (obs_ != nullptr) {
    tasks_ = obs_->metrics.counter("cpu.tasks");
    queue_wait_ms_ = obs_->metrics.histogram("cpu.queue_wait_ms", obs::latency_buckets_ms());
  }
}

obs::Histogram& CpuServer::op_histogram(std::string_view op) {
  obs::Histogram* hist = op_hist_.find(op);
  if (hist != nullptr) return *hist;  // content hit: no allocation
  return *op_hist_
              .try_emplace(op, obs_->metrics.histogram(
                                   std::string("cpu.op.").append(op) + "_ms",
                                   obs::latency_buckets_ms()))
              .first;
}

void CpuServer::execute(SimTime cost, std::string_view op, Callback done) {
  if (cost < 0) throw std::invalid_argument("CpuServer::execute: negative cost");
  const SimTime start = std::max(sim_.now(), busy_until_);
  const SimTime finish = start + cost;
  busy_until_ = finish;
  busy_total_ += cost;
  if (cost > 0) {
    // Coalesce back-to-back work into one interval to bound memory.
    if (!intervals_.empty() &&
        intervals_.back().first + intervals_.back().second == start) {
      intervals_.back().second += cost;
    } else {
      intervals_.emplace_back(start, cost);
    }
  }
  if (obs_ != nullptr) {
    tasks_.inc();
    queue_wait_ms_.observe(to_ms(start - sim_.now()));
    op_histogram(op).observe(to_ms(cost));
    if (obs_->trace.enabled() && cost > 0) {
      obs_->trace.complete(pid_, tid_, std::string(op).c_str(), start, cost);
    }
  }
  sim_.at(finish, std::move(done));
}

double CpuServer::utilisation(SimTime from, SimTime to) const {
  if (to <= from) return 0.0;
  SimTime busy = 0;
  for (const auto& [start, dur] : intervals_) {
    const SimTime s = std::max(start, from);
    const SimTime e = std::min(start + dur, to);
    if (e > s) busy += e - s;
  }
  return static_cast<double>(busy) / static_cast<double>(to - from);
}

std::vector<double> CpuServer::utilisation_windows(SimTime window, SimTime horizon) const {
  if (window <= 0) throw std::invalid_argument("utilisation_windows: window must be > 0");
  std::vector<double> out;
  for (SimTime t = 0; t < horizon; t += window) {
    out.push_back(utilisation(t, std::min(t + window, horizon)));
  }
  return out;
}

}  // namespace cicero::sim
