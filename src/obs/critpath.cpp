#include "obs/critpath.hpp"

#include <algorithm>
#include <cmath>

namespace cicero::obs {

namespace {

constexpr double kNsPerMs = 1e6;

double ms(std::int64_t ns) { return static_cast<double>(ns) / kNsPerMs; }

/// Nearest-rank percentile over an ascending-sorted sample vector.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

/// Earliest-observation merge for one milestone (-1 = unobserved).
std::int64_t merge_ts(std::int64_t a, std::int64_t b) {
  if (a < 0) return b;
  if (b < 0) return a;
  return std::min(a, b);
}

}  // namespace

const char* crit_phase_name(CritPhase p) {
  switch (p) {
    case CritPhase::kOrder: return "order";
    case CritPhase::kDependencyWait: return "dependency_wait";
    case CritPhase::kSign: return "sign";
    case CritPhase::kPropagate: return "propagate";
    case CritPhase::kPeerSignal: return "peer_signal";
    case CritPhase::kApply: return "apply";
    case CritPhase::kRetransmit: return "retransmit";
  }
  return "unknown";
}

void CritPath::event_submitted(std::uint32_t origin, std::uint64_t seq, std::int64_t ts_ns) {
  event_submits_.emplace(std::make_pair(origin, seq), ts_ns);  // first wins
}

void CritPath::update_scheduled(std::uint64_t id, std::uint32_t origin, std::uint64_t seq,
                                std::int64_t ts_ns) {
  Record& r = updates_[id];
  if (r.scheduled < 0) r.scheduled = ts_ns;
  if (r.submit < 0) {
    // Several updates can share one cause event, so the submit timestamp
    // stays in the side table rather than being consumed destructively.
    auto it = event_submits_.find(std::make_pair(origin, seq));
    if (it != event_submits_.end()) r.submit = it->second;
  }
}

void CritPath::first(std::int64_t Record::*milestone, std::uint64_t id, std::int64_t ts_ns) {
  std::int64_t& at = updates_[id].*milestone;
  if (at < 0) at = ts_ns;
}

void CritPath::update_retransmitted(std::uint64_t id, std::int64_t ts_ns) {
  Record& r = updates_[id];
  r.last_retransmit = std::max(r.last_retransmit, ts_ns);
  ++r.retransmits;
}

void CritPath::add_phase_bytes(CritPhase p, std::uint64_t bytes) {
  bytes_[static_cast<std::size_t>(p)] += bytes;
}

const CritPath::Record* CritPath::find(std::uint64_t id) const {
  auto it = updates_.find(id);
  return it != updates_.end() ? &it->second : nullptr;
}

CritPath::PathBreakdown CritPath::attribute(const Record& r) {
  PathBreakdown out;
  out.complete = r.submit >= 0 && r.acked >= 0;
  if (!out.complete) return out;

  // Clamp the milestone chain to causal order: a missing interior
  // milestone collapses onto its predecessor (zero-width phase) and a
  // same-instant inversion cannot yield a negative phase.  The clamp
  // never moves the endpoints, so the phases partition [submit, acked].
  const std::int64_t raw[8] = {r.submit, r.scheduled,  r.released, r.signed_at,
                               r.rx,     r.peer_ready, r.applied,  r.acked};
  std::int64_t m[8];
  m[0] = raw[0];
  for (std::size_t i = 1; i < 8; ++i) {
    m[i] = raw[i] >= 0 ? std::max(m[i - 1], raw[i]) : m[i - 1];
  }

  const std::int64_t leg1 = m[4] - m[3];  // controller -> switch in flight
  const std::int64_t leg2 = m[7] - m[6];  // apply -> ack accepted
  std::int64_t retrans = 0;
  if (r.retransmits > 0 && r.last_retransmit >= 0) {
    // Within each in-flight leg, the stretch up to the last resend was a
    // retransmission stall; the remainder is genuine propagation.
    retrans += std::clamp<std::int64_t>(std::min(r.last_retransmit, m[4]) - m[3], 0, leg1);
    retrans += std::clamp<std::int64_t>(std::min(r.last_retransmit, m[7]) - m[6], 0, leg2);
  }

  auto& p = out.phase_ms;
  p[static_cast<std::size_t>(CritPhase::kOrder)] = ms(m[1] - m[0]);
  p[static_cast<std::size_t>(CritPhase::kDependencyWait)] = ms(m[2] - m[1]);
  p[static_cast<std::size_t>(CritPhase::kSign)] = ms(m[3] - m[2]);
  p[static_cast<std::size_t>(CritPhase::kPropagate)] = ms(leg1 + leg2 - retrans);
  p[static_cast<std::size_t>(CritPhase::kPeerSignal)] = ms(m[5] - m[4]);
  p[static_cast<std::size_t>(CritPhase::kApply)] = ms(m[6] - m[5]);
  p[static_cast<std::size_t>(CritPhase::kRetransmit)] = ms(retrans);

  out.total_ms = ms(m[7] - m[0]);
  double sum = 0.0;
  for (double v : p) sum += v;
  out.attributed = out.total_ms > 0.0 ? sum / out.total_ms : 1.0;
  return out;
}

CritPath::Summary CritPath::summarize(std::size_t top_k) const {
  Summary s;
  for (std::size_t i = 0; i < kCritPhaseCount; ++i) s.phases[i].bytes = bytes_[i];

  std::vector<double> samples[kCritPhaseCount];
  std::vector<double> totals;
  double attributed_sum = 0.0;
  s.attributed_min = 1.0;

  // std::map iteration order (ascending update id) keeps every float
  // accumulation and the slowest-list tie-break placement-independent.
  for (const auto& [id, rec] : updates_) {
    const PathBreakdown b = attribute(rec);
    if (!b.complete) {
      ++s.incomplete;
      continue;
    }
    ++s.completed;
    totals.push_back(b.total_ms);
    s.end_to_end_total_ms += b.total_ms;
    attributed_sum += b.attributed;
    s.attributed_min = std::min(s.attributed_min, b.attributed);
    for (std::size_t i = 0; i < kCritPhaseCount; ++i) {
      s.phases[i].total_ms += b.phase_ms[i];
      samples[i].push_back(b.phase_ms[i]);
    }
    SlowUpdate slow;
    slow.id = id;
    slow.total_ms = b.total_ms;
    for (std::size_t i = 0; i < kCritPhaseCount; ++i) slow.phase_ms[i] = b.phase_ms[i];
    s.slowest.push_back(slow);
  }

  if (s.completed == 0) {
    s.attributed_min = 0.0;
    s.slowest.clear();
    return s;
  }
  s.attributed_mean = attributed_sum / static_cast<double>(s.completed);

  std::sort(totals.begin(), totals.end());
  s.end_to_end_p50_ms = percentile(totals, 0.50);
  s.end_to_end_p99_ms = percentile(totals, 0.99);
  for (std::size_t i = 0; i < kCritPhaseCount; ++i) {
    std::sort(samples[i].begin(), samples[i].end());
    s.phases[i].p50_ms = percentile(samples[i], 0.50);
    s.phases[i].p99_ms = percentile(samples[i], 0.99);
  }

  std::sort(s.slowest.begin(), s.slowest.end(), [](const SlowUpdate& a, const SlowUpdate& b) {
    if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
    return a.id < b.id;
  });
  if (s.slowest.size() > top_k) s.slowest.resize(top_k);
  return s;
}

void CritPath::clear() {
  updates_.clear();
  event_submits_.clear();
  for (auto& b : bytes_) b = 0;
}

void CritPath::merge_from(const CritPath& other) {
  for (const auto& [key, ts] : other.event_submits_) {
    auto [it, inserted] = event_submits_.emplace(key, ts);
    if (!inserted) it->second = std::min(it->second, ts);
  }
  for (const auto& [id, src] : other.updates_) {
    auto [it, inserted] = updates_.emplace(id, src);
    if (inserted) continue;
    Record& dst = it->second;
    dst.submit = merge_ts(dst.submit, src.submit);
    dst.scheduled = merge_ts(dst.scheduled, src.scheduled);
    dst.released = merge_ts(dst.released, src.released);
    dst.signed_at = merge_ts(dst.signed_at, src.signed_at);
    dst.rx = merge_ts(dst.rx, src.rx);
    dst.peer_ready = merge_ts(dst.peer_ready, src.peer_ready);
    dst.applied = merge_ts(dst.applied, src.applied);
    dst.acked = merge_ts(dst.acked, src.acked);
    dst.last_retransmit = std::max(dst.last_retransmit, src.last_retransmit);
    dst.retransmits += src.retransmits;
  }
  for (std::size_t i = 0; i < kCritPhaseCount; ++i) bytes_[i] += other.bytes_[i];
}

}  // namespace cicero::obs
