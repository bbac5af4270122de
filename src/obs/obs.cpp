#include "obs/obs.hpp"

namespace cicero::obs {

namespace {

/// "<prefix><a>:<b>": event tracks, per-domain update tracks and
/// dependency arrows.
std::string track(const char* prefix, std::uint64_t a, std::uint64_t b) {
  return prefix + std::to_string(a) + ":" + std::to_string(b);
}

/// Deployment-wide flow-arrow track of one update (update ids are unique
/// across domains, see core::update_id_base).
std::string flow_track(std::uint64_t id) { return "u:" + std::to_string(id); }

}  // namespace

Counter NodeHooks::counter(const std::string& name) const {
  return obs_ != nullptr ? obs_->metrics.counter(name) : Counter{};
}

Histogram NodeHooks::latency_histogram(const std::string& name) const {
  return obs_ != nullptr ? obs_->metrics.histogram(name, latency_buckets_ms()) : Histogram{};
}

bool NodeHooks::tracing() const { return obs_ != nullptr && obs_->trace.enabled(); }

void NodeHooks::stamp(Stamp milestone, std::uint64_t id) {
  if (leader_ && obs_ != nullptr) {
    (obs_->critpath.*milestone)(id, now_());
  }
}

void NodeHooks::arrow(Arrow mark, std::uint64_t id, const char* name, TraceTid tid) {
  if (leader_ && tracing()) (obs_->trace.*mark)("flow", flow_track(id), name, node_, tid, -1);
}

void NodeHooks::event_submitted(std::uint32_t origin, std::uint64_t seq) {
  if (!leader_ || obs_ == nullptr) return;
  obs_->critpath.event_submitted(origin, seq, now_());
  if (tracing()) {
    obs_->trace.async_begin("event", track("e:", origin, seq), "order", node_, kTidBft,
                            {{"origin", static_cast<std::int64_t>(origin)}});
  }
}

void NodeHooks::event_ordered(std::uint32_t origin, std::uint64_t seq) {
  if (leader_ && tracing()) {
    obs_->trace.async_end("event", track("e:", origin, seq), "order", node_, kTidBft);
  }
}

void NodeHooks::update_scheduled(std::uint64_t id, std::uint32_t origin, std::uint64_t seq,
                                 std::uint32_t switch_node, std::size_t deps) {
  if (!leader_ || obs_ == nullptr) return;
  if (tracing()) {
    obs_->trace.async_begin("update", track("u:", domain_, id), "update", node_, kTidMain,
                            {{"switch", static_cast<std::int64_t>(switch_node)},
                             {"deps", static_cast<std::int64_t>(deps)}});
  }
  obs_->critpath.update_scheduled(id, origin, seq, now_());
}

void NodeHooks::update_released(std::uint64_t id, std::optional<std::uint64_t> parent) {
  if (parent && leader_ && tracing()) {
    obs_->trace.flow_start("dep", track("d:", *parent, id), "dep.release", node_, kTidMain);
    open_dep_arrows_[id] = *parent;
  }
  stamp(&CritPath::update_released, id);
}

void NodeHooks::sign_begin(std::uint64_t id) {
  if (leader_ && tracing()) {
    obs_->trace.async_begin("update", track("u:", domain_, id), "sign", node_, kTidCrypto);
  }
}

void NodeHooks::sign_end(std::uint64_t id) {
  if (!leader_ || !tracing()) return;
  obs_->trace.async_end("update", track("u:", domain_, id), "sign", node_, kTidCrypto);
  const auto dep = open_dep_arrows_.find(id);
  if (dep == open_dep_arrows_.end()) return;
  obs_->trace.flow_end("dep", track("d:", dep->second, id), "dep.release", node_, kTidMain);
  open_dep_arrows_.erase(dep);
}

void NodeHooks::update_sent(std::uint64_t id, CritPhase phase, std::size_t bytes) {
  phase_bytes(phase, bytes);
  if (phase == CritPhase::kRetransmit) return;
  if (phase == CritPhase::kPropagate) stamp(&CritPath::update_signed, id);
  arrow(&Tracer::flow_start, id, "update.send", kTidNet);
}

void NodeHooks::update_resent(std::uint64_t id) {
  stamp(&CritPath::update_retransmitted, id);
  arrow(&Tracer::flow_step, id, "update.resend", kTidNet);
}

void NodeHooks::update_retry(std::uint64_t id, std::uint32_t attempt) {
  if (tracing()) {
    obs_->trace.instant(node_, kTidMain, "update.retransmit",
                        {{"update", static_cast<std::int64_t>(id)},
                         {"attempt", static_cast<std::int64_t>(attempt)}});
  }
}

void NodeHooks::update_rx(std::uint64_t id) {
  stamp(&CritPath::update_rx, id);
  arrow(&Tracer::flow_step, id, "update.rx", kTidMain);
}

void NodeHooks::update_peer_ready(std::uint64_t id) { stamp(&CritPath::update_peer_ready, id); }

void NodeHooks::apply_begin(std::uint64_t id) {
  if (leader_ && tracing()) {
    obs_->trace.async_begin("update", track("u:", domain_, id), "apply", node_, kTidMain);
  }
}

void NodeHooks::update_applied(std::uint64_t id) {
  stamp(&CritPath::update_applied, id);
  if (leader_ && tracing()) {
    obs_->trace.async_end("update", track("u:", domain_, id), "apply", node_, kTidMain);
  }
  arrow(&Tracer::flow_step, id, "update.applied", kTidMain);
}

void NodeHooks::update_aggregated(std::uint64_t id, std::size_t bytes) {
  stamp(&CritPath::update_signed, id);
  phase_bytes(CritPhase::kPropagate, bytes);
  arrow(&Tracer::flow_step, id, "update.agg_fanout", kTidMain);
}

void NodeHooks::update_acked(std::uint64_t id, bool close, bool arrow_end) {
  stamp(&CritPath::update_acked, id);
  if (close) close_track(id, arrow_end);
}

void NodeHooks::update_abandoned(std::uint64_t id) {
  if (tracing()) {
    obs_->trace.instant(node_, kTidMain, "update.abandoned",
                        {{"update", static_cast<std::int64_t>(id)}});
  }
  open_dep_arrows_.erase(id);
  close_track(id, /*arrow_end=*/false);
}

void NodeHooks::view_change(std::uint64_t target) {
  if (tracing()) {
    obs_->trace.instant(node_, kTidBft, "view_change",
                        {{"target_view", static_cast<std::int64_t>(target)}});
  }
}

void NodeHooks::phase_bytes(CritPhase phase, std::size_t bytes) {
  if (obs_ != nullptr) obs_->critpath.add_phase_bytes(phase, bytes);
}

void NodeHooks::close_track(std::uint64_t id, bool arrow_end) {
  if (!leader_ || !tracing()) return;
  obs_->trace.async_end("update", track("u:", domain_, id), "update", node_, kTidMain);
  if (arrow_end) arrow(&Tracer::flow_end, id, "update.ack", kTidNet);
}

}  // namespace cicero::obs
