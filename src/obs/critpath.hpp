// Causal critical-path profiler for the update lifecycle.
//
// Each update's journey — intent submitted, PBFT-ordered, scheduled,
// released by the dependency tracker, threshold-signed, propagated to
// its switch, applied, acked — is recorded as a sequence of sim-time
// milestones keyed by the update id (the correlation id that already
// threads through UpdateMsg/AckMsg).  At run end `summarize()` replays
// every completed record and attributes its end-to-end latency to seven
// named phases:
//
//   order            submit -> schedule (event verify + BFT ordering +
//                    route computation)
//   dependency_wait  schedule -> release (blocked on predecessor acks)
//   sign             release -> signed update leaving the controller
//   propagate        in-flight legs (controller->switch, switch->ack)
//                    minus retransmit stalls
//   peer_signal      first switch rx -> last upstream SegmentDone signal
//                    accepted (decentralized execution's in-band wait;
//                    zero width in controller-driven mode)
//   apply            peer-ready switch -> rule committed (includes quorum
//                    wait + signature verification at the switch)
//   retransmit       the portion of an in-flight leg spent waiting out
//                    loss, i.e. up to the last retransmission of the leg
//
// Milestones are clamped to causal order before differencing, so the
// phases partition the end-to-end interval exactly: attribution is 100 %
// by construction for every record that has both endpoints (the report
// still carries the measured fraction so the invariant is checkable).
//
// Control-plane byte counts accumulate per phase at the send sites (PBFT
// wire bytes -> order, partial/update sends -> sign/propagate, resends
// -> retransmit), giving the bytes-by-phase view the report emits.
//
// Determinism: records live in std::map (ordered iteration), milestones
// are integer sim-ns, and every summary collection is collect-then-sort
// — the output is bit-identical across seeds, hash salts and thread
// counts for identical simulated histories.  Parallel runs keep one
// CritPath per shard (an update's whole lifecycle stays inside its
// domain's shard), folded with `merge_from` after the run.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace cicero::obs {

enum class CritPhase : std::uint8_t {
  kOrder = 0,
  kDependencyWait,
  kSign,
  kPropagate,
  kPeerSignal,
  kApply,
  kRetransmit,
};
inline constexpr std::size_t kCritPhaseCount = 7;

/// Stable snake_case phase name used in reports and traces.
const char* crit_phase_name(CritPhase p);

class CritPath {
 public:
  /// Raw milestone record for one update; -1 = never observed.  All
  /// timestamps are simulated nanoseconds.
  struct Record {
    std::int64_t submit = -1;     ///< intent entered the control plane
    std::int64_t scheduled = -1;  ///< ordered + route computed, handed to tracker
    std::int64_t released = -1;   ///< dependency tracker released it
    std::int64_t signed_at = -1;  ///< signed update left the controller
    std::int64_t rx = -1;         ///< first receipt at the target switch
    std::int64_t peer_ready = -1; ///< last upstream SegmentDone accepted
    std::int64_t applied = -1;    ///< rule committed to the flow table
    std::int64_t acked = -1;      ///< ack accepted back at the controller
    std::int64_t last_retransmit = -1;
    std::uint32_t retransmits = 0;
  };

  /// One update's latency split across the phases (milliseconds).
  struct PathBreakdown {
    double phase_ms[kCritPhaseCount] = {};
    double total_ms = 0.0;       ///< acked - submit
    double attributed = 0.0;     ///< sum(phase_ms) / total_ms (1.0 when total > 0)
    bool complete = false;       ///< submit and acked both observed
  };

  struct PhaseSummary {
    double total_ms = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    std::uint64_t bytes = 0;
  };

  struct SlowUpdate {
    std::uint64_t id = 0;
    double total_ms = 0.0;
    double phase_ms[kCritPhaseCount] = {};
  };

  struct Summary {
    std::uint64_t completed = 0;   ///< records with submit and acked
    std::uint64_t incomplete = 0;  ///< records missing an endpoint (never acked)
    double end_to_end_total_ms = 0.0;
    double end_to_end_p50_ms = 0.0;
    double end_to_end_p99_ms = 0.0;
    double attributed_min = 0.0;   ///< min over completed updates
    double attributed_mean = 0.0;
    PhaseSummary phases[kCritPhaseCount];
    std::vector<SlowUpdate> slowest;  ///< total_ms desc, id asc tie-break
  };

  CritPath() = default;

  CritPath(const CritPath&) = delete;
  CritPath& operator=(const CritPath&) = delete;

  // --- recording ---
  /// Intent submission, keyed by the cause event until the schedule step
  /// maps it onto concrete update ids.
  void event_submitted(std::uint32_t origin, std::uint64_t seq, std::int64_t ts_ns);
  /// Update created from event (origin, seq); consumes the stored submit
  /// time into the update's record.
  void update_scheduled(std::uint64_t id, std::uint32_t origin, std::uint64_t seq,
                        std::int64_t ts_ns);
  // One-shot milestones: the first observation wins.
  void update_released(std::uint64_t id, std::int64_t ts) { first(&Record::released, id, ts); }
  void update_signed(std::uint64_t id, std::int64_t ts) { first(&Record::signed_at, id, ts); }
  void update_retransmitted(std::uint64_t id, std::int64_t ts_ns);
  void update_rx(std::uint64_t id, std::int64_t ts) { first(&Record::rx, id, ts); }
  /// Decentralized execution: the last unmet upstream SegmentDone signal
  /// was accepted, unblocking the local apply.
  void update_peer_ready(std::uint64_t id, std::int64_t ts) { first(&Record::peer_ready, id, ts); }
  void update_applied(std::uint64_t id, std::int64_t ts) { first(&Record::applied, id, ts); }
  void update_acked(std::uint64_t id, std::int64_t ts) { first(&Record::acked, id, ts); }
  void add_phase_bytes(CritPhase p, std::uint64_t bytes);

  // --- read side ---
  std::size_t tracked_updates() const { return updates_.size(); }
  const Record* find(std::uint64_t id) const;
  std::uint64_t phase_bytes(CritPhase p) const {
    return bytes_[static_cast<std::size_t>(p)];
  }

  /// Attribution for one record (exposed for tests; summarize() uses it).
  static PathBreakdown attribute(const Record& r);

  /// Deterministic run-end rollup: per-phase totals and percentiles,
  /// bytes-by-phase, and the top-k slowest completed updates.
  Summary summarize(std::size_t top_k = 5) const;

  void clear();
  /// Folds another profiler's records in (per-shard fold after a
  /// parallel run).  Shards own disjoint updates, but a collision merges
  /// field-wise (earliest milestone wins) rather than corrupting.
  void merge_from(const CritPath& other);

 private:
  void first(std::int64_t Record::*milestone, std::uint64_t id, std::int64_t ts_ns);

  std::map<std::uint64_t, Record> updates_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::int64_t> event_submits_;
  std::uint64_t bytes_[kCritPhaseCount] = {};
};

}  // namespace cicero::obs
