// Cicero southbound/northbound protocol messages.
//
// The paper extends the OpenFlow message layer with "new message types for
// signed messages, and ... a unique identifier to each message to prevent
// duplicate processing of events and updates" (§5.1).  This header is that
// extended message layer: every message carries a one-byte demux tag, a
// unique id, and (for Cicero frameworks) a signature.
//
// Wire tags (first byte) shared by all traffic arriving at a node:
//   0xBF  BFT atomic broadcast       (bft/messages.hpp)
//   0xB7  retired (failure-detector heartbeat, never wired in); never reuse
//   0x02  Event          switch -> control plane (or forwarded cross-domain)
//   0x03  UpdateMsg      controller -> switch (or -> aggregator)
//   0x04  AckMsg         switch -> control plane
//   0x05  AggUpdateMsg   aggregator -> switch
//   0x06  retired (membership reshares run in-process); never reuse
//   0x07  AggregatorNotifyMsg  control plane -> switch
//   0x0A  ManifestMsg    controller -> switch (decentralized execution)
//   0x0B  SegmentDoneMsg switch -> switch (decentralized execution)
//   0x0C  PartialShareMsg      controller -> aggregator switch (in-network)
//   0x0D  AggregatedUpdateMsg  aggregator switch -> target switch (in-network)
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/schnorr.hpp"
#include "crypto/threshold.hpp"
#include "net/flow_table.hpp"
#include "sched/update.hpp"
#include "sim/network.hpp"
#include "util/codec.hpp"

namespace cicero::core {

enum class CoreMsgTag : std::uint8_t {
  kEvent = 0x02,
  kUpdate = 0x03,
  kAck = 0x04,
  kAggUpdate = 0x05,
  kAggregatorNotify = 0x07,
  kFrostSession = 0x08,  ///< aggregator -> signers: chosen commitment set
  kFrostPartial = 0x09,  ///< signer -> aggregator: z_i for a session
  kManifest = 0x0A,      ///< controller -> switch: decentralized segment manifest
  kSegmentDone = 0x0B,   ///< switch -> switch: in-band completion signal
  kPartialShare = 0x0C,  ///< controller -> aggregator switch: compact partial
  kAggregatedUpdate = 0x0D,  ///< aggregator switch -> target switch: signed update
};

/// Which threshold scheme authenticates updates.  kSimBls is the paper's
/// BLS shape (non-interactive, any-t aggregation; see crypto/simbls.hpp);
/// kFrost is REAL threshold Schnorr and requires controller aggregation
/// (a coordinator fixes the signer set), costing one extra signing round.
enum class ThresholdBackend : std::uint8_t { kSimBls = 0, kFrost = 1 };

/// Peeks at the demux tag of a wire message (nullopt on empty).
std::optional<std::uint8_t> peek_tag(const util::Bytes& wire);

/// Globally unique event identifier: (origin id, per-origin sequence).
/// Origins are topology node indices for switches and kControllerOriginBase
/// + controller id for controllers (membership events).
struct EventId {
  std::uint32_t origin = 0;
  std::uint64_t seq = 0;
  bool operator==(const EventId&) const = default;
  auto operator<=>(const EventId&) const = default;
};

constexpr std::uint32_t kControllerOriginBase = 1u << 24;

enum class EventKind : std::uint8_t {
  kFlowRequest = 0,   ///< unroutable packet: establish a route
  kFlowTeardown = 1,  ///< flow completed: remove its route
  kAddController = 2, ///< membership: admit `member` to the control plane
  kRemoveController = 3,
  kAggMismatch = 4,  ///< aggregator switch saw conflicting replica digests
};
constexpr EventKind wire_max(EventKind) { return EventKind::kAggMismatch; }

/// A data-plane (or membership) event.  Signed by its origin's PKI key;
/// the signature covers `body()` so forwarding across domains preserves
/// verifiability (§4.1: forwarded events are tagged to stop propagation —
/// the flag is OUTSIDE the signed body for exactly that reason, and
/// event identity/dedup is by `id`).
struct Event {
  EventId id;
  EventKind kind = EventKind::kFlowRequest;
  net::FlowMatch match;
  double reserved_bps = 0.0;
  std::uint32_t member = 0;  ///< controller id for membership events
  bool forwarded = false;    ///< set when relayed to another domain
  util::Bytes sig;

  util::Bytes body() const;  ///< signed portion
  util::Bytes encode() const;
  static std::optional<Event> decode(const util::Bytes& wire);
};

/// Update identifiers must be equal across all correct controllers for the
/// same event (switches count partial signatures per update id), so they
/// are derived deterministically from the causing event.
sched::UpdateId update_id_base(const EventId& cause);

/// Canonical signed bytes of an update (what threshold partials cover).
util::Bytes update_signing_bytes(const sched::Update& update);

/// First 8 bytes (little-endian) of sha256(signing_bytes) — the compact
/// response fingerprint PartialShareMsg carries and the in-network
/// aggregator buckets by (P4BFT-style replica-response comparison).
std::uint64_t signing_digest64(const util::Bytes& signing_bytes);

/// Controller -> switch (switch aggregation) or -> aggregator.
struct UpdateMsg {
  sched::Update update;
  EventId cause;
  /// Threshold partial signature; empty payload in the centralized and
  /// crash-tolerant frameworks (no quorum authentication — the very gap
  /// Cicero closes).
  crypto::PartialSignature partial;
  /// FROST backend only: a fresh one-time nonce commitment piggybacked so
  /// the aggregator can assemble a signing session without an extra round.
  util::Bytes frost_commitment;

  util::Bytes encode() const;
  static std::optional<UpdateMsg> decode(const util::Bytes& wire);
};

/// An update plus its aggregated threshold signature.  Two tags share this
/// layout: AggUpdateMsg runs aggregator -> switch; AggregatedUpdateMsg is
/// the in-network hop, aggregator switch -> target switch, kept distinct
/// so fan-out accounting and the switch-to-switch hop stay
/// distinguishable on the wire and in telemetry.
template <CoreMsgTag Tag>
struct SignedUpdateMsg {
  sched::Update update;
  EventId cause;
  util::Bytes agg_sig;

  util::Bytes encode() const;
  static std::optional<SignedUpdateMsg> decode(const util::Bytes& wire);
};
using AggUpdateMsg = SignedUpdateMsg<CoreMsgTag::kAggUpdate>;
using AggregatedUpdateMsg = SignedUpdateMsg<CoreMsgTag::kAggregatedUpdate>;

/// Controller replica -> aggregator switch (in-network aggregation): a
/// compact threshold partial for an update whose body another replica
/// supplies.  Carries only the update id, a truncated digest of the
/// canonical signing bytes (the P4BFT-style response fingerprint the
/// aggregator buckets and compares), and the partial itself — the whole
/// point is that n-1 replicas avoid resending the full update body.
struct PartialShareMsg {
  sched::UpdateId update_id = 0;
  std::uint64_t digest = 0;  ///< first 8 bytes of sha256(update_signing_bytes)
  crypto::PartialSignature partial;

  util::Bytes encode() const;
  static std::optional<PartialShareMsg> decode(const util::Bytes& wire);
};

/// Switch -> control plane acknowledgement that `update_id` was applied.
struct AckMsg {
  sched::UpdateId update_id = 0;
  std::uint32_t switch_node = 0;  ///< topology index
  util::Bytes sig;                ///< switch PKI signature over body()

  util::Bytes body() const;
  util::Bytes encode() const;
  static std::optional<AckMsg> decode(const util::Bytes& wire);
};

/// Aggregator -> signers: the FROST signing session for one update (the
/// quorum's nonce commitments, taken from their UpdateMsg piggybacks).
struct FrostSessionMsg {
  sched::UpdateId update_id = 0;
  std::vector<util::Bytes> commitments;  ///< serialized FrostCommitment set

  util::Bytes encode() const;
  static std::optional<FrostSessionMsg> decode(const util::Bytes& wire);
};

/// Signer -> aggregator: the FROST partial for a session.
struct FrostPartialMsg {
  sched::UpdateId update_id = 0;
  std::uint32_t signer_index = 0;  ///< share index
  util::Bytes z;                   ///< scalar bytes

  util::Bytes encode() const;
  static std::optional<FrostPartialMsg> decode(const util::Bytes& wire);
};

/// Control plane -> switch: the current aggregator (or none) and quorum.
/// In the paper this rides on OpenFlow "master/slave role request"
/// messages; here it also refreshes the member list after a change.
struct AggregatorNotifyMsg {
  std::uint64_t phase = 0;
  sim::NodeId aggregator = UINT32_MAX;
  std::uint32_t quorum = 0;
  std::vector<sim::NodeId> controllers;

  util::Bytes encode() const;
  static std::optional<AggregatorNotifyMsg> decode(const util::Bytes& wire);
};

/// One neighbor of a segment in its chain's dependency DAG.  `switch_node`
/// is the topology index (what ids and acks are keyed by); `node` is the
/// sim address the controller resolved so switches can signal each other
/// without a topology directory of their own.
struct SegmentPeer {
  sched::UpdateId update_id = 0;
  std::uint32_t switch_node = 0;  ///< topology index of the peer's switch
  sim::NodeId node = 0;           ///< sim address of the peer's switch

  bool operator==(const SegmentPeer&) const = default;
};

/// Everything one switch needs to execute its segment of a decentralized
/// chain: the update itself, the upstream segments whose SegmentDone
/// signals gate the apply, the downstream segments to signal afterwards,
/// and whether this segment is the chain's sink (the one that acks the
/// control plane for the whole ancestor closure).
struct SegmentManifest {
  sched::Update update;
  std::vector<SegmentPeer> preds;  ///< apply only after these signal done
  std::vector<SegmentPeer> succs;  ///< signal these after applying
  bool sink = false;               ///< acks the controllers when applied

  bool operator==(const SegmentManifest&) const = default;
};

/// Canonical signed bytes of a manifest ("the ordered manifest"): covers
/// the segment, both dependency edge lists, the sink flag, and the
/// membership epoch, so a quorum signature pins the *position* of the
/// segment in the chain, not just the rule.
util::Bytes manifest_signing_bytes(const SegmentManifest& manifest, std::uint64_t epoch);

/// Controller -> switch, decentralized execution: one signed manifest per
/// segment.  Like UpdateMsg, the partial is empty in the centralized and
/// crash-tolerant baselines and carries a threshold partial under Cicero
/// (switches quorum-aggregate manifests exactly like updates).
struct ManifestMsg {
  SegmentManifest manifest;
  EventId cause;
  std::uint64_t epoch = 0;  ///< membership phase the signature is valid for
  crypto::PartialSignature partial;

  util::Bytes encode() const;
  static std::optional<ManifestMsg> decode(const util::Bytes& wire);
};

/// Switch -> switch, decentralized execution: "my segment `done_update` is
/// installed; your segment `for_update` has one fewer unmet predecessor".
/// Signed with the sender switch's PKI key so a compromised switch cannot
/// release its neighbors' segments early by forging peer signals.
struct SegmentDoneMsg {
  sched::UpdateId for_update = 0;   ///< the receiver's gated segment
  sched::UpdateId done_update = 0;  ///< the sender's completed segment
  std::uint32_t switch_node = 0;    ///< sender's topology index
  std::uint64_t epoch = 0;
  util::Bytes sig;

  util::Bytes body() const;
  util::Bytes encode() const;
  static std::optional<SegmentDoneMsg> decode(const util::Bytes& wire);
};

}  // namespace cicero::core
