// BFT atomic-broadcast wire messages.
//
// PBFT-style three-phase protocol messages plus view-change and state
// transfer machinery; messages.cpp holds their field lists.  A
// message can carry a Schnorr signature over its body (controllers "use a
// PKI system to validate messages sent with the atomic broadcast", §3.2).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/codec.hpp"

namespace cicero::bft {

using ReplicaId = std::uint32_t;
using ViewId = std::uint64_t;
using SeqNum = std::uint64_t;

/// First byte of every BFT wire message; lets owners demux BFT traffic
/// from other protocol traffic arriving at the same network node.
constexpr std::uint8_t kBftWireTag = 0xBF;

enum class BftMsgType : std::uint8_t {
  kRequest = 0,
  kPrePrepare = 1,
  kPrepare = 2,
  kCommit = 3,
  kViewChange = 4,
  kNewView = 5,
  kHeartbeat = 6,  ///< no longer sent; keeps its wire value
  /// State transfer for lagging replicas: kFetch carries the requester's
  /// last delivered seq; kFetchReply returns the responder's delivered
  /// entries above it (reusing `new_view_entries`).  A fetched entry is
  /// only delivered once f+1 responders agree on it.
  kFetch = 7,
  kFetchReply = 8,
};
constexpr BftMsgType wire_max(BftMsgType) { return BftMsgType::kFetchReply; }

/// A client request as ordered by the protocol.  Replicas deduplicate
/// requests by the SHA-256 of their payload (`PbftReplica::request_key`),
/// so re-submission after a view change cannot cause double delivery.
struct BftRequest {
  ReplicaId submitter = 0;
  std::uint64_t local_seq = 0;
  util::Bytes payload;
  static constexpr bool kFramed = true;  ///< nests as a u32-length frame

  util::Bytes encode() const;
  static BftRequest decode(util::Reader& r);
  crypto::Digest digest() const;
  bool operator==(const BftRequest&) const = default;
};

/// One prepared entry reported in a view change.
struct PreparedEntry {
  SeqNum seq = 0;
  BftRequest request;
};

struct BftMessage {
  BftMsgType type = BftMsgType::kHeartbeat;
  ReplicaId sender = 0;
  ViewId view = 0;
  SeqNum seq = 0;
  crypto::Digest digest{};            ///< request digest for prepare/commit
  std::optional<BftRequest> request;  ///< for kRequest / kPrePrepare
  // View change payload:
  SeqNum last_delivered = 0;
  std::vector<PreparedEntry> prepared;
  // New view payload: seq -> request for every seq the new primary re-issues.
  std::map<SeqNum, BftRequest> new_view_entries;
  SeqNum new_view_next_seq = 0;  ///< first fresh seq after re-issues
  static constexpr bool kFramed = true;

  /// Serialized body (everything except the signature): what gets signed.
  util::Bytes encode_body() const;
  /// Full wire encoding: tag, body length-prefixed, then signature bytes.
  util::Bytes encode(const util::Bytes& signature) const;
  /// Parses the wire encoding; returns message + signature bytes.
  static std::optional<std::pair<BftMessage, util::Bytes>> decode(const util::Bytes& wire);
};

}  // namespace cicero::bft
