// Simulated message-passing network.
//
// Point-to-point, unicast message delivery between named nodes with a
// pluggable latency function and fault injection (drops, partitions,
// per-message mutation).  The Cicero control plane, the BFT library and
// the switch runtimes all exchange serialized messages through this class;
// the data-plane *payload* traffic is modeled analytically in the flow
// driver (net/flows) rather than packet-by-packet — the paper's metrics
// only need control-message timing plus flow transmission times.
//
// Parallel mode (enable_parallel): every node is pinned to a ParallelSim
// shard.  A send runs on its source node's shard; same-shard delivery is
// an ordinary local event, cross-shard delivery goes through the engine's
// deterministic mailboxes.  Stats/metric cells are striped per shard
// (each cache-line-padded stripe has a single writer thread) and summed
// on read.  Without enable_parallel nothing changes: one stripe, one
// Simulator — the sequential path is the pre-parallel code, bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace cicero::sim {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = UINT32_MAX;

class NetworkSim {
 public:
  using Handler = std::function<void(NodeId from, const util::Bytes& msg)>;
  /// Latency between two nodes; return kNever to model "no route".
  using LatencyFn = std::function<SimTime(NodeId from, NodeId to)>;
  /// Fault hook: return true to drop this message.
  using DropFn = std::function<bool(NodeId from, NodeId to, const util::Bytes& msg)>;
  /// Fault hook: may mutate the message in flight (Byzantine network tests).
  using MutateFn = std::function<void(NodeId from, NodeId to, util::Bytes& msg)>;

  explicit NetworkSim(Simulator& simulator);

  /// Registers a node; returns its id.  Names are for logging only.
  NodeId add_node(std::string name);
  std::size_t node_count() const { return names_.size(); }
  const std::string& node_name(NodeId id) const { return names_.at(id); }

  void set_handler(NodeId id, Handler handler);

  /// Attaches metrics (message/byte/drop counters, size and latency
  /// histograms).  Trace-level per-message events are deliberately not
  /// emitted here — they would dwarf the protocol spans.
  void set_obs(obs::Observability* obs);

  void set_latency_fn(LatencyFn fn) { latency_fn_ = std::move(fn); }
  void set_drop_fn(DropFn fn) { drop_fn_ = std::move(fn); }
  void set_mutate_fn(MutateFn fn) { mutate_fn_ = std::move(fn); }

  /// Uniform default latency when no latency function is installed.
  void set_default_latency(SimTime latency) { default_latency_ = latency; }

  /// Switches delivery to the sharded engine: node `n` lives on shard
  /// `node_shard[n]` and every send executes on its source's shard.  Call
  /// once, after all nodes are added (adding nodes afterwards throws —
  /// membership changes are a sequential-mode feature).  `shard_obs[s]`,
  /// when non-null, receives shard `s`'s stripe of the net.* metrics.
  void enable_parallel(ParallelSim& engine, std::vector<std::uint32_t> node_shard,
                       const std::vector<obs::Observability*>& shard_obs);
  bool parallel() const { return par_ != nullptr; }

  /// Sends `msg` from `from` to `to`; delivery is scheduled at
  /// now + latency unless dropped.  Messages between the same pair are NOT
  /// forcibly ordered (like UDP); protocol layers must tolerate reordering,
  /// though with a deterministic latency function FIFO order emerges.
  void send(NodeId from, NodeId to, util::Bytes msg);

  /// Multicast as independent unicasts, in the order of `to`, that SHARE
  /// one immutable payload buffer: `msg` moves into it, so the fan-out
  /// costs one allocation total instead of one copy per recipient.  (With
  /// a mutate hook installed the copying path is kept — mutation needs a
  /// private buffer per message.)
  void multicast(NodeId from, const std::vector<NodeId>& to, util::Bytes msg);

  std::uint64_t messages_sent() const { return sum(&ShardStats::sent); }
  std::uint64_t messages_delivered() const { return sum(&ShardStats::delivered); }
  std::uint64_t messages_dropped() const { return sum(&ShardStats::dropped); }
  std::uint64_t bytes_sent() const { return sum(&ShardStats::bytes); }

 private:
  /// One stripe of counters/handles; exactly one writer thread each
  /// (sequential mode uses stripe 0 only).  Padded so neighbouring
  /// stripes never share a cache line.
  struct alignas(64) ShardStats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t bytes = 0;
    obs::Counter m_sent;
    obs::Counter m_delivered;
    obs::Counter m_dropped;
    obs::Counter m_bytes;
    obs::Histogram msg_bytes;
    obs::Histogram link_latency_ms;
  };

  std::uint64_t sum(std::uint64_t ShardStats::* field) const {
    std::uint64_t total = 0;
    for (const ShardStats& s : stats_) total += s.*field;
    return total;
  }
  void bind_stats(ShardStats& stats, obs::Observability* obs);
  std::uint32_t shard_of(NodeId node) const { return par_ != nullptr ? node_shard_[node] : 0; }
  /// Common send path; `shared` non-null selects the zero-copy fan-out.
  void do_send(NodeId from, NodeId to, util::Bytes owned,
               std::shared_ptr<const util::Bytes> shared);
  void deliver(NodeId from, NodeId to, const util::Bytes& msg, std::uint32_t dst_shard);

  Simulator& sim_;
  ParallelSim* par_ = nullptr;
  std::vector<std::uint32_t> node_shard_;
  std::vector<std::string> names_;
  std::vector<Handler> handlers_;
  LatencyFn latency_fn_;
  DropFn drop_fn_;
  MutateFn mutate_fn_;
  SimTime default_latency_ = microseconds(100);
  std::vector<ShardStats> stats_{1};
};

}  // namespace cicero::sim
