#include "sim/network.hpp"

#include <stdexcept>
#include <utility>

#include "util/logging.hpp"

namespace cicero::sim {

NetworkSim::NetworkSim(Simulator& simulator) : sim_(simulator) {}

NodeId NetworkSim::add_node(std::string name) {
  if (par_ != nullptr) {
    throw std::logic_error("NetworkSim: cannot add nodes after enable_parallel");
  }
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.push_back(std::move(name));
  handlers_.emplace_back();
  return id;
}

void NetworkSim::set_handler(NodeId id, Handler handler) {
  handlers_.at(id) = std::move(handler);
}

void NetworkSim::bind_stats(ShardStats& stats, obs::Observability* obs) {
  if (obs == nullptr) return;
  stats.m_sent = obs->metrics.counter("net.messages_sent");
  stats.m_delivered = obs->metrics.counter("net.messages_delivered");
  stats.m_dropped = obs->metrics.counter("net.messages_dropped");
  stats.m_bytes = obs->metrics.counter("net.bytes_sent");
  stats.msg_bytes = obs->metrics.histogram("net.msg_bytes", obs::size_buckets_bytes());
  stats.link_latency_ms =
      obs->metrics.histogram("net.link_latency_ms", obs::latency_buckets_ms());
}

void NetworkSim::set_obs(obs::Observability* obs) { bind_stats(stats_[0], obs); }

void NetworkSim::enable_parallel(ParallelSim& engine, std::vector<std::uint32_t> node_shard,
                                 const std::vector<obs::Observability*>& shard_obs) {
  if (node_shard.size() != names_.size()) {
    throw std::invalid_argument("NetworkSim::enable_parallel: shard map size mismatch");
  }
  for (const std::uint32_t s : node_shard) {
    if (s >= engine.shards()) {
      throw std::invalid_argument("NetworkSim::enable_parallel: shard out of range");
    }
  }
  par_ = &engine;
  node_shard_ = std::move(node_shard);
  stats_ = std::vector<ShardStats>(engine.shards());
  for (std::uint32_t s = 0; s < engine.shards(); ++s) {
    if (s < shard_obs.size()) bind_stats(stats_[s], shard_obs[s]);
  }
}

void NetworkSim::deliver(NodeId from, NodeId to, const util::Bytes& msg,
                         std::uint32_t dst_shard) {
  ShardStats& st = stats_[dst_shard];
  ++st.delivered;
  st.m_delivered.inc();
  const Handler& h = handlers_.at(to);
  if (h) {
    h(from, msg);
  } else {
    CICERO_LOG_DEBUG("network", "message to %s dropped: no handler", names_[to].c_str());
  }
}

void NetworkSim::do_send(NodeId from, NodeId to, util::Bytes owned,
                         std::shared_ptr<const util::Bytes> shared) {
  if (to >= names_.size() || from >= names_.size()) {
    throw std::invalid_argument("NetworkSim::send: unknown node");
  }
  const std::uint32_t src_shard = shard_of(from);
  ShardStats& st = stats_[src_shard];
  const util::Bytes& view = shared != nullptr ? *shared : owned;
  ++st.sent;
  st.bytes += view.size();
  st.m_sent.inc();
  st.m_bytes.inc(view.size());
  st.msg_bytes.observe(static_cast<double>(view.size()));

  if (drop_fn_ && drop_fn_(from, to, view)) {
    ++st.dropped;
    st.m_dropped.inc();
    return;
  }
  // The shared fan-out path is never taken with a mutate hook installed
  // (multicast falls back to per-recipient copies), so mutating `owned`
  // here is safe.
  if (mutate_fn_ && shared == nullptr) mutate_fn_(from, to, owned);

  const SimTime latency = latency_fn_ ? latency_fn_(from, to) : default_latency_;
  if (latency == kNever) {
    ++st.dropped;
    st.m_dropped.inc();
    return;
  }
  st.link_latency_ms.observe(to_ms(latency));

  const std::uint32_t dst_shard = shard_of(to);
  Callback cb;
  if (shared != nullptr) {
    auto fn = [this, from, to, dst_shard, m = std::move(shared)] {
      deliver(from, to, *m, dst_shard);
    };
    static_assert(Callback::fits_inline<decltype(fn)>);
    cb = std::move(fn);
  } else {
    auto fn = [this, from, to, dst_shard, m = std::move(owned)] {
      deliver(from, to, m, dst_shard);
    };
    static_assert(Callback::fits_inline<decltype(fn)>);
    cb = std::move(fn);
  }
  if (par_ == nullptr) {
    sim_.after(latency, std::move(cb));
  } else if (dst_shard == src_shard) {
    par_->shard(src_shard).after(latency, std::move(cb));
  } else {
    par_->post(src_shard, dst_shard, par_->shard(src_shard).now() + latency, std::move(cb));
  }
}

void NetworkSim::send(NodeId from, NodeId to, util::Bytes msg) {
  do_send(from, to, std::move(msg), nullptr);
}

void NetworkSim::multicast(NodeId from, const std::vector<NodeId>& to, util::Bytes msg) {
  // One shared immutable buffer serves the whole fan-out; per-recipient
  // copies only when a mutate hook needs a private buffer per message.
  if (mutate_fn_ || to.size() <= 1) {
    for (const NodeId t : to) send(from, t, msg);
    return;
  }
  auto shared = std::make_shared<const util::Bytes>(std::move(msg));
  for (const NodeId t : to) do_send(from, t, {}, shared);
}

}  // namespace cicero::sim
