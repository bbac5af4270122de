#include "replay.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>

#include "bft/pbft.hpp"
#include "core/audit.hpp"
#include "core/messages.hpp"
#include "crypto/dkg.hpp"
#include "crypto/drbg.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/simbls.hpp"
#include "sched/depgraph.hpp"
#include "sched/scheduler.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using namespace cicero;

/// Median over `passes` of (pass wall time / ops); `pass` runs one pass
/// and returns how many operations it did.
template <typename Pass>
double seconds_per_op(int passes, Pass&& pass) {
  std::vector<double> per_op;
  for (int p = 0; p < passes; ++p) {
    const double t0 = now_s();
    const std::size_t ops = pass();
    const double dt = now_s() - t0;
    if (ops == 0) throw std::runtime_error("replay pass did no work");
    per_op.push_back(dt / static_cast<double>(ops));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

/// Cycles through `items` until `n` have been visited.
template <typename T, typename Fn>
std::size_t cycle(const std::vector<T>& items, std::size_t n, Fn&& fn) {
  for (std::size_t i = 0; i < n; ++i) fn(items[i % items.size()]);
  return n;
}

std::size_t threshold_of(std::size_t n) { return std::max<std::size_t>(1, (n - 1) / 3 + 1); }

}  // namespace

ReplayCosts replay_ladder(const ReplayInputs& in, Spans& spans) {
  const net::Topology& topo = *in.topo;
  const std::vector<workload::Flow>& flows = *in.flows;
  const std::size_t scale = in.small ? 10 : 1;
  const auto n_of = [scale](std::size_t full) { return std::max<std::size_t>(1, full / scale); };
  ReplayCosts c;

  // --- net: the workload's host pairs ------------------------------------
  std::vector<std::vector<net::NodeIndex>> paths;
  {
    Scope s(spans, "replay.shortest_path", "net");
    for (const auto& f : flows) paths.push_back(topo.shortest_path(f.src_host, f.dst_host));
    c.path_us = 1e6 * seconds_per_op(3, [&] {
                  std::size_t hops = 0;
                  cycle(flows, n_of(2000), [&](const workload::Flow& f) {
                    hops += topo.shortest_path(f.src_host, f.dst_host).size();
                  });
                  return hops == 0 ? std::size_t{0} : n_of(2000);
                });
  }
  std::vector<sched::RouteIntent> intents;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (paths[i].size() < 3) continue;
    sched::RouteIntent intent;
    intent.match = {flows[i].src_host, flows[i].dst_host};
    intent.path = paths[i];
    intent.reserved_bps = flows[i].reserved_bps;
    intents.push_back(std::move(intent));
  }
  if (intents.empty()) throw std::runtime_error("workload has no routable flow");

  // --- sched: scheduler and dependency tracker ---------------------------
  const sched::ReversePathScheduler scheduler;
  std::vector<sched::UpdateSchedule> schedules;
  {
    Scope s(spans, "replay.scheduler_build", "sched");
    sched::UpdateId next = 1;
    for (const auto& intent : intents) {
      schedules.push_back(scheduler.build(intent, next));
      next += schedules.back().size() + 1;
    }
    c.build_us = 1e6 * seconds_per_op(3, [&] {
                   sched::UpdateId id = 1;
                   return cycle(intents, n_of(4000), [&](const sched::RouteIntent& intent) {
                     id += scheduler.build(intent, id).size() + 1;
                   });
                 });
  }
  {
    Scope s(spans, "replay.tracker", "sched");
    c.tracker_ns = 1e9 * seconds_per_op(3, [&] {
                     sched::DependencyTracker tracker;
                     std::size_t updates = 0;
                     std::deque<sched::UpdateId> ready;
                     for (std::size_t rep = 0; rep < n_of(20); ++rep) {
                       for (const auto& sch : schedules) {
                         // Fresh ids per repetition: the tracker rejects duplicates.
                         sched::UpdateSchedule shifted = sch;
                         const sched::UpdateId shift = rep * 1'000'000'000ULL;
                         for (auto& su : shifted.updates) {
                           su.update.id += shift;
                           for (auto& d : su.deps) d += shift;
                         }
                         for (const auto id : tracker.add(shifted)) ready.push_back(id);
                         while (!ready.empty()) {
                           const auto id = ready.front();
                           ready.pop_front();
                           for (const auto more : tracker.complete(id)) ready.push_back(more);
                         }
                         updates += shifted.size();
                       }
                     }
                     if (tracker.pending() != 0) throw std::runtime_error("tracker leaked updates");
                     return updates;
                   });
  }

  // --- sim: the retransmit-timer pattern ---------------------------------
  {
    Scope s(spans, "replay.timers", "sim");
    c.timer_ns = 1e9 * seconds_per_op(3, [&] {
                   sim::Simulator sim;
                   constexpr std::size_t kWindow = 64;  // outstanding timers
                   std::vector<sim::Simulator::TimerId> ring(kWindow);
                   const std::size_t n = n_of(400'000);
                   for (std::size_t i = 0; i < n; ++i) {
                     auto& slot = ring[i % kWindow];
                     if (slot.valid()) sim.cancel(slot);
                     slot = sim.after_cancellable(in.ack_timeout, [] {});
                   }
                   for (auto& slot : ring) {
                     if (slot.valid()) sim.cancel(slot);
                   }
                   return n;
                 });
  }

  // --- crypto and the audit log ------------------------------------------
  std::vector<sched::Update> updates;
  std::vector<util::Bytes> messages;
  for (const auto& sch : schedules) {
    for (const auto& su : sch.updates) {
      updates.push_back(su.update);
      messages.push_back(core::update_signing_bytes(su.update));
    }
  }
  crypto::Drbg drbg(0x7065'7266'6265'6e63ULL);
  const crypto::SchnorrKeyPair key = crypto::SchnorrKeyPair::generate(drbg);
  const std::size_t n = in.controllers;
  const std::size_t t = threshold_of(n);
  std::vector<crypto::ShareIndex> members;
  for (std::size_t i = 1; i <= n; ++i) members.push_back(static_cast<crypto::ShareIndex>(i));
  std::vector<crypto::DkgParticipant::Result> dkg;
  {
    Scope s(spans, "replay.run_dkg", "crypto");
    c.dkg_ms = 1e3 * seconds_per_op(in.small ? 1 : 3, [&] {
                 dkg = crypto::run_dkg(members, t, drbg);
                 return std::size_t{1};
               });
  }
  const crypto::SimBlsScheme& bls = crypto::SimBlsScheme::instance();
  std::vector<crypto::SchnorrSignature> sigs;
  {
    Scope s(spans, "replay.schnorr", "crypto");
    const std::size_t k = std::min(messages.size(), n_of(200));
    c.schnorr_sign_us = 1e6 * seconds_per_op(3, [&] {
                          sigs.clear();
                          for (std::size_t i = 0; i < k; ++i) {
                            sigs.push_back(crypto::schnorr_sign(key, messages[i]));
                          }
                          return k;
                        });
    c.schnorr_verify_us = 1e6 * seconds_per_op(3, [&] {
                            for (std::size_t i = 0; i < k; ++i) {
                              if (!crypto::schnorr_verify(key.pk, messages[i], sigs[i])) {
                                throw std::runtime_error("schnorr replay: bad signature");
                              }
                            }
                            return k;
                          });
  }
  std::vector<std::vector<crypto::PartialSignature>> partials;
  std::vector<util::Bytes> agg_sigs;
  {
    Scope s(spans, "replay.threshold", "crypto");
    const std::size_t k = std::min(messages.size(), n_of(100));
    c.partial_sign_us = 1e6 * seconds_per_op(3, [&] {
                          partials.assign(k, {});
                          for (std::size_t i = 0; i < k; ++i) {
                            for (std::size_t j = 0; j < t; ++j) {
                              partials[i].push_back(bls.partial_sign(dkg[j].share, messages[i]));
                            }
                          }
                          return k * t;
                        });
    c.partial_verify_us = 1e6 * seconds_per_op(3, [&] {
                            for (std::size_t i = 0; i < k; ++i) {
                              const auto& p = partials[i][0];
                              if (!bls.verify_partial(dkg[0].verification_shares.at(p.signer),
                                                      messages[i], p)) {
                                throw std::runtime_error("threshold replay: bad partial");
                              }
                            }
                            return k;
                          });
    c.aggregate_us = 1e6 * seconds_per_op(3, [&] {
                       agg_sigs.clear();
                       for (std::size_t i = 0; i < k; ++i) {
                         auto sig = bls.aggregate(messages[i], partials[i], t);
                         if (!sig) throw std::runtime_error("threshold replay: aggregate failed");
                         agg_sigs.push_back(std::move(*sig));
                       }
                       return k;
                     });
    c.threshold_verify_us = 1e6 * seconds_per_op(3, [&] {
                              for (std::size_t i = 0; i < k; ++i) {
                                if (!bls.verify(dkg[0].group_public_key, messages[i],
                                                agg_sigs[i])) {
                                  throw std::runtime_error("threshold replay: bad signature");
                                }
                              }
                              return k;
                            });
  }
  {
    Scope s(spans, "replay.audit_append", "core.audit");
    const std::size_t k = std::min(messages.size(), n_of(300));
    c.append_us = 1e6 * seconds_per_op(3, [&] {
                    core::AuditLog log;
                    for (std::size_t i = 0; i < k; ++i) {
                      log.append(core::EventId{updates[i].switch_node, i}, messages[i], key);
                    }
                    return k;
                  });
  }

  // --- core.messages: the four update-carrying codecs --------------------
  {
    Scope s(spans, "replay.codecs", "core.messages");
    const crypto::PartialSignature placeholder{1, {0x00}};
    std::vector<util::Bytes> wires;
    std::vector<std::uint8_t> tags;  // which codec produced wires[i]
    std::map<sched::UpdateId, std::vector<core::SegmentPeer>> succs;
    for (const auto& sch : schedules) {
      for (const auto& su : sch.updates) {
        for (const auto d : su.deps) {
          succs[d].push_back({su.update.id, su.update.switch_node, su.update.switch_node});
        }
      }
    }
    const std::size_t k = std::min(updates.size(), n_of(2000));
    const auto encode_all = [&] {
      wires.clear();
      tags.clear();
      std::size_t i = 0;
      for (const auto& sch : schedules) {
        for (const auto& su : sch.updates) {
          if (i >= k) return;
          const crypto::PartialSignature& partial =
              in.real_crypto ? partials[i % partials.size()][0] : placeholder;
          const util::Bytes agg = in.real_crypto ? agg_sigs[i % agg_sigs.size()] : util::Bytes{0x00};
          const core::EventId cause{su.update.switch_node, i};
          core::UpdateMsg um{su.update, cause, partial, {}};
          wires.push_back(um.encode());
          core::ManifestMsg mm;
          mm.manifest.update = su.update;
          for (const auto d : su.deps) mm.manifest.preds.push_back({d, 0, 0});
          const auto it = succs.find(su.update.id);
          if (it != succs.end()) mm.manifest.succs = it->second;
          mm.manifest.sink = su.deps.empty();
          mm.cause = cause;
          mm.partial = partial;
          wires.push_back(mm.encode());
          core::PartialShareMsg ps{su.update.id, core::signing_digest64(messages[i]), partial};
          wires.push_back(ps.encode());
          core::AggregatedUpdateMsg au{su.update, cause, agg};
          wires.push_back(au.encode());
          tags.insert(tags.end(), {0, 1, 2, 3});
          ++i;
        }
      }
    };
    double bytes = 0.0;
    const double enc_s = seconds_per_op(3, [&] {
      encode_all();
      bytes = 0.0;
      for (const auto& w : wires) bytes += static_cast<double>(w.size());
      return std::size_t{1};
    });
    const double dec_s = seconds_per_op(3, [&] {
      std::size_t ok = 0;
      for (std::size_t i = 0; i < wires.size(); ++i) {
        switch (tags[i]) {
          case 0: ok += core::UpdateMsg::decode(wires[i]).has_value(); break;
          case 1: ok += core::ManifestMsg::decode(wires[i]).has_value(); break;
          case 2: ok += core::PartialShareMsg::decode(wires[i]).has_value(); break;
          default: ok += core::AggregatedUpdateMsg::decode(wires[i]).has_value(); break;
        }
      }
      if (ok != wires.size()) throw std::runtime_error("codec replay: decode failed");
      return std::size_t{1};
    });
    c.encode_MBps = bytes / 1e6 / enc_s;
    c.decode_MBps = bytes / 1e6 / dec_s;
  }

  // --- bft: a bare replica group ordering the workload's flow events -----
  {
    Scope s(spans, "replay.pbft_order", "bft");
    c.order_us = 1e6 * seconds_per_op(in.small ? 1 : 3, [&] {
                   sim::Simulator sim;
                   sim::NetworkSim network(sim);
                   std::vector<sim::NodeId> nodes;
                   std::vector<crypto::SchnorrKeyPair> kps;
                   std::vector<crypto::Point> pks;
                   crypto::Drbg kd(4242);
                   for (std::size_t i = 0; i < n; ++i) {
                     nodes.push_back(network.add_node(std::to_string(i)));
                     kps.push_back(crypto::SchnorrKeyPair::generate(kd));
                     pks.push_back(kps.back().pk);
                   }
                   std::size_t delivered = 0;
                   std::vector<std::unique_ptr<bft::PbftReplica>> replicas;
                   for (std::size_t i = 0; i < n; ++i) {
                     bft::PbftConfig cfg;
                     cfg.id = static_cast<bft::ReplicaId>(i);
                     cfg.group = nodes;
                     cfg.sign_messages = false;  // DeploymentParams::sign_bft_messages default
                     replicas.push_back(std::make_unique<bft::PbftReplica>(
                         sim, network, cfg, bft::PbftKeys{kps[i], pks},
                         [&delivered, i](bft::SeqNum, const util::Bytes&) {
                           if (i == 0) ++delivered;
                         }));
                     network.set_handler(nodes[i], [&replicas, i](sim::NodeId from,
                                                                  const util::Bytes& m) {
                       replicas[i]->on_message(from, m);
                     });
                   }
                   const std::size_t k = std::min(flows.size(), n_of(400));
                   for (std::size_t i = 0; i < k; ++i) {
                     core::Event e;
                     e.id = {topo.host_tor(flows[i].src_host), i};
                     e.match = {flows[i].src_host, flows[i].dst_host};
                     e.reserved_bps = flows[i].reserved_bps;
                     e.sig.assign(64, 0);
                     util::Bytes payload = e.encode();
                     sim.at(flows[i].arrival, [&replicas, i, payload = std::move(payload)] {
                       replicas[i % replicas.size()]->submit(payload);
                     });
                   }
                   sim.run_until(flows[k - 1].arrival + sim::seconds(5));
                   if (delivered != k) throw std::runtime_error("pbft replay: requests lost");
                   return k;
                 });
  }
  return c;
}

}  // namespace perfbench
