// Observability overhead guard: recording metrics, and tracing while it
// is off, must cost (almost) nothing.
//
// These properties are ASSERTED (non-zero exit on violation), so this
// bench doubles as a regression gate (ctest runs it as `obs_overhead`):
//   1. counter.inc / histogram.observe perform ZERO heap allocations
//      (all storage is resolved at handle-construction time);
//   2. record calls against a DISABLED tracer allocate nothing either;
//   3. NetworkSim::multicast copies the payload once per fan-out, not
//      once per destination (allocated bytes stay ~1 payload no matter
//      how many recipients);
//   4. encoding an UpdateMsg, or a BftMessage carrying a request, is one
//      allocation of exactly the encoded size;
//   5. scheduling and running an event whose capture is as large as a
//      network delivery's allocates nothing (sim::Callback keeps it
//      inline);
//   6. a small end-to-end deployment stays within an allocation budget
//      per simulated event.
// Wall-clock per-op costs are printed for information only (they vary
// with the host and are not asserted).
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bft/messages.hpp"
#include "core/deployment.hpp"
#include "core/messages.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "workload/topo_gen.hpp"
#include "workload/workload.hpp"

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;
bool g_counting = false;
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) {
    ++g_allocs;
    g_bytes += n;
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

constexpr std::uint64_t kIters = 5'000'000;

struct Probe {
  std::uint64_t allocs = 0;
  double ns_per_op = 0.0;
};

template <typename Fn>
Probe measure(Fn&& body) {
  using clock = std::chrono::steady_clock;
  g_allocs = 0;
  g_counting = true;
  const auto t0 = clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) body(i);
  const auto t1 = clock::now();
  g_counting = false;
  Probe p;
  p.allocs = g_allocs;
  p.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / static_cast<double>(kIters);
  return p;
}

/// Allocations made by `body`, run once.
template <typename Fn>
std::uint64_t count_allocs(Fn&& body) {
  g_allocs = 0;
  g_counting = true;
  body();
  g_counting = false;
  return g_allocs;
}

/// Encodes `encode()` 1000 times; each must be one exactly-sized allocation.
template <typename Encode>
int check_encode(const char* label, Encode&& encode) {
  constexpr std::uint64_t kEncodes = 1000;
  std::size_t size = 0;
  std::size_t capacity = 0;
  const std::uint64_t allocs = count_allocs([&] {
    for (std::uint64_t i = 0; i < kEncodes; ++i) {
      const cicero::util::Bytes wire = encode();
      size = wire.size();
      capacity = wire.capacity();
    }
  });
  std::printf("%-28s %8.2f allocs/encode  %zu B (capacity %zu)\n", label,
              static_cast<double>(allocs) / kEncodes, size, capacity);
  if (allocs != kEncodes || capacity != size) {
    std::fprintf(stderr, "FAIL: %s is not one exactly-sized allocation\n", label);
    return 1;
  }
  return 0;
}

int check(const char* label, const Probe& p) {
  std::printf("%-28s %8.2f ns/op   %10llu allocs\n", label, p.ns_per_op,
              static_cast<unsigned long long>(p.allocs));
  if (p.allocs != 0) {
    std::fprintf(stderr, "FAIL: %s allocated on the hot path\n", label);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  using namespace cicero;

  std::printf("obs hot-path overhead (%llu iterations per probe)\n",
              static_cast<unsigned long long>(kIters));

  int failures = 0;

  {
    obs::MetricsRegistry reg;
    obs::Counter c = reg.counter("bench.counter");
    obs::Histogram h = reg.histogram("bench.histogram_ms", obs::latency_buckets_ms());
    failures += check("counter.inc", measure([&](std::uint64_t) { c.inc(); }));
    failures += check("histogram.observe",
                      measure([&](std::uint64_t i) { h.observe(static_cast<double>(i & 1023)); }));
  }

  {
    obs::Tracer tracer;  // disabled by default
    std::int64_t t = 0;
    tracer.set_clock([&t] { return t++; });
    failures += check("tracer.complete (disabled)", measure([&](std::uint64_t i) {
                        tracer.complete(1, 0, "span", static_cast<std::int64_t>(i), 10);
                      }));
    failures += check("tracer.instant (disabled)",
                      measure([&](std::uint64_t) { tracer.instant(1, 0, "mark"); }));
    if (tracer.event_count() != 0) {
      std::fprintf(stderr, "FAIL: disabled tracer buffered %zu events\n", tracer.event_count());
      ++failures;
    }
  }

  {
    // Multicast fan-out: the shared-payload send path must allocate the
    // message bytes ONCE per fan-out, not once per destination.  With a
    // 1 MiB payload and 64 recipients, per-destination copying would
    // allocate ~64 MiB; the shared path stays within 2 payloads (one
    // shared copy + per-event bookkeeping, which is KBs, not MBs).
    sim::Simulator sim;
    sim::NetworkSim net(sim);
    constexpr std::size_t kDst = 64;
    constexpr std::size_t kPayload = 1 << 20;
    const sim::NodeId src = net.add_node("src");
    std::vector<sim::NodeId> dst;
    std::uint64_t delivered = 0;
    for (std::size_t i = 0; i < kDst; ++i) {
      const sim::NodeId node = net.add_node("dst" + std::to_string(i));
      net.set_handler(node,
                      [&delivered](sim::NodeId, const util::Bytes&) { ++delivered; });
      dst.push_back(node);
    }
    const util::Bytes payload(kPayload, 0xAB);
    g_allocs = 0;
    g_bytes = 0;
    g_counting = true;
    net.multicast(src, dst, payload);
    sim.run();
    g_counting = false;
    std::printf("%-28s %8.2f MB allocated, %llu allocs (%zu-way 1 MiB fan-out)\n",
                "net.multicast (shared)", static_cast<double>(g_bytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(g_allocs), kDst);
    if (delivered != kDst) {
      std::fprintf(stderr, "FAIL: multicast delivered %llu of %zu\n",
                   static_cast<unsigned long long>(delivered), kDst);
      ++failures;
    }
    if (g_bytes > 2 * kPayload) {
      std::fprintf(stderr, "FAIL: multicast send path copied the payload per destination\n");
      ++failures;
    }
  }

  {
    // Exact-size encoding: the size-only pass, then one reservation.
    core::UpdateMsg um;
    um.update.id = 0x1234;
    um.update.rule.reserved_bps = 1e6;
    um.cause = core::EventId{7, 9};
    um.partial = crypto::PartialSignature{2, util::Bytes(65, 0x5A)};
    failures += check_encode("encode UpdateMsg", [&um] { return um.encode(); });

    bft::BftMessage pp;
    pp.type = bft::BftMsgType::kPrePrepare;
    pp.view = 1;
    pp.seq = 42;
    pp.request = bft::BftRequest{1, 3, util::Bytes(220, 0xA5)};
    pp.digest = pp.request->digest();
    const util::Bytes sig(64, 0x11);
    failures += check_encode("encode BftMessage+request", [&] { return pp.encode(sig); });
  }

  {
    // A capture laid out like NetworkSim::do_send's (node pointer, three
    // 32-bit ids, an owned buffer): scheduled and run without allocating.
    sim::Simulator sim;
    std::uint64_t ran = 0;
    const auto schedule = [&](std::uint64_t i) {
      auto fn = [counter = &ran, from = static_cast<std::uint32_t>(i), to = 2u, shard = 0u,
                 m = util::Bytes{}] { *counter += from + to + shard + m.size(); };
      static_assert(sizeof(fn) == 48 && sim::Callback::fits_inline<decltype(fn)>);
      sim.after(sim::microseconds(100), std::move(fn));
      sim.step();
    };
    schedule(0);  // grows the heap and the slot arena once
    failures += check("sim.after + step (48 B)", measure(schedule));
    if (ran == 0) ++failures;
  }

  {
    // End-to-end: allocations per simulated event over a small modeled-
    // crypto run (k = 4 fat-tree, 40 Hadoop flows), setup excluded.  It
    // measures 2.83 per event (Release and RelWithDebInfo alike); the
    // budget leaves ~25 % headroom.  It was 7.51 while closures went
    // through std::function and encodings grew one push_back at a time.
    constexpr double kBudgetPerEvent = 3.5;
    core::DeploymentParams dp;
    dp.framework = core::FrameworkKind::kCicero;
    dp.real_crypto = false;
    dp.seed = 42;
    core::Deployment dep(workload::fat_tree(4), dp);
    workload::WorkloadParams wp;
    wp.kind = workload::WorkloadKind::kHadoop;
    wp.flow_count = 40;
    wp.seed = 7;
    const auto flows = workload::WorkloadGenerator(dep.topology(), wp).generate();
    const std::uint64_t allocs = count_allocs([&] {
      dep.inject(flows);
      dep.run(sim::seconds(30));
    });
    const double events = static_cast<double>(dep.events_processed());
    const double per_event = static_cast<double>(allocs) / events;
    std::printf("%-28s %8.2f allocs/event  (%llu allocs, %.0f events; budget %.1f)\n",
                "deployment k=4, 40 flows", per_event, static_cast<unsigned long long>(allocs),
                events, kBudgetPerEvent);
    if (events == 0 || per_event > kBudgetPerEvent) {
      std::fprintf(stderr, "FAIL: end-to-end allocations per event above budget\n");
      ++failures;
    }
  }

  if (failures != 0) return 1;
  std::printf("\nPASS: no allocation and no lock on any probed hot path\n");
  return 0;
}
