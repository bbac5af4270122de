// Fig. 12b — percentage of all events that each control plane must
// process, as the number of domains in one pod grows from 1 to 10.
//
// Paper shape: with one domain every event hits the single control plane
// (100 %); splitting the pod sharply reduces each plane's share, with
// diminishing returns; the web-server workload (31.6 % multi-domain
// events) keeps shares higher than Hadoop (5.8 %).
//
// Like the paper's analysis this is a locality computation over the
// workload's routes: an event is charged to every domain whose switches
// its route touches.
#include "bench_common.hpp"

#include <set>

namespace {

using namespace cicero;
using namespace cicero::bench;

/// Splits the pod's switches into `d` domains: ToR r -> domain r % d,
/// edge switch e -> domain e % d (approximating the paper's intra-pod
/// split).
net::Topology split_pod(std::size_t d) {
  net::Topology topo = net::build_pod(bench_pod());
  std::size_t tor = 0, edge = 0;
  for (const auto sw : topo.switches()) {
    const bool is_tor = topo.node(sw).name.find("tor") != std::string::npos;
    topo.set_domain(sw, static_cast<net::DomainId>(is_tor ? tor++ % d : edge++ % d));
  }
  return topo;
}

double mean_share(const net::Topology& topo, workload::WorkloadKind kind, std::size_t d) {
  workload::WorkloadParams wp;
  wp.kind = kind;
  wp.flow_count = 4000;
  wp.seed = 11;
  const auto flows = workload::WorkloadGenerator(topo, wp).generate();

  std::map<net::DomainId, std::size_t> processed;
  for (const auto dom : topo.domains()) processed[dom] = 0;
  for (const auto& f : flows) {
    const auto path = topo.shortest_path(f.src_host, f.dst_host);
    std::set<net::DomainId> touched;
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      touched.insert(topo.node(path[i]).domain);
    }
    for (const auto dom : touched) ++processed[dom];
  }
  double mean = 0.0;
  for (const auto& [dom, count] : processed) {
    mean += static_cast<double>(count) / static_cast<double>(flows.size());
  }
  return mean / static_cast<double>(d) * 100.0;  // mean % per control plane...

}

}  // namespace

int main() {
  print_header("Fig. 12b", "% of events processed per control plane vs #domains in a pod");

  // No deployment runs here (pure locality analysis), so the report
  // carries the share table itself as gauges.
  obs::RunReport report("fig12b_event_locality");
  report.set_meta("flows_per_point", std::int64_t{4000});
  obs::MetricsRegistry shares(true);

  std::printf("%-10s %16s %16s\n", "#domains", "MD Hadoop", "MD Webserver");
  double hadoop1 = 0.0;
  for (std::size_t d = 1; d <= 10; ++d) {
    const net::Topology topo = split_pod(d);
    const double h = mean_share(topo, workload::WorkloadKind::kHadoop, d);
    const double w = mean_share(topo, workload::WorkloadKind::kWebServer, d);
    if (d == 1) hadoop1 = h;
    shares.gauge("hadoop.share_pct.d" + std::to_string(d)).set(h);
    shares.gauge("web_server.share_pct.d" + std::to_string(d)).set(w);
    std::printf("%-10zu %15.1f%% %15.1f%%\n", d, h, w);
  }
  report.add_metrics(shares);
  std::printf("\n# paper shape: 100%% at one domain, steep drop then diminishing\n");
  std::printf("# returns; webserver shares exceed Hadoop at every split\n");
  std::printf("# (single-domain share measured: %.0f%%)\n", hadoop1);
  write_report(report, "fig12b");
  return 0;
}
