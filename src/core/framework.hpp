// Evaluated frameworks and the Table 2 capability matrix.
//
// The paper's evaluation compares four update frameworks (§6.1); the same
// enum selects the deployment wiring throughout this repository.  The
// capability matrix reproduces Table 2 as data derived from what each
// implementation actually does, so `bench_table2_features` prints it from
// code rather than prose.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cicero::core {

enum class FrameworkKind : std::uint8_t {
  kCentralized = 0,    ///< singleton controller, no replication, no auth
  kCrashTolerant = 1,  ///< BFT-ordered control plane, NO quorum auth on switches
  kCicero = 2,         ///< full protocol, switch-side signature aggregation
  kCiceroAgg = 3,      ///< full protocol, controller-side aggregation (§4.2)
};

const char* framework_name(FrameworkKind kind);

/// Cicero frameworks: threshold-signed updates, signed acks, quorum
/// authentication at the switches.
constexpr bool threshold_signed(FrameworkKind kind) {
  return kind == FrameworkKind::kCicero || kind == FrameworkKind::kCiceroAgg;
}

/// Baselines deployed as one control plane spanning every domain.
constexpr bool global_plane(FrameworkKind kind) { return !threshold_signed(kind); }

/// How threshold-signed updates reach the data plane.  The controller-driven
/// mode is the paper's shape: one southbound round trip per segment, the
/// dependency tracker releasing each update when its predecessors ack.  The
/// decentralized mode (ez-Segway-style) pushes the whole signed schedule to
/// the switches up front as per-segment manifests; switches then coordinate
/// in-band with signed SegmentDone signals and only the sink segment of each
/// chain reports back, cutting controller messages per update and removing
/// the per-segment controller round trip from the critical path.
enum class ExecutionMode : std::uint8_t {
  kControllerDriven = 0,  ///< controller releases one update per ack round trip
  kDecentralized = 1,     ///< switches sequence the chain in-band (§ DESIGN.md 15)
};

const char* execution_mode_name(ExecutionMode mode);

/// Where threshold partials are combined into the aggregate signature.
/// `kNone` keeps the framework's own shape (switch-side collection under
/// `kCicero`, controller-side under `kCiceroAgg`).  `kInNetwork` is the
/// P4BFT-style offload: one designated aggregator switch per control
/// domain collects the replicas' partials, compares response digests
/// (matching-digest quorum before aggregation, mismatches reported via
/// the signed-event path), aggregates, and fans the single signed update
/// out to the target switch — so each replica sends one small message
/// per update instead of one full copy per participating switch
/// (§ DESIGN.md 16).  `delivery_of` says which combinations are valid.
enum class AggregationMode : std::uint8_t {
  kNone = 0,       ///< aggregate where the framework says (switch or controller)
  kInNetwork = 1,  ///< designated aggregator switch per domain (P4BFT-style)
};

const char* aggregation_mode_name(AggregationMode mode);

/// The path each threshold-signed update takes to the data plane — the
/// one value the controller and switch runtimes branch on (DESIGN.md §4.2b).
/// `delivery_of` (deployment.hpp) derives it from the public parameters
/// and rejects every combination that has no path.
enum class Delivery : std::uint8_t {
  kDirect = 0,         ///< every replica sends its copy to the target switch
  kControllerAgg = 1,  ///< the lowest-id replica aggregates (§4.2)
  kInNetwork = 2,      ///< a designated aggregator switch aggregates (§16)
  kDecentralized = 3,  ///< signed manifests, switches sequence in-band (§15)
};

/// One row of Table 2.
struct Capabilities {
  std::string system;
  bool crash_tolerant = false;
  bool byzantine_tolerant = false;
  bool controller_authentication = false;
  bool dynamic_membership = false;
  bool update_consistent = false;
  bool update_domains = false;
  std::string implementation;
};

/// Capabilities of this repository's frameworks (the Cicero rows are the
/// paper's claims, backed by the tests named in EXPERIMENTS.md) plus the
/// related-work rows of Table 2 for the printed comparison.
std::vector<Capabilities> table2_rows();

}  // namespace cicero::core
