#include "obs/critpath.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace cicero::obs {
namespace {

constexpr std::int64_t sim_ms(std::int64_t v) { return v * 1'000'000; }

constexpr std::size_t P(CritPhase p) { return static_cast<std::size_t>(p); }

/// Drives one update through the full milestone chain with 5 ms spacing.
void record_full_chain(CritPath& cp, std::uint64_t id, std::int64_t base_ms) {
  cp.event_submitted(0, id, sim_ms(base_ms));
  cp.update_scheduled(id, 0, id, sim_ms(base_ms + 5));
  cp.update_released(id, sim_ms(base_ms + 10));
  cp.update_signed(id, sim_ms(base_ms + 15));
  cp.update_rx(id, sim_ms(base_ms + 20));
  cp.update_applied(id, sim_ms(base_ms + 25));
  cp.update_acked(id, sim_ms(base_ms + 30));
}

TEST(CritPath, FullChainPartitionsEndToEnd) {
  CritPath cp;
  record_full_chain(cp, 1, 0);

  const CritPath::Record* r = cp.find(1);
  ASSERT_NE(r, nullptr);
  const CritPath::PathBreakdown b = CritPath::attribute(*r);
  ASSERT_TRUE(b.complete);
  EXPECT_DOUBLE_EQ(b.total_ms, 30.0);
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kOrder)], 5.0);
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kDependencyWait)], 5.0);
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kSign)], 5.0);
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kPropagate)], 10.0);  // both legs
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kApply)], 5.0);
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kRetransmit)], 0.0);
  EXPECT_DOUBLE_EQ(b.attributed, 1.0);
}

TEST(CritPath, MissingInteriorMilestoneCollapsesToZeroWidthPhase) {
  CritPath cp;
  cp.event_submitted(0, 9, sim_ms(0));
  cp.update_scheduled(9, 0, 9, sim_ms(4));
  // No release / sign / rx / applied observed — only the ack.
  cp.update_acked(9, sim_ms(40));

  const CritPath::PathBreakdown b = CritPath::attribute(*cp.find(9));
  ASSERT_TRUE(b.complete);
  EXPECT_DOUBLE_EQ(b.total_ms, 40.0);
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kOrder)], 4.0);
  // Everything after the schedule collapses onto the apply->ack leg.
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kDependencyWait)], 0.0);
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kSign)], 0.0);
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kApply)], 0.0);
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kPropagate)], 36.0);
  EXPECT_DOUBLE_EQ(b.attributed, 1.0);
}

TEST(CritPath, OutOfOrderTimestampsNeverGoNegative) {
  CritPath cp;
  cp.event_submitted(0, 2, sim_ms(10));
  cp.update_scheduled(2, 0, 2, sim_ms(8));  // before submit: clamped up
  cp.update_released(2, sim_ms(12));
  cp.update_signed(2, sim_ms(11));  // before release: clamped up
  cp.update_rx(2, sim_ms(20));
  cp.update_applied(2, sim_ms(22));
  cp.update_acked(2, sim_ms(25));

  const CritPath::PathBreakdown b = CritPath::attribute(*cp.find(2));
  ASSERT_TRUE(b.complete);
  for (double v : b.phase_ms) EXPECT_GE(v, 0.0);
  double sum = 0.0;
  for (double v : b.phase_ms) sum += v;
  EXPECT_DOUBLE_EQ(sum, b.total_ms);
  EXPECT_DOUBLE_EQ(b.attributed, 1.0);
}

TEST(CritPath, RetransmitSplitsInFlightLeg) {
  CritPath cp;
  cp.event_submitted(0, 3, sim_ms(0));
  cp.update_scheduled(3, 0, 3, sim_ms(1));
  cp.update_released(3, sim_ms(1));
  cp.update_signed(3, sim_ms(2));
  // Two resends in the controller->switch leg; rx only at 30 ms.
  cp.update_retransmitted(3, sim_ms(12));
  cp.update_retransmitted(3, sim_ms(24));
  cp.update_rx(3, sim_ms(30));
  cp.update_applied(3, sim_ms(31));
  cp.update_acked(3, sim_ms(33));

  const CritPath::Record* r = cp.find(3);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->retransmits, 2u);
  EXPECT_EQ(r->last_retransmit, sim_ms(24));

  const CritPath::PathBreakdown b = CritPath::attribute(*r);
  ASSERT_TRUE(b.complete);
  // Leg 1 is [2, 30]; the stretch up to the last resend (24) is stall.
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kRetransmit)], 22.0);
  // Remaining leg-1 flight (6 ms) plus the clean apply->ack leg (2 ms).
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kPropagate)], 8.0);
  EXPECT_DOUBLE_EQ(b.attributed, 1.0);
}

TEST(CritPath, RetransmitBeforeLegStartCountsNothing) {
  CritPath cp;
  cp.event_submitted(0, 4, sim_ms(0));
  cp.update_scheduled(4, 0, 4, sim_ms(1));
  cp.update_released(4, sim_ms(2));
  // A session resend logged before the signed update went out.
  cp.update_retransmitted(4, sim_ms(3));
  cp.update_signed(4, sim_ms(10));
  cp.update_rx(4, sim_ms(14));
  cp.update_applied(4, sim_ms(15));
  cp.update_acked(4, sim_ms(17));

  const CritPath::PathBreakdown b = CritPath::attribute(*cp.find(4));
  ASSERT_TRUE(b.complete);
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kRetransmit)], 0.0);
  EXPECT_DOUBLE_EQ(b.phase_ms[P(CritPhase::kPropagate)], 6.0);
}

TEST(CritPath, IncompleteRecordsAreCountedNotAttributed) {
  CritPath cp;
  record_full_chain(cp, 1, 0);
  // Update 2 never acks.
  cp.event_submitted(0, 2, sim_ms(0));
  cp.update_scheduled(2, 0, 2, sim_ms(5));
  cp.update_rx(2, sim_ms(9));
  // Update 3 acks but its submit was never seen (no cause event).
  cp.update_scheduled(3, 1, 77, sim_ms(2));
  cp.update_acked(3, sim_ms(6));

  const CritPath::Summary s = cp.summarize();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.incomplete, 2u);
  EXPECT_DOUBLE_EQ(s.end_to_end_total_ms, 30.0);
  EXPECT_DOUBLE_EQ(s.attributed_min, 1.0);
  EXPECT_DOUBLE_EQ(s.attributed_mean, 1.0);
}

TEST(CritPath, FirstObservationWinsPerMilestone) {
  CritPath cp;
  cp.update_rx(5, sim_ms(10));
  cp.update_rx(5, sim_ms(20));  // duplicate delivery: ignored
  cp.update_acked(5, sim_ms(30));
  cp.update_acked(5, sim_ms(40));
  const CritPath::Record* r = cp.find(5);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->rx, sim_ms(10));
  EXPECT_EQ(r->acked, sim_ms(30));
}

TEST(CritPath, SharedCauseEventFansOutToAllUpdates) {
  CritPath cp;
  cp.event_submitted(2, 7, sim_ms(3));
  cp.update_scheduled(10, 2, 7, sim_ms(8));
  cp.update_scheduled(11, 2, 7, sim_ms(9));
  ASSERT_NE(cp.find(10), nullptr);
  ASSERT_NE(cp.find(11), nullptr);
  EXPECT_EQ(cp.find(10)->submit, sim_ms(3));
  EXPECT_EQ(cp.find(11)->submit, sim_ms(3));
}

TEST(CritPath, SummarizeOrdersSlowestDescWithIdTieBreak) {
  CritPath cp;
  record_full_chain(cp, 4, 0);    // 30 ms
  record_full_chain(cp, 2, 100);  // 30 ms (tie with 4 -> lower id first)
  cp.event_submitted(0, 8, sim_ms(200));
  cp.update_scheduled(8, 0, 8, sim_ms(201));
  cp.update_acked(8, sim_ms(290));  // 90 ms, the slowest

  const CritPath::Summary s = cp.summarize(/*top_k=*/2);
  ASSERT_EQ(s.slowest.size(), 2u);
  EXPECT_EQ(s.slowest[0].id, 8u);
  EXPECT_DOUBLE_EQ(s.slowest[0].total_ms, 90.0);
  EXPECT_EQ(s.slowest[1].id, 2u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_DOUBLE_EQ(s.end_to_end_p50_ms, 30.0);
  EXPECT_DOUBLE_EQ(s.end_to_end_p99_ms, 90.0);
}

TEST(CritPath, PhaseBytesAccumulateAndSurfaceInSummary) {
  CritPath cp;
  cp.add_phase_bytes(CritPhase::kOrder, 100);
  cp.add_phase_bytes(CritPhase::kOrder, 23);
  cp.add_phase_bytes(CritPhase::kRetransmit, 7);
  EXPECT_EQ(cp.phase_bytes(CritPhase::kOrder), 123u);
  const CritPath::Summary s = cp.summarize();
  EXPECT_EQ(s.phases[P(CritPhase::kOrder)].bytes, 123u);
  EXPECT_EQ(s.phases[P(CritPhase::kRetransmit)].bytes, 7u);
  EXPECT_EQ(s.phases[P(CritPhase::kSign)].bytes, 0u);
}

TEST(CritPath, MergeFromFoldsDisjointShards) {
  CritPath a;
  record_full_chain(a, 1, 0);
  a.add_phase_bytes(CritPhase::kPropagate, 10);
  CritPath b;
  record_full_chain(b, 2, 50);
  b.add_phase_bytes(CritPhase::kPropagate, 5);

  a.merge_from(b);
  EXPECT_EQ(a.tracked_updates(), 2u);
  EXPECT_EQ(a.phase_bytes(CritPhase::kPropagate), 15u);
  const CritPath::Summary s = a.summarize();
  EXPECT_EQ(s.completed, 2u);
  EXPECT_DOUBLE_EQ(s.attributed_min, 1.0);
}

TEST(CritPath, MergeFromCollisionTakesEarliestMilestones) {
  CritPath a;
  a.update_rx(1, sim_ms(20));
  a.update_retransmitted(1, sim_ms(15));
  CritPath b;
  b.update_rx(1, sim_ms(10));
  b.update_acked(1, sim_ms(30));
  b.update_retransmitted(1, sim_ms(18));

  a.merge_from(b);
  const CritPath::Record* r = a.find(1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->rx, sim_ms(10));       // earliest observation wins
  EXPECT_EQ(r->acked, sim_ms(30));    // -1 filled from the other shard
  EXPECT_EQ(r->last_retransmit, sim_ms(18));  // latest resend wins
  EXPECT_EQ(r->retransmits, 2u);
}

TEST(CritPath, SummarizeIsDeterministicAcrossInsertionOrder) {
  CritPath fwd;
  CritPath rev;
  for (std::uint64_t id = 1; id <= 20; ++id) {
    record_full_chain(fwd, id, static_cast<std::int64_t>(id) * 7);
  }
  for (std::uint64_t id = 20; id >= 1; --id) {
    record_full_chain(rev, id, static_cast<std::int64_t>(id) * 7);
  }
  const CritPath::Summary a = fwd.summarize();
  const CritPath::Summary b = rev.summarize();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.end_to_end_total_ms, b.end_to_end_total_ms);  // bit-identical
  EXPECT_EQ(a.end_to_end_p99_ms, b.end_to_end_p99_ms);
  ASSERT_EQ(a.slowest.size(), b.slowest.size());
  for (std::size_t i = 0; i < a.slowest.size(); ++i) {
    EXPECT_EQ(a.slowest[i].id, b.slowest[i].id);
    EXPECT_EQ(a.slowest[i].total_ms, b.slowest[i].total_ms);
  }
}

TEST(CritPath, ClearResetsRecordsAndBytes) {
  CritPath cp;
  record_full_chain(cp, 1, 0);
  cp.add_phase_bytes(CritPhase::kApply, 9);
  cp.clear();
  EXPECT_EQ(cp.tracked_updates(), 0u);
  EXPECT_EQ(cp.phase_bytes(CritPhase::kApply), 0u);
  EXPECT_EQ(cp.find(1), nullptr);
}

}  // namespace
}  // namespace cicero::obs
