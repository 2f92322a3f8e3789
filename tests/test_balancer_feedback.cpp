// Per-class TCM cell attribution (which classes produced these cells, split
// by the co-location partition) and the balancer -> governor feedback
// aggregate built from it.
#include <gtest/gtest.h>

#include "balance/balancer_feedback.hpp"

#include "ingest_helpers.hpp"
#include "core/djvm.hpp"
#include "profiling/tcm.hpp"

namespace djvm {
namespace {

IntervalRecord record(ThreadId thread, NodeId node,
                      std::vector<OalEntry> entries) {
  IntervalRecord r;
  r.thread = thread;
  r.node = node;
  r.entries = std::move(entries);
  return r;
}

/// One epoch's CSR over `records` (HT-weighted, as the daemon folds them).
ReaderArena csr(const std::vector<IntervalRecord>& records) {
  return csr_of(records, /*weighted=*/true);
}

TEST(TcmClassAttribution, SplitsPairMassByClassAgainstPlacement) {
  // Object 1 (class 7): read by threads 0 and 1 -> pair (0,1), min 100.
  // Object 2 (class 9): read by threads 0 and 2 -> pair (0,2), min 40.
  const ReaderArena arena = csr({record(0, 0, {{1, 7, 100, 1}, {2, 9, 50, 1}}),
                                 record(1, 0, {{1, 7, 120, 1}}),
                                 record(2, 1, {{2, 9, 40, 1}})});

  // Threads 0,1 on node 0; thread 2 on node 1: class 7's cell is local,
  // class 9's crosses the cut.
  const std::vector<NodeId> placement{0, 0, 1, 1};
  const TcmClassAttribution cells =
      TcmBuilder::attribute_cells(arena, 4, placement);
  ASSERT_GE(cells.cut_bytes.size(), 10u);
  EXPECT_DOUBLE_EQ(cells.local_bytes[7], 100.0);
  EXPECT_DOUBLE_EQ(cells.cut_bytes[7], 0.0);
  EXPECT_DOUBLE_EQ(cells.cut_bytes[9], 40.0);
  EXPECT_DOUBLE_EQ(cells.local_bytes[9], 0.0);
  EXPECT_DOUBLE_EQ(cells.total_pair_bytes(), 140.0);
  EXPECT_DOUBLE_EQ(cells.class_pair_bytes(7), 100.0);
  // Both endpoints of each pair carry the class's thread mass.
  EXPECT_DOUBLE_EQ(cells.thread_mass[7][0], 100.0);
  EXPECT_DOUBLE_EQ(cells.thread_mass[7][1], 100.0);
  EXPECT_DOUBLE_EQ(cells.thread_mass[9][2], 40.0);
}

TEST(TcmClassAttribution, HonorsHorvitzThompsonWeightingAndMaxCombining) {
  // Gap 4 entries weight as bytes x gap; a re-log at lower bytes must not
  // shrink the cell (max-combining).
  const ReaderArena arena =
      csr({record(0, 0, {{1, 3, 64, 4}}), record(1, 1, {{1, 3, 64, 4}}),
           record(0, 0, {{1, 3, 16, 4}})});
  const std::vector<NodeId> placement{0, 1};
  const TcmClassAttribution cells =
      TcmBuilder::attribute_cells(arena, 2, placement);
  EXPECT_DOUBLE_EQ(cells.cut_bytes[3], 256.0);
}

TEST(TcmClassAttribution, UnplacedThreadsAndUntaggedObjectsStayOutOfTheCut) {
  const ReaderArena arena =
      csr({record(0, 0, {{1, 2, 10, 1}}), record(2, 1, {{1, 2, 10, 1}})});
  // Thread 2 is beyond the placement vector: its pairs count as local.
  const std::vector<NodeId> short_placement{0, 0};
  EXPECT_DOUBLE_EQ(
      TcmBuilder::attribute_cells(arena, 3, short_placement).cut_bytes[2], 0.0);
  EXPECT_DOUBLE_EQ(
      TcmBuilder::attribute_cells(arena, 3, short_placement).local_bytes[2],
      10.0);

  // An untagged object (no class) contributes pair mass to the map but
  // nothing to the attribution.
  const ReaderArena untagged = csr({record(0, 0, {{42, kInvalidClass, 5, 1}}),
                                    record(1, 1, {{42, kInvalidClass, 7, 1}})});
  const std::vector<NodeId> placement{0, 1};
  EXPECT_TRUE(TcmBuilder::attribute_cells(untagged, 2, placement).empty());
  EXPECT_DOUBLE_EQ(TcmBuilder::accrue_sparse(untagged, 2).densify().at(0, 1),
                   5.0);
}

TEST(TcmClassAttribution, MergePropagatesClassTags) {
  ArenaScratch scratch;
  const ReaderArena a = csr({record(0, 0, {{1, 4, 10, 1}})});
  const ReaderArena b = csr({record(1, 1, {{1, 4, 10, 1}})});
  const ReaderArena ab = TcmBuilder::merge_arenas(a, b, scratch);
  const std::vector<NodeId> placement{0, 1};
  EXPECT_DOUBLE_EQ(TcmBuilder::attribute_cells(ab, 2, placement).cut_bytes[4],
                   10.0);

  const ReaderArena disjoint =
      csr({record(0, 0, {{2, 6, 8, 1}}), record(1, 1, {{2, 6, 8, 1}})});
  const ReaderArena all = TcmBuilder::merge_arenas(ab, disjoint, scratch);
  const TcmClassAttribution cells =
      TcmBuilder::attribute_cells(all, 2, placement);
  EXPECT_DOUBLE_EQ(cells.cut_bytes[4], 10.0);
  EXPECT_DOUBLE_EQ(cells.cut_bytes[6], 8.0);
}

TEST(TcmClassAttribution, FirstValidClassTagsAnObject) {
  // An untagged sighting first, then a tagged one: the object still
  // attributes to the tagged class.
  const ReaderArena arena = csr({record(0, 0, {{1, kInvalidClass, 10, 1}}),
                                 record(1, 1, {{1, 5, 10, 1}})});
  const std::vector<NodeId> placement{0, 1};
  EXPECT_DOUBLE_EQ(
      TcmBuilder::attribute_cells(arena, 2, placement).cut_bytes[5], 10.0);
}

TEST(BalancerFeedback, CutShareIsTheCoreInfluenceSignal) {
  TcmClassAttribution cells;
  cells.cut_bytes = {0.0, 60.0};
  cells.local_bytes = {100.0, 20.0};
  const BalancerFeedback fb = build_balancer_feedback(cells, {});
  EXPECT_TRUE(fb.valid);
  EXPECT_DOUBLE_EQ(fb.total_mass, 180.0);
  EXPECT_DOUBLE_EQ(fb.share(0), 0.0);    // all-local class: no influence
  EXPECT_DOUBLE_EQ(fb.share(1), 0.75);   // 60 of 80 on the cut
  EXPECT_DOUBLE_EQ(fb.share(5), 0.0);    // unseen class
}

TEST(BalancerFeedback, SuggestionGainsAttributeByThreadMassShare) {
  TcmClassAttribution cells;
  cells.cut_bytes = {0.0, 0.0};
  cells.local_bytes = {30.0, 10.0};
  cells.thread_mass = {{30.0, 0.0}, {10.0, 0.0}};
  MigrationSuggestion s;
  s.thread = 0;
  s.gain_bytes = 40.0;
  const BalancerFeedback fb =
      build_balancer_feedback(cells, {&s, 1}, /*suggestion_weight=*/1.0);
  // Thread 0's mass splits 3:1 across the classes -> 30 and 10 of the gain.
  EXPECT_DOUBLE_EQ(fb.influence[0], 30.0);
  EXPECT_DOUBLE_EQ(fb.influence[1], 10.0);
  EXPECT_DOUBLE_EQ(fb.share(0), 1.0);
}

TEST(BalancerFeedback, HomeMassFoldsInAtItsWeight) {
  TcmClassAttribution cells;
  cells.cut_bytes = {10.0};
  cells.local_bytes = {10.0};
  cells.home_mass = {40.0};
  const BalancerFeedback fb = build_balancer_feedback(
      cells, {}, /*suggestion_weight=*/1.0, /*home_weight=*/0.25);
  // Weighted home mass lands on both sides: influence 10 + 10, mass 20 + 10.
  EXPECT_DOUBLE_EQ(fb.influence[0], 20.0);
  EXPECT_DOUBLE_EQ(fb.share(0), 20.0 / 30.0);
}

TEST(BalancerFeedback, HomeMassOnlyClassStillEarnsAShare) {
  // A class whose objects are each read by one thread remotely from their
  // home: zero pair mass, pure home-affinity evidence.  It must not be
  // scored as balancer-ignored (share 0 would shed it first).
  TcmClassAttribution cells;
  cells.home_mass = {0.0, 80.0};
  EXPECT_FALSE(cells.empty());
  const BalancerFeedback fb = build_balancer_feedback(
      cells, {}, /*suggestion_weight=*/1.0, /*home_weight=*/0.25);
  EXPECT_TRUE(fb.valid);
  EXPECT_DOUBLE_EQ(fb.share(1), 1.0);
}

TEST(BalancerFeedback, EmptyEpochIsInvalid) {
  const BalancerFeedback fb = build_balancer_feedback({}, {});
  EXPECT_FALSE(fb.valid);
  EXPECT_DOUBLE_EQ(fb.total_mass, 0.0);
}

// --- daemon integration -------------------------------------------------------

class DaemonAttributionTest : public ::testing::Test {
 protected:
  DaemonAttributionTest() : heap(reg, 2), plan(heap), daemon(plan, 2) {
    shared = reg.register_class("Shared", 64);
    local = reg.register_class("Local", 64);
  }

  KlassRegistry reg;
  Heap heap;
  SamplingPlan plan;
  /// Declared before the daemon: drained arenas recycle into the feeder's
  /// hub at the daemon's next run_epoch, so the hub must be destroyed last.
  RecordFeeder feeder;
  CorrelationDaemon daemon;
  ClassId shared = kInvalidClass;
  ClassId local = kInvalidClass;
};

TEST_F(DaemonAttributionTest, RunEpochAttributesCellsAgainstPlacement) {
  const ObjectId a = heap.alloc(shared, 0);  // homed node 0
  const ObjectId b = heap.alloc(local, 1);
  plan.on_alloc(a);
  plan.on_alloc(b);
  daemon.set_influence_placement({0, 1});
  // Threads 0 (node 0) and 1 (node 1) both read `a` (cross pair) and thread
  // 1 alone reads `b` (no pair at all).  Thread 1 logs `a` remotely from its
  // home -> home mass.
  feeder.feed(daemon, {record(0, 0, {{a, shared, 64, 1}}),
                       record(1, 1, {{a, shared, 64, 1}, {b, local, 64, 1}})});
  const EpochResult out = daemon.run_epoch();
  ASSERT_FALSE(out.cells.empty());
  EXPECT_DOUBLE_EQ(out.cells.cut_bytes[shared], 64.0);
  EXPECT_DOUBLE_EQ(out.cells.class_pair_bytes(local), 0.0);
  ASSERT_GT(out.cells.home_mass.size(), shared);
  EXPECT_DOUBLE_EQ(out.cells.home_mass[shared], 64.0);  // thread 1's remote log

  // The window was consumed: a second epoch with no records has no cells.
  EXPECT_TRUE(daemon.run_epoch().cells.empty());

  // Attribution off without a placement.
  daemon.set_influence_placement({});
  feeder.feed(daemon, {record(0, 0, {{a, shared, 64, 1}})});
  EXPECT_TRUE(daemon.run_epoch().cells.empty());
}

TEST_F(DaemonAttributionTest, OutOfRegistryClassIdsAreUntaggedNotTrusted) {
  // Records are external input: a class id beyond the registry (but not
  // kInvalidClass) must not size the class-indexed attribution vectors —
  // the entry still folds into the map, just without attribution.
  const ObjectId a = heap.alloc(shared, 0);
  plan.on_alloc(a);
  daemon.set_influence_placement({0, 1});
  const ClassId bogus = 0x7FFFFFFE;
  feeder.feed(daemon, {record(0, 0, {{a, bogus, 64, 1}}),
                       record(1, 1, {{a, bogus, 64, 1}})});
  const EpochResult out = daemon.run_epoch();
  // The pair mass reached the map but no attribution vector was sized by
  // the bogus id (registry has 2 classes).
  EXPECT_DOUBLE_EQ(out.tcm.at(0, 1), 64.0);
  EXPECT_LE(out.cells.cut_bytes.size(), reg.size());
  EXPECT_LE(out.cells.home_mass.size(), reg.size());
}

}  // namespace
}  // namespace djvm
