// Incremental sparse TCM pipeline: equivalence with the dense-from-scratch
// reference over randomized record streams (arbitrary ingest splits,
// mid-stream resets), arena reorganization, the whole-run CSR merge, and the
// daemon's once-per-epoch fold (seeded differential sweep at the end).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "profiling/accuracy.hpp"
#include "profiling/correlation_daemon.hpp"
#include "profiling/tcm.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

IntervalRecord rec(ThreadId t, IntervalId i, std::vector<OalEntry> entries) {
  IntervalRecord r;
  r.thread = t;
  r.interval = i;
  r.entries = std::move(entries);
  return r;
}

/// Randomized stream: repeated (object, thread) sightings across records,
/// varying bytes (so max-combining matters) and gaps (so HT weighting
/// matters), objects skewed toward a hot prefix.
std::vector<IntervalRecord> random_stream(std::uint64_t seed, std::uint32_t threads,
                                          std::uint64_t objects, int records,
                                          int entries_per_record) {
  SplitMix64 rng(seed);
  std::vector<IntervalRecord> out;
  for (int i = 0; i < records; ++i) {
    const auto t = static_cast<ThreadId>(rng.next_below(threads));
    IntervalRecord r = rec(t, static_cast<IntervalId>(i), {});
    for (int e = 0; e < entries_per_record; ++e) {
      OalEntry entry;
      // Skew: half the entries land on the hottest 10% of objects.
      entry.obj = rng.next() % 2 == 0
                      ? rng.next_below(std::max<std::uint64_t>(1, objects / 10))
                      : rng.next_below(objects);
      entry.klass = 0;
      entry.bytes = static_cast<std::uint32_t>(8 + rng.next_below(256));
      entry.gap = static_cast<std::uint32_t>(1 + rng.next_below(64));
      r.entries.push_back(entry);
    }
    out.push_back(std::move(r));
  }
  return out;
}

void expect_maps_equal(const SquareMatrix& a, const SquareMatrix& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_NEAR(a.at(i, j), b.at(i, j), 1e-9)
          << what << " cell (" << i << "," << j << ")";
    }
  }
}

// --- arena reorganize ---------------------------------------------------------

TEST(ReaderArena, BucketSortsAndDedupsWithMax) {
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{7, 0, 100, 1}, {9, 0, 10, 1}, {7, 0, 40, 1}}));
  rs.push_back(rec(1, 1, {{7, 0, 60, 1}}));
  rs.push_back(rec(0, 2, {{7, 0, 120, 1}}));
  const ReaderArena arena = TcmBuilder::reorganize_arena(rs, /*weighted=*/false);
  ASSERT_EQ(arena.object_count(), 2u);
  EXPECT_EQ(arena.objects[0], 7u);  // first-appearance order
  EXPECT_EQ(arena.objects[1], 9u);
  const auto readers7 = arena.readers_of(0);
  ASSERT_EQ(readers7.size(), 2u);  // threads 0 and 1, deduped
  for (const auto& [t, bytes] : readers7) {
    EXPECT_DOUBLE_EQ(bytes, t == 0 ? 120.0 : 60.0);  // max-combined
  }
  EXPECT_EQ(arena.offsets.front(), 0u);
  EXPECT_EQ(arena.offsets.back(), arena.readers.size());
}

TEST(ReaderArena, CompatWrapperMatchesReferenceSummaries) {
  const auto rs = random_stream(7, 8, 64, 50, 12);
  const auto summaries = TcmBuilder::reorganize(rs, /*weighted=*/true);
  // The wrapper must carry exactly the information the reference pipeline
  // extracts: accruing both must give identical maps.
  const SquareMatrix from_wrapper = TcmBuilder::accrue(summaries, 8);
  const SquareMatrix reference = TcmBuilder::build_reference(rs, 8, true);
  expect_maps_equal(from_wrapper, reference, "wrapper summaries");
}

TEST(ReaderArena, SparseObjectIdsSpillSafely) {
  // Ids far beyond the direct-index cap must not size an allocation.
  std::vector<IntervalRecord> rs;
  const ObjectId huge = ObjectId{1} << 40;
  rs.push_back(rec(0, 0, {{huge, 0, 100, 1}, {3, 0, 50, 1}}));
  rs.push_back(rec(1, 1, {{huge, 0, 80, 1}}));
  const SquareMatrix fast = TcmBuilder::build(rs, 2, false);
  const SquareMatrix ref = TcmBuilder::build_reference(rs, 2, false);
  expect_maps_equal(fast, ref, "sparse ids");
  EXPECT_DOUBLE_EQ(fast.at(0, 1), 80.0);
}

// --- one-shot build equivalence ----------------------------------------------

TEST(TcmEquivalence, FastBuildMatchesReferenceRandomized) {
  for (const std::uint64_t seed : {1ull, 2ull, 42ull, 999ull}) {
    const auto rs = random_stream(seed, 16, 512, 200, 30);
    const SquareMatrix ref = TcmBuilder::build_reference(rs, 16, true);
    const SquareMatrix fast = TcmBuilder::build(rs, 16, true);
    ASSERT_GT(ref.total(), 0.0);
    expect_maps_equal(fast, ref, "one-shot build");
  }
}

TEST(TcmEquivalence, UnweightedAndThreadsOutOfRange) {
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{7, 0, 100, 5}}));
  rs.push_back(rec(9, 1, {{7, 0, 100, 5}}));  // beyond the 2-thread matrix
  rs.push_back(rec(1, 2, {{7, 0, 60, 5}}));
  expect_maps_equal(TcmBuilder::build(rs, 2, false),
                    TcmBuilder::build_reference(rs, 2, false), "unweighted");
  expect_maps_equal(TcmBuilder::build(rs, 2, true),
                    TcmBuilder::build_reference(rs, 2, true), "weighted");
}

// --- incremental accumulator --------------------------------------------------

class IncrementalSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalSweep, SplitSubmissionsMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  const auto rs = random_stream(seed, 12, 256, 160, 24);
  const SquareMatrix ref = TcmBuilder::build_reference(rs, 12, true);

  // Fold the same stream in every split the seed dictates: 1 batch, uneven
  // batches, one record at a time.
  SplitMix64 rng(seed ^ 0xABCD);
  for (int split = 0; split < 3; ++split) {
    TcmAccumulator acc(12, /*weighted=*/true);
    std::size_t pos = 0;
    while (pos < rs.size()) {
      std::size_t take = split == 0   ? rs.size()
                         : split == 1 ? 1 + rng.next_below(40)
                                      : 1;
      take = std::min(take, rs.size() - pos);
      acc.add(std::span<const IntervalRecord>(rs).subspan(pos, take));
      pos += take;
    }
    expect_maps_equal(acc.dense(), ref, "split fold");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSweep,
                         ::testing::Values(1, 7, 42, 1234, 77777));

TEST(TcmAccumulator, MidStreamResetDropsHistory) {
  const auto a = random_stream(5, 8, 128, 60, 16);
  const auto b = random_stream(6, 8, 128, 60, 16);
  TcmAccumulator acc(8);
  acc.add(a);
  ASSERT_GT(acc.objects_tracked(), 0u);
  acc.reset();
  EXPECT_EQ(acc.objects_tracked(), 0u);
  EXPECT_EQ(acc.reader_entries(), 0u);
  acc.add(b);
  expect_maps_equal(acc.dense(), TcmBuilder::build_reference(b, 8, true),
                    "post-reset fold");
}

TEST(TcmAccumulator, CsrMergeEqualsCombinedStream) {
  // The daemon's whole-run merge: one CSR per epoch folded into persistent
  // state equals a from-scratch build over both epochs' records.
  const auto a = random_stream(11, 10, 200, 80, 20);
  const auto b = random_stream(12, 10, 200, 80, 20);
  TcmAccumulator acc(10);
  acc.add(TcmBuilder::reorganize_arena(a, /*weighted=*/true));
  acc.add(TcmBuilder::reorganize_arena(b, /*weighted=*/true));

  std::vector<IntervalRecord> both = a;
  both.insert(both.end(), b.begin(), b.end());
  expect_maps_equal(acc.dense(), TcmBuilder::build_reference(both, 10, true),
                    "merged epochs");
}

TEST(TcmAccumulator, DisjointObjectsAddPairArrays) {
  TcmAccumulator a(4);
  a.add_readers(1,
                std::vector<std::pair<ThreadId, double>>{{0, 10.0}, {1, 20.0}});
  a.add_readers(2,
                std::vector<std::pair<ThreadId, double>>{{2, 5.0}, {3, 6.0}});
  const SquareMatrix m = a.dense();
  EXPECT_DOUBLE_EQ(m.at(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(m.at(2, 3), 5.0);
  EXPECT_EQ(a.objects_tracked(), 2u);
}

TEST(TcmAccumulator, MaxCombiningNeverDoubleCounts) {
  // The same (object, thread) re-logged with rising, falling, and equal
  // byte values must leave pair cells at min(max_i, max_j), exactly once.
  TcmAccumulator acc(2);
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{7, 0, 50, 1}}));
  rs.push_back(rec(1, 1, {{7, 0, 80, 1}}));
  acc.add(rs);
  EXPECT_DOUBLE_EQ(acc.dense().at(0, 1), 50.0);
  std::vector<IntervalRecord> more;
  more.push_back(rec(0, 2, {{7, 0, 70, 1}}));  // raises thread 0's max
  acc.add(more);
  EXPECT_DOUBLE_EQ(acc.dense().at(0, 1), 70.0);
  std::vector<IntervalRecord> again;
  again.push_back(rec(0, 3, {{7, 0, 30, 1}}));  // below the max: no change
  acc.add(again);
  EXPECT_DOUBLE_EQ(acc.dense().at(0, 1), 70.0);
}

// --- reader block layout ------------------------------------------------------

using Readers = std::vector<std::pair<ThreadId, double>>;

/// Feeds the same add_readers calls to an accumulator as given (`acc`) and
/// one reader per call (`one_by_one`, the add_one path), and keeps every
/// reader as a one-entry record (gap 1, integer bytes) for build_reference.
/// Retention passes run on both accumulators and drop the same objects'
/// records from the model.
class BlockHarness {
 public:
  explicit BlockHarness(std::uint32_t threads)
      : acc(threads), one_by_one(threads), threads_(threads) {}

  void add(ObjectId obj, const Readers& readers) {
    acc.add_readers(obj, readers);
    for (const auto& r : readers) {
      one_by_one.add_readers(obj, {&r, 1});
      live_[obj].push_back(
          rec(r.first, next_interval_++,
              {{obj, 0, static_cast<std::uint32_t>(r.second), 1}}));
      if (r.first < threads_) last_touch_[obj] = acc.epoch();
    }
  }

  /// advance_epoch + drop-only compact on both sides and in the model.
  void retire(std::uint32_t idle_epochs) {
    acc.advance_epoch();
    one_by_one.advance_epoch();
    acc.compact(idle_epochs, 0.0);
    one_by_one.compact(idle_epochs, 0.0);
    for (auto it = last_touch_.begin(); it != last_touch_.end();) {
      if (acc.epoch() - it->second >= idle_epochs) {
        live_.erase(it->first);
        it = last_touch_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void reset() {
    acc.reset();
    one_by_one.reset();
    live_.clear();
    last_touch_.clear();
  }

  /// Pairs bit-identical to the one-reader-at-a-time fold, and equal to
  /// build_reference over the live records within 1e-9.
  void expect_matches(const std::string& what) const {
    const SquareMatrix got = acc.dense();
    const SquareMatrix one = one_by_one.dense();
    std::size_t differing = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      for (std::size_t j = 0; j < got.size(); ++j) {
        const double a = got.at(i, j);
        const double b = one.at(i, j);
        differing += std::memcmp(&a, &b, sizeof(double)) != 0;
      }
    }
    EXPECT_EQ(differing, 0u) << what << ": not bit-identical to add_one";
    std::vector<IntervalRecord> kept;
    std::size_t readers = 0;
    for (const auto& [obj, records] : live_) {
      kept.insert(kept.end(), records.begin(), records.end());
      std::vector<bool> seen(threads_, false);
      for (const IntervalRecord& r : records) {
        if (r.thread < threads_ && !seen[r.thread]) {
          seen[r.thread] = true;
          ++readers;
        }
      }
    }
    expect_maps_equal(got, TcmBuilder::build_reference(kept, threads_),
                      what.c_str());
    EXPECT_EQ(acc.reader_entries(), readers) << what;
    EXPECT_EQ(one_by_one.reader_entries(), readers) << what;
  }

  TcmAccumulator acc;
  TcmAccumulator one_by_one;

 private:
  std::uint32_t threads_;
  IntervalId next_interval_ = 0;
  std::map<ObjectId, std::vector<IntervalRecord>> live_;
  std::map<ObjectId, std::uint32_t> last_touch_;
};

TEST(TcmBlocks, AddOneGrowsPastCapacitiesWhileBlocksMove) {
  // Object 1 takes one reader per call through capacities 1, 2, 4, ... 48;
  // objects 2 and 3 take theirs in between, so every growth of one block
  // lands behind the others' and the freed blocks get reused.  Raises after
  // the moves must find each reader at its copied position.
  constexpr std::uint32_t kThreads = 48;
  BlockHarness h(kThreads);
  for (ThreadId t = 0; t < kThreads; ++t) {
    h.add(1, {{t, 10.0 + t}});
    h.add(2, {{kThreads - 1 - t, 5.0 + 2.0 * t}});
    if (t % 3 == 0) h.add(3, {{t, 7.0}});
    if ((t & (t + 1)) == 0) h.expect_matches("after growth to " +
                                             std::to_string(t + 1));
  }
  for (ThreadId t = 0; t < kThreads; t += 5) {
    h.add(1, {{t, 1000.0 - t}});
    h.add(2, {{t, 3.0}});  // below its max: no change
    h.add(3, {{t, 500.0}});
  }
  h.expect_matches("raises after the moves");
}

TEST(TcmBlocks, AddReadersMixesHeldAndNewReadersAndGrows) {
  constexpr std::uint32_t kThreads = 40;
  BlockHarness h(kThreads);
  h.add(1, {{0, 10.0}, {1, 20.0}, {2, 30.0}});
  h.add(2, {{3, 4.0}, {4, 8.0}});  // object 2's block sits behind object 1's
  h.expect_matches("exact first blocks");
  // Raises, a no-op re-log, two new readers (one listed twice), and a thread
  // past the dimension: the block grows once, to hold five.
  h.add(1, {{1, 25.0}, {5, 7.0}, {2, 10.0}, {kThreads + 3, 99.0},
            {9, 40.0}, {0, 50.0}, {5, 9.0}});
  h.expect_matches("mixed held and new readers");
  Readers many;
  for (ThreadId t = 0; t < kThreads; t += 2) many.push_back({t, 3.0 * t + 1});
  h.add(1, many);
  h.add(2, many);
  h.expect_matches("growth past double the capacity");
  Readers all;
  for (ThreadId t = kThreads; t-- > 0;) all.push_back({t, 100.0 + t});
  h.add(1, all);
  h.add(4, all);
  h.expect_matches("every thread");
}

TEST(TcmBlocks, CompactDropRefillReusesFreedBlocks) {
  // Each cycle refills a fresh set of objects shaped like the last one and
  // re-logs one hot object; the compact drops the set two cycles old.  The
  // refill takes the freed blocks off their free chains, so the payload
  // stops growing once two sets are live.
  constexpr std::uint32_t kThreads = 24;
  BlockHarness h(kThreads);
  std::size_t settled = 0;
  std::size_t settled_one = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    const auto base = static_cast<ObjectId>(100 + 50 * cycle);
    for (ObjectId k = 0; k < 30; ++k) {
      Readers readers;
      for (ThreadId t = 0; t <= (k * 7) % kThreads; ++t) {
        readers.push_back({(t + static_cast<ThreadId>(k)) % kThreads,
                           1.0 + static_cast<double>((t * 13 + k) % 50)});
      }
      if (k % 4 == 0) {
        for (const auto& r : readers) h.add(base + k, {r});
      } else {
        h.add(base + k, readers);
      }
    }
    h.add(0, {{0, 10.0 + cycle}, {5, 20.0}});
    h.retire(/*idle_epochs=*/2);
    h.expect_matches("cycle " + std::to_string(cycle));
    if (cycle == 2) {
      settled = h.acc.memory_bytes();
      settled_one = h.one_by_one.memory_bytes();
    } else if (cycle > 2) {
      EXPECT_EQ(h.acc.memory_bytes(), settled) << "cycle " << cycle;
      EXPECT_EQ(h.one_by_one.memory_bytes(), settled_one) << "cycle " << cycle;
    }
  }
  EXPECT_GT(settled, 0u);
}

TEST(TcmBlocks, ResetThenRefill) {
  // A reset must forget the free chains along with the blocks: the refill
  // starts from empty reader arrays and, shaped like the first fill, fits in
  // the allocations the reset kept.
  constexpr std::uint32_t kThreads = 16;
  BlockHarness h(kThreads);
  const auto fill = [&](ObjectId base) {
    for (ObjectId o = 0; o < 20; ++o) {
      Readers readers;
      for (ThreadId t = 0; t < 1 + o % kThreads; ++t) {
        readers.push_back({(t * 5 + static_cast<ThreadId>(o)) % kThreads,
                           2.0 + t + static_cast<double>(base)});
      }
      h.add(base + o, readers);
      h.add(base + o, {{static_cast<ThreadId>(o) % kThreads, 100.0}});
    }
  };
  fill(0);
  const std::size_t filled = h.acc.memory_bytes();
  h.retire(/*idle_epochs=*/1);  // drops every object onto the free chains
  h.expect_matches("after the drop");
  for (ObjectId o = 0; o < 10; ++o) h.add(o, {{1, 4.0}, {2, 6.0}});
  h.expect_matches("refill from the free chains");
  h.reset();
  h.expect_matches("after reset");
  fill(30);
  h.expect_matches("refill after reset");
  EXPECT_EQ(h.acc.memory_bytes(), filled);
}

// --- UpperTriangle ------------------------------------------------------------

TEST(UpperTriangle, IndexingAndDensify) {
  UpperTriangle ut(4);
  EXPECT_EQ(ut.cell_count(), 6u);
  ut.add(2, 0, 5.0);  // unordered pair
  ut.add(0, 2, 1.0);
  ut.add(3, 2, 7.0);
  EXPECT_DOUBLE_EQ(ut.at(0, 2), 6.0);
  const SquareMatrix m = ut.densify();
  EXPECT_DOUBLE_EQ(m.at(0, 2), 6.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 6.0);
  EXPECT_DOUBLE_EQ(m.at(2, 3), 7.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);

  UpperTriangle other(4);
  other.add(0, 2, 4.0);
  ut += other;
  EXPECT_DOUBLE_EQ(ut.at(0, 2), 10.0);
  ut.clear();
  EXPECT_DOUBLE_EQ(ut.at(0, 2), 0.0);
  EXPECT_EQ(ut.cell_count(), 6u);
}

// --- daemon fold at the epoch tick ------------------------------------------

TEST(DaemonIncremental, EpochTcmMatchesReferenceAcrossIngestSplits) {
  KlassRegistry reg;
  Heap heap(reg, 1);
  SamplingPlan plan(heap);
  reg.register_class("X", 64);
  RecordFeeder feeder;
  CorrelationDaemon daemon(plan, 12);

  const auto rs = random_stream(21, 12, 256, 120, 24);
  const SquareMatrix ref = TcmBuilder::build_reference(rs, 12, true);

  // Deliver in three uneven ingest batches within one epoch.
  const std::size_t cut1 = rs.size() / 5;
  const std::size_t cut2 = rs.size() / 2;
  feeder.feed(daemon, {rs.begin(), rs.begin() + cut1});
  feeder.feed(daemon, {rs.begin() + cut1, rs.begin() + cut2});
  feeder.feed(daemon, {rs.begin() + cut2, rs.end()});
  const EpochResult e = daemon.run_epoch();
  expect_maps_equal(e.tcm, ref, "epoch over split ingests");
  EXPECT_GE(e.build_seconds, e.densify_seconds);

  // The next epoch starts a fresh window (mid-stream reset semantics).
  const auto rs2 = random_stream(22, 12, 256, 60, 24);
  feeder.feed(daemon, rs2);
  const EpochResult e2 = daemon.run_epoch();
  expect_maps_equal(e2.tcm, TcmBuilder::build_reference(rs2, 12, true),
                    "second window");
}

TEST(DaemonIncremental, BuildFullIsIncrementalAcrossCalls) {
  KlassRegistry reg;
  Heap heap(reg, 1);
  SamplingPlan plan(heap);
  reg.register_class("X", 64);
  RecordFeeder feeder;
  CorrelationDaemon daemon(plan, 8);

  const auto a = random_stream(31, 8, 128, 50, 16);
  const auto b = random_stream(32, 8, 128, 50, 16);
  feeder.feed(daemon, a);
  expect_maps_equal(daemon.build_full(), TcmBuilder::build_reference(a, 8, true),
                    "first build_full");
  feeder.feed(daemon, b);
  std::vector<IntervalRecord> both = a;
  both.insert(both.end(), b.begin(), b.end());
  expect_maps_equal(daemon.build_full(),
                    TcmBuilder::build_reference(both, 8, true),
                    "second build_full folds only the delta");
  // A clear() discards the whole-run accumulator too.
  daemon.clear();
  feeder.feed(daemon, b);
  expect_maps_equal(daemon.build_full(), TcmBuilder::build_reference(b, 8, true),
                    "build_full after clear");
}

TEST(DaemonIncremental, BuildFullConsumesTheWindow) {
  // Pre-incremental semantics: build_full drains the pending window, so an
  // epoch run right after starts from nothing — the governor must not see a
  // map whose records were already reported by build_full (zero entries
  // against a full map would corrupt its benefit/cost inputs).
  KlassRegistry reg;
  Heap heap(reg, 1);
  SamplingPlan plan(heap);
  reg.register_class("X", 64);
  RecordFeeder feeder;
  CorrelationDaemon daemon(plan, 8);

  const auto a = random_stream(41, 8, 128, 40, 16);
  feeder.feed(daemon, a);
  (void)daemon.build_full();
  const EpochResult drained = daemon.run_epoch();
  EXPECT_EQ(drained.intervals, 0u);
  EXPECT_DOUBLE_EQ(drained.tcm.total(), 0.0);

  // The next real window is unaffected.
  const auto b = random_stream(42, 8, 128, 40, 16);
  feeder.feed(daemon, b);
  expect_maps_equal(daemon.run_epoch().tcm,
                    TcmBuilder::build_reference(b, 8, true),
                    "window after a build_full");
}


// --- single-fold daemon: seeded differential sweep -------------------------
//
// Random streams through the daemon, each epoch split over 1-5 ingest()
// calls, checked against four oracles: the epoch map against
// build_reference over the epoch's entries, build_full against
// build_reference over the entries retention keeps (retention off or
// drop-only; decay rescales kept objects, which build_reference cannot
// express), the CSR cell attribution against a brute-force per-object walk,
// and the whole-run pair array against an accumulator fed one reader at a
// time (the add_one path), bit for bit.

constexpr std::uint32_t kDiffThreads = 72;  // > 64 readers on wide objects
constexpr std::uint32_t kDiffNodes = 4;
constexpr std::uint32_t kDiffClasses = 3;
constexpr std::uint64_t kDiffObjects = 96;
constexpr std::uint64_t kDiffWide = 6;  // objects [0, kDiffWide) read by many
constexpr std::uint64_t kDiffWindow = 30;  // the rest: a window sliding by
constexpr std::uint64_t kDiffShift = 12;   // kDiffShift per epoch goes stale
constexpr int kDiffEpochs = 10;

enum class DiffRetention { kOff, kDropOnly, kDecaying };

/// One epoch of records: thread ids run up to 3 past the map's dimension,
/// class ids are sometimes invalid or beyond the registry, and gaps rise
/// mid-run so re-logged byte values rise.  A wide object gets either one
/// reader or every thread in an epoch; the other objects come from a window
/// that slides each epoch (and wraps), so objects go stale, get evicted and
/// come back.
std::vector<IntervalRecord> diff_epoch(SplitMix64& rng, int epoch,
                                       const std::vector<ClassId>& class_of) {
  std::vector<IntervalRecord> out;
  IntervalId next = 0;
  const auto gap_of = [&](ClassId c) {
    const bool raised = epoch >= kDiffEpochs / 2;
    return static_cast<std::uint32_t>(1 + (raised ? c + 1 : 0));
  };
  const auto entry = [&](ObjectId obj) {
    OalEntry e;
    e.obj = obj;
    const std::uint64_t roll = rng.next_below(20);
    e.klass = roll == 0 ? kInvalidClass
              : roll == 1
                  ? kDiffClasses + static_cast<ClassId>(rng.next_below(5))
                  : class_of[obj];
    e.bytes =
        static_cast<std::uint32_t>(16 + 8 * (obj % 7) + rng.next_below(3));
    e.gap = gap_of(class_of[obj]);
    return e;
  };
  const auto record = [&](ThreadId t) {
    IntervalRecord r;
    r.thread = t;
    r.interval = next++;
    r.node = static_cast<NodeId>(t % kDiffNodes);
    return r;
  };
  for (ObjectId w = 0; w < kDiffWide; ++w) {
    if (rng.next_below(2) == 0) {
      IntervalRecord r =
          record(static_cast<ThreadId>(rng.next_below(kDiffThreads)));
      r.entries.push_back(entry(w));
      out.push_back(std::move(r));
    } else {
      for (ThreadId t = 0; t < kDiffThreads + 3; ++t) {
        IntervalRecord r = record(t);
        r.entries.push_back(entry(w));
        out.push_back(std::move(r));
      }
    }
  }
  const int records = 20 + static_cast<int>(rng.next_below(30));
  for (int i = 0; i < records; ++i) {
    IntervalRecord r =
        record(static_cast<ThreadId>(rng.next_below(kDiffThreads + 3)));
    const int entries = 1 + static_cast<int>(rng.next_below(12));
    const std::uint64_t start = static_cast<std::uint64_t>(epoch) * kDiffShift;
    for (int k = 0; k < entries; ++k) {
      const std::uint64_t slide = start + rng.next_below(kDiffWindow);
      r.entries.push_back(
          entry(kDiffWide + slide % (kDiffObjects - kDiffWide)));
    }
    out.push_back(std::move(r));
  }
  // Interleave the wide objects' records with the rest.
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.next_below(i)]);
  }
  return out;
}

/// Brute-force attribution: per object, its first in-registry class, the
/// per-thread max weighted bytes, and every reader pair's min.
TcmClassAttribution brute_force_cells(const std::vector<IntervalRecord>& rs,
                                      const std::vector<NodeId>& placement,
                                      const Heap& heap) {
  std::vector<ClassId> klass(kDiffObjects, kInvalidClass);
  std::vector<std::vector<double>> bytes(
      kDiffObjects, std::vector<double>(kDiffThreads, 0.0));
  TcmClassAttribution out;
  out.cut_bytes.assign(kDiffClasses, 0.0);
  out.local_bytes.assign(kDiffClasses, 0.0);
  out.home_mass.assign(kDiffClasses, 0.0);
  out.thread_mass.assign(kDiffClasses, std::vector<double>(kDiffThreads, 0.0));
  for (const IntervalRecord& r : rs) {
    for (const OalEntry& e : r.entries) {
      const ClassId c = e.klass < kDiffClasses ? e.klass : kInvalidClass;
      if (klass[e.obj] == kInvalidClass) klass[e.obj] = c;
      const double w = static_cast<double>(e.bytes) * e.gap;
      if (r.thread < kDiffThreads) {
        bytes[e.obj][r.thread] = std::max(bytes[e.obj][r.thread], w);
      }
      if (c != kInvalidClass && heap.meta(e.obj).home != r.node) {
        out.home_mass[c] += w;
      }
    }
  }
  const auto node_of = [&](ThreadId t) {
    return t < placement.size() ? placement[t] : kInvalidNode;
  };
  for (ObjectId o = 0; o < kDiffObjects; ++o) {
    if (klass[o] == kInvalidClass) continue;
    for (ThreadId i = 0; i < kDiffThreads; ++i) {
      for (ThreadId j = i + 1; j < kDiffThreads; ++j) {
        const double w = std::min(bytes[o][i], bytes[o][j]);
        if (w <= 0.0) continue;
        const NodeId ni = node_of(i);
        const NodeId nj = node_of(j);
        if (ni != nj && ni != kInvalidNode && nj != kInvalidNode) {
          out.cut_bytes[klass[o]] += w;
        } else {
          out.local_bytes[klass[o]] += w;
        }
        out.thread_mass[klass[o]][i] += w;
        out.thread_mass[klass[o]][j] += w;
      }
    }
  }
  return out;
}

void expect_cells_near(const TcmClassAttribution& got,
                       const TcmClassAttribution& want) {
  const auto at = [](const std::vector<double>& v, std::size_t i) {
    return i < v.size() ? v[i] : 0.0;
  };
  ASSERT_LE(got.cut_bytes.size(), kDiffClasses);
  ASSERT_LE(got.home_mass.size(), kDiffClasses);
  for (std::size_t c = 0; c < kDiffClasses; ++c) {
    EXPECT_NEAR(at(got.cut_bytes, c), want.cut_bytes[c], 1e-9) << c;
    EXPECT_NEAR(at(got.local_bytes, c), want.local_bytes[c], 1e-9) << c;
    EXPECT_NEAR(at(got.home_mass, c), want.home_mass[c], 1e-9) << c;
    for (ThreadId t = 0; t < kDiffThreads; ++t) {
      const double g =
          c < got.thread_mass.size() ? at(got.thread_mass[c], t) : 0.0;
      EXPECT_NEAR(g, want.thread_mass[c][t], 1e-9)
          << "class " << c << " thread " << t;
    }
  }
}

class SingleFoldDaemonDiff : public ::testing::TestWithParam<int> {};

TEST_P(SingleFoldDaemonDiff, MatchesOraclesOnRandomStreams) {
  const int seed = GetParam();
  for (const DiffRetention mode :
       {DiffRetention::kOff, DiffRetention::kDropOnly,
        DiffRetention::kDecaying}) {
    const int mode_id = static_cast<int>(mode);
    SCOPED_TRACE("repro: test_tcm_incremental "
                 "--gtest_filter=Seeds/SingleFoldDaemonDiff.*/" +
                 std::to_string(seed) + " (retention mode " +
                 std::to_string(mode_id) + ")");
    KlassRegistry reg;
    Heap heap(reg, kDiffNodes);
    for (std::uint32_t c = 0; c < kDiffClasses; ++c) {
      reg.register_class("C" + std::to_string(c), 64);
    }
    SamplingPlan plan(heap);
    SplitMix64 rng(0x5EED0000ull + static_cast<std::uint64_t>(seed) * 31 +
                   static_cast<std::uint64_t>(mode_id));
    std::vector<ClassId> class_of;
    for (ObjectId o = 0; o < kDiffObjects; ++o) {
      class_of.push_back(static_cast<ClassId>(rng.next_below(kDiffClasses)));
      const auto home = static_cast<NodeId>(rng.next_below(kDiffNodes));
      const ObjectId id = heap.alloc(class_of.back(), home);
      ASSERT_EQ(id, o);
      plan.on_alloc(id);
    }

    // One lane for every thread: the daemon drains records in stream order,
    // so the oracle accumulator can replay the daemon's exact CSR order.
    IngestHub hub(IngestConfig{});
    hub.ensure_lanes(1);
    CorrelationDaemon daemon(plan, kDiffThreads);
    RetentionPolicy policy;
    if (mode != DiffRetention::kOff) {
      policy.idle_epochs = 2;
      policy.compact_period = 1 + static_cast<std::uint32_t>(rng.next_below(2));
      policy.decay = mode == DiffRetention::kDecaying ? 0.3 : 0.0;
    }
    daemon.set_retention(policy);
    // A placement shorter than the map: the last threads stay unplaced.
    std::vector<NodeId> placement(kDiffThreads - 5);
    for (NodeId& n : placement) {
      n = static_cast<NodeId>(rng.next_below(kDiffNodes));
    }
    daemon.set_influence_placement(placement);

    TcmAccumulator one_by_one(kDiffThreads);
    // Live entries per object for the drop-only build_full oracle: an
    // object's records since it was last evicted, and its last touch.
    std::vector<std::vector<IntervalRecord>> live(kDiffObjects);
    std::vector<int> last_touch(kDiffObjects, -1);
    std::size_t dropped = 0;

    for (int epoch = 0; epoch < kDiffEpochs; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      const std::vector<IntervalRecord> rs = diff_epoch(rng, epoch, class_of);
      // 1-5 ingest() calls over the epoch.
      const int splits = 1 + static_cast<int>(rng.next_below(5));
      std::size_t pos = 0;
      for (int k = 0; k < splits; ++k) {
        const std::size_t end =
            k + 1 == splits ? rs.size()
                            : pos + rng.next_below(rs.size() - pos + 1);
        for (; pos < end; ++pos) {
          const IntervalRecord& r = rs[pos];
          hub.append(0, r.thread, r.interval, r.node, r.start_pc, r.end_pc,
                     r.entries);
        }
        hub.flush(0);
        daemon.ingest(hub);
      }

      // The last epoch stays unconsumed: build_full folds it.
      const bool last = epoch + 1 == kDiffEpochs;
      if (!last) {
        const EpochResult out = daemon.run_epoch();
        expect_maps_equal(out.tcm,
                          TcmBuilder::build_reference(rs, kDiffThreads),
                          "epoch map vs build_reference");
        expect_cells_near(out.cells, brute_force_cells(rs, placement, heap));
        dropped = out.dropped_objects;
        if (HasFailure()) return;  // one failing epoch is enough to report
      }

      const ReaderArena csr =
          TcmBuilder::reorganize_arena(rs, /*weighted=*/true);
      for (std::size_t k = 0; k < csr.object_count(); ++k) {
        for (const auto& reader : csr.readers_of(k)) {
          one_by_one.add_readers(csr.objects[k], {&reader, 1});
        }
      }
      for (const IntervalRecord& r : rs) {
        for (const OalEntry& e : r.entries) {
          IntervalRecord one = r;
          one.entries = {e};
          live[e.obj].push_back(std::move(one));
          if (r.thread < kDiffThreads) last_touch[e.obj] = epoch;
        }
      }
      if (policy.active() && !last) {
        one_by_one.advance_epoch();
        const auto now = static_cast<int>(one_by_one.epoch());
        if (now % static_cast<int>(policy.compact_period) == 0) {
          one_by_one.compact(policy.idle_epochs, policy.decay);
          if (mode == DiffRetention::kDropOnly) {
            for (ObjectId o = 0; o < kDiffObjects; ++o) {
              if (last_touch[o] >= 0 &&
                  now - last_touch[o] >= static_cast<int>(policy.idle_epochs)) {
                live[o].clear();
                last_touch[o] = -1;
              }
            }
          }
        }
      }
    }

    const SquareMatrix full = daemon.build_full();
    const SquareMatrix model = one_by_one.dense();
    ASSERT_EQ(full.size(), model.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < full.size(); ++i) {
      for (std::size_t j = 0; j < full.size(); ++j) {
        const double a = full.at(i, j);
        const double b = model.at(i, j);
        differing += std::memcmp(&a, &b, sizeof(double)) != 0;
      }
    }
    EXPECT_EQ(differing, 0u) << "whole-run cells not bit-identical to add_one";
    if (mode == DiffRetention::kDropOnly) {
      EXPECT_GT(dropped, 0u) << "the stream must exercise eviction";
    }
    if (mode != DiffRetention::kDecaying) {
      std::vector<IntervalRecord> kept;
      for (const auto& per_object : live) {
        kept.insert(kept.end(), per_object.begin(), per_object.end());
      }
      expect_maps_equal(full, TcmBuilder::build_reference(kept, kDiffThreads),
                        "build_full vs build_reference over live entries");
    }
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleFoldDaemonDiff, ::testing::Range(0, 12));

}  // namespace
}  // namespace djvm
