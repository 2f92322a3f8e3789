// Distributed TCM reduction: equivalence with the centralized builder,
// merge-monoid properties, traffic accounting, and parallel accrual.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "common/rng.hpp"
#include "profiling/accuracy.hpp"
#include "profiling/distributed_tcm.hpp"
#include "profiling/ingest.hpp"

namespace djvm {
namespace {

IntervalRecord rec(ThreadId t, NodeId node, std::vector<OalEntry> entries) {
  IntervalRecord r;
  r.thread = t;
  r.node = node;
  r.entries = std::move(entries);
  return r;
}

/// Random record set spread over nodes/threads/objects.
std::vector<IntervalRecord> random_records(std::uint64_t seed, std::uint32_t threads,
                                           std::uint32_t nodes, int records,
                                           int entries_per_record,
                                           std::uint64_t objects) {
  SplitMix64 rng(seed);
  std::vector<IntervalRecord> out;
  for (int i = 0; i < records; ++i) {
    const auto t = static_cast<ThreadId>(rng.next_below(threads));
    IntervalRecord r = rec(t, static_cast<NodeId>(t % nodes), {});
    r.interval = static_cast<IntervalId>(i);
    for (int e = 0; e < entries_per_record; ++e) {
      OalEntry entry;
      entry.obj = rng.next_below(objects);
      entry.klass = 0;
      entry.bytes = static_cast<std::uint32_t>(8 + rng.next_below(256));
      entry.gap = static_cast<std::uint32_t>(1 + rng.next_below(64));
      r.entries.push_back(entry);
    }
    out.push_back(std::move(r));
  }
  return out;
}

TEST(DistributedTcm, EmptyInput) {
  const SquareMatrix tcm =
      DistributedTcmReducer::build(std::span<const IntervalRecord>{}, 4, true);
  EXPECT_DOUBLE_EQ(tcm.total(), 0.0);
}

TEST(DistributedTcm, LocalReduceGroupsByNode) {
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{1, 0, 10, 1}}));
  rs.push_back(rec(1, 1, {{1, 0, 10, 1}}));
  rs.push_back(rec(2, 0, {{2, 0, 10, 1}}));
  const auto partials = DistributedTcmReducer::local_reduce(rs, false);
  ASSERT_EQ(partials.size(), 2u);
  EXPECT_EQ(partials[0].node, 0);
  EXPECT_EQ(partials[1].node, 1);
  EXPECT_EQ(partials[0].summaries.size(), 2u);  // objects 1 and 2
  EXPECT_EQ(partials[1].summaries.size(), 1u);
}

TEST(DistributedTcm, MergeUnionsReadersWithMax) {
  NodePartial a;
  a.node = 0;
  a.summaries.push_back({7, {{0, 100.0}}});
  NodePartial b;
  b.node = 1;
  b.summaries.push_back({7, {{0, 40.0}, {1, 60.0}}});
  b.summaries.push_back({8, {{2, 30.0}}});
  DistributedTcmReducer::merge(a, b);
  ASSERT_EQ(a.summaries.size(), 2u);
  const auto& readers = a.summaries[0].readers;
  ASSERT_EQ(readers.size(), 2u);
  EXPECT_DOUBLE_EQ(readers[0].second, 100.0);  // max(100, 40)
  EXPECT_DOUBLE_EQ(readers[1].second, 60.0);
}

TEST(DistributedTcm, MatchesCentralizedBuilderExactlyOnSmallInput) {
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{1, 0, 64, 2}, {2, 0, 32, 1}}));
  rs.push_back(rec(1, 1, {{1, 0, 64, 2}}));
  rs.push_back(rec(2, 2, {{2, 0, 32, 1}, {1, 0, 16, 4}}));
  const SquareMatrix central = TcmBuilder::build(rs, 3, true);
  const SquareMatrix dist = DistributedTcmReducer::build(rs, 3, true);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(dist.at(i, j), central.at(i, j), 1e-9) << i << "," << j;
    }
  }
}

class DistributedEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(DistributedEquivalenceSweep, RandomizedEquivalence) {
  const auto [seed, workers] = GetParam();
  const auto rs = random_records(seed, 16, 8, 200, 40, 512);
  const SquareMatrix central = TcmBuilder::build(rs, 16, true);
  const SquareMatrix dist =
      DistributedTcmReducer::build(rs, 16, true, workers);
  ASSERT_GT(central.total(), 0.0);
  EXPECT_LT(absolute_error(dist, central), 1e-9) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWorkers, DistributedEquivalenceSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 42, 1234),
                       ::testing::Values(1u, 2u, 4u)));

TEST(DistributedTcm, TreeReduceAccountsTraffic) {
  std::vector<IntervalRecord> rs;
  for (NodeId n = 0; n < 8; ++n) {
    rs.push_back(rec(static_cast<ThreadId>(n), n,
                     {{static_cast<ObjectId>(n), 0, 64, 1}}));
  }
  Network net(SimCosts{});
  auto partials = DistributedTcmReducer::local_reduce(rs, false);
  ASSERT_EQ(partials.size(), 8u);
  static_cast<void>(  // only the traffic matters here
      DistributedTcmReducer::tree_reduce(std::move(partials), &net));
  // Binary tree over 8 partials: 4 + 2 + 1 = 7 merge messages.
  EXPECT_EQ(net.stats().messages_of(MsgCategory::kOal), 7u);
  EXPECT_GT(net.stats().bytes_of(MsgCategory::kOal), 0u);
}

TEST(DistributedTcm, TreeReduceTrafficBeatsCentralShippingForWideClusters) {
  // Each node's partial is deduplicated locally, so shipping partials up a
  // tree moves fewer bytes than shipping every raw OAL to one coordinator
  // when threads re-log the same objects across many intervals.
  const std::uint32_t nodes = 8;
  std::vector<IntervalRecord> rs;
  std::uint64_t raw_bytes = 0;
  for (NodeId n = 0; n < nodes; ++n) {
    for (int interval = 0; interval < 50; ++interval) {
      IntervalRecord r = rec(static_cast<ThreadId>(n), n, {});
      for (ObjectId o = 0; o < 20; ++o) {
        r.entries.push_back({o, 0, 64, 1});  // same 20 objects every interval
      }
      raw_bytes += r.wire_bytes();
      rs.push_back(std::move(r));
    }
  }
  Network net(SimCosts{});
  auto partials = DistributedTcmReducer::local_reduce(rs, false);
  static_cast<void>(  // only the traffic matters here
      DistributedTcmReducer::tree_reduce(std::move(partials), &net));
  EXPECT_LT(net.stats().bytes_of(MsgCategory::kOal), raw_bytes / 4);
}

TEST(DistributedTcm, WirBytesGrowWithContent) {
  NodePartial empty;
  NodePartial full;
  full.summaries.push_back({1, {{0, 1.0}, {1, 2.0}}});
  EXPECT_GT(full.wire_bytes(), empty.wire_bytes());
}

TEST(DistributedTcm, ParallelAccrualSmallInputFallsBackToSequential) {
  // Below the parallel threshold the sequential path runs; results match.
  std::vector<ObjectAccessSummary> summaries;
  summaries.push_back({1, {{0, 10.0}, {1, 10.0}}});
  const SquareMatrix seq = TcmBuilder::accrue(summaries, 2);
  const SquareMatrix par = DistributedTcmReducer::accrue_parallel(summaries, 2, 8);
  EXPECT_EQ(seq, par);
}

// --- CSR pipeline vs the map-based oracle -----------------------------------

/// Packs records into fixed-size ingest arenas (capacity entries each),
/// splitting intervals across arenas exactly as IngestHub::append does.
std::vector<OalArena> pack_arenas(std::span<const IntervalRecord> records,
                                  std::uint32_t capacity) {
  std::vector<OalArena> arenas(1);
  for (const IntervalRecord& r : records) {
    std::size_t done = 0;
    while (done < r.entries.size()) {
      OalArena* a = &arenas.back();
      if (a->entries.size() >= capacity) {
        arenas.emplace_back();
        a = &arenas.back();
      }
      const std::size_t room = capacity - a->entries.size();
      const std::size_t take = std::min(room, r.entries.size() - done);
      ArenaInterval iv;
      iv.thread = r.thread;
      iv.interval = r.interval;
      iv.node = r.node;
      iv.start_pc = r.start_pc;
      iv.end_pc = r.end_pc;
      iv.begin = static_cast<std::uint32_t>(a->entries.size());
      a->entries.insert(a->entries.end(), r.entries.begin() + done,
                        r.entries.begin() + done + take);
      iv.end = static_cast<std::uint32_t>(a->entries.size());
      a->intervals.push_back(iv);
      done += take;
    }
  }
  return arenas;
}

TEST(DistributedTcmCsr, LocalReduceMatchesOracleRepresentationAndWire) {
  const auto rs = random_records(99, 8, 4, 80, 16, 128);
  ArenaScratch scratch;
  auto oracle = DistributedTcmReducer::local_reduce(rs, true);
  // The oracle groups in first-appearance order; CSR partials come back
  // sorted by node id.
  std::sort(oracle.begin(), oracle.end(),
            [](const NodePartial& a, const NodePartial& b) {
              return a.node < b.node;
            });
  const auto csr = DistributedTcmReducer::local_reduce_csr(rs, true, scratch);
  ASSERT_EQ(csr.size(), oracle.size());
  for (std::size_t i = 0; i < csr.size(); ++i) {
    EXPECT_EQ(csr[i].node, oracle[i].node);
    // Identical content must price identically on the wire: traffic
    // comparisons between the pipelines measure representation, not
    // accounting drift.
    EXPECT_EQ(csr[i].wire_bytes(), oracle[i].wire_bytes());
    // Same per-node map once accrued.
    const SquareMatrix mo = TcmBuilder::accrue(oracle[i].summaries, 8);
    const SquareMatrix mc =
        DistributedTcmReducer::accrue_parallel(csr[i].arena, 8, 1);
    EXPECT_LT(absolute_error(mc, mo), 1e-9) << "node " << csr[i].node;
  }
}

TEST(DistributedTcmCsr, TreeReduceMatchesOracleResultAndTraffic) {
  const auto rs = random_records(7, 16, 8, 150, 24, 256);
  ArenaScratch scratch;
  Network net_oracle(SimCosts{});
  Network net_csr(SimCosts{});
  auto oracle_partials = DistributedTcmReducer::local_reduce(rs, true);
  // Same tree shape as the CSR side (which sorts by node) so the per-level
  // message sizes are comparable.
  std::sort(oracle_partials.begin(), oracle_partials.end(),
            [](const NodePartial& a, const NodePartial& b) {
              return a.node < b.node;
            });
  auto merged_oracle =
      DistributedTcmReducer::tree_reduce(std::move(oracle_partials), &net_oracle);
  auto merged_csr = DistributedTcmReducer::tree_reduce_csr(
      DistributedTcmReducer::local_reduce_csr(rs, true, scratch), &net_csr,
      scratch);
  // Identical reduction traffic, message for message.
  EXPECT_EQ(net_csr.stats().messages_of(MsgCategory::kOal),
            net_oracle.stats().messages_of(MsgCategory::kOal));
  EXPECT_EQ(net_csr.stats().bytes_of(MsgCategory::kOal),
            net_oracle.stats().bytes_of(MsgCategory::kOal));
  // Identical merged map.
  const SquareMatrix mo = TcmBuilder::accrue(merged_oracle.summaries, 16);
  const SquareMatrix mc =
      DistributedTcmReducer::accrue_parallel(merged_csr.arena, 16, 4);
  EXPECT_LT(absolute_error(mc, mo), 1e-9);
}

TEST(DistributedTcmCsr, ArenaBuildMatchesRecordBuildAcrossSplits) {
  const auto rs = random_records(21, 12, 6, 120, 20, 200);
  const SquareMatrix central = TcmBuilder::build(rs, 12, true);
  // Tight 32-entry arenas force interval splits and multi-node arenas; the
  // slice-level bucketing must still reproduce the record-level result.
  const std::vector<OalArena> arenas = pack_arenas(rs, 32);
  std::vector<const OalArena*> logs;
  for (const OalArena& a : arenas) logs.push_back(&a);
  const SquareMatrix from_arenas = DistributedTcmReducer::build(
      std::span<const OalArena* const>(logs), 12, true, 2);
  ASSERT_GT(central.total(), 0.0);
  EXPECT_LT(absolute_error(from_arenas, central), 1e-9);
}

TEST(DistributedTcmCsr, MergeCsrIsTheOracleMonoid) {
  // Same hand-built case as MergeUnionsReadersWithMax, carried in CSR.
  std::vector<IntervalRecord> ra;
  ra.push_back(rec(0, 0, {{7, 0, 100, 1}}));
  std::vector<IntervalRecord> rb;
  rb.push_back(rec(0, 1, {{7, 0, 40, 1}}));
  rb.push_back(rec(1, 1, {{7, 0, 60, 1}}));
  rb.push_back(rec(2, 1, {{8, 0, 30, 1}}));
  ArenaScratch scratch;
  auto pa = DistributedTcmReducer::local_reduce_csr(ra, false, scratch);
  auto pb = DistributedTcmReducer::local_reduce_csr(rb, false, scratch);
  ASSERT_EQ(pa.size(), 1u);
  ASSERT_EQ(pb.size(), 1u);
  DistributedTcmReducer::merge_csr(pa[0], pb[0], scratch);
  const ReaderArena& m = pa[0].arena;
  ASSERT_EQ(m.objects.size(), 2u);  // objects 7 and 8
  const SquareMatrix tcm = DistributedTcmReducer::accrue_parallel(m, 3, 1);
  EXPECT_DOUBLE_EQ(tcm.at(0, 1), 60.0);  // min(max(100, 40), 60)
  EXPECT_DOUBLE_EQ(tcm.at(0, 2), 0.0);   // object 8 read by thread 2 alone
}

TEST(DistributedTcm, MigratedThreadRecordsMergeAcrossNodes) {
  // A thread whose records span two nodes (it migrated) still deduplicates
  // per (thread, object) with max, like the centralized builder.
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{7, 0, 100, 1}}));
  rs.push_back(rec(0, 1, {{7, 0, 80, 1}}));  // after migration, re-logged
  rs.push_back(rec(1, 2, {{7, 0, 90, 1}}));
  const SquareMatrix central = TcmBuilder::build(rs, 2, false);
  const SquareMatrix dist = DistributedTcmReducer::build(rs, 2, false);
  EXPECT_DOUBLE_EQ(central.at(0, 1), 90.0);  // min(max(100,80), 90)
  EXPECT_DOUBLE_EQ(dist.at(0, 1), 90.0);
}

}  // namespace
}  // namespace djvm
