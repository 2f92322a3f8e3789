// Distributed TCM reduction: equivalence with the build_reference oracle,
// merge-monoid properties, traffic accounting, and parallel accrual.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <utility>

#include "common/rng.hpp"
#include "profiling/accuracy.hpp"
#include "profiling/distributed_tcm.hpp"
#include "profiling/ingest.hpp"

#include "ingest_helpers.hpp"

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

/// The records logged on `node`.
std::vector<IntervalRecord> records_on(std::span<const IntervalRecord> records,
                                       NodeId node) {
  std::vector<IntervalRecord> out;
  for (const IntervalRecord& r : records) {
    if (r.node == node) out.push_back(r);
  }
  return out;
}

/// NodePartial::wire_bytes of a partial holding exactly `records`: a 16-byte
/// header, 8 bytes per distinct object, 12 bytes per distinct (object,
/// thread) reader.
std::uint64_t partial_wire_bytes(std::span<const IntervalRecord> records) {
  std::set<ObjectId> objects;
  std::set<std::pair<ObjectId, ThreadId>> readers;
  for (const IntervalRecord& r : records) {
    for (const OalEntry& e : r.entries) {
      objects.insert(e.obj);
      readers.insert({e.obj, r.thread});
    }
  }
  return 16 + 8 * objects.size() + 12 * readers.size();
}

/// kOal bytes the reduction tree must bill over partials sorted by node id:
/// partial i + stride ships into partial i each round, and every message
/// prices the child's accumulated records plus one message header.
std::uint64_t expected_tree_traffic(std::span<const IntervalRecord> records) {
  std::set<NodeId> nodes;
  for (const IntervalRecord& r : records) nodes.insert(r.node);
  std::vector<std::vector<IntervalRecord>> held;
  for (const NodeId n : nodes) held.push_back(records_on(records, n));
  std::uint64_t bytes = 0;
  for (std::size_t stride = 1; stride < held.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < held.size(); i += 2 * stride) {
      bytes += partial_wire_bytes(held[i + stride]) + kMessageHeaderBytes;
      held[i].insert(held[i].end(), held[i + stride].begin(),
                     held[i + stride].end());
    }
  }
  return bytes;
}

TEST(DistributedTcm, EmptyInput) {
  const SquareMatrix tcm =
      DistributedTcmReducer::build(std::span<const OalArena* const>{}, 4, true);
  EXPECT_DOUBLE_EQ(tcm.total(), 0.0);
}

TEST(DistributedTcm, LocalReduceGroupsByNode) {
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 1, {{1, 0, 10, 1}}));
  rs.push_back(rec(1, 0, {{1, 0, 10, 1}}));
  rs.push_back(rec(2, 1, {{2, 0, 10, 1}}));
  const std::vector<OalArena> arenas = pack_arenas(rs);
  ArenaScratch scratch;
  const auto partials =
      DistributedTcmReducer::local_reduce(log_ptrs(arenas), false, scratch);
  ASSERT_EQ(partials.size(), 2u);
  EXPECT_EQ(partials[0].node, 0);  // sorted by node id
  EXPECT_EQ(partials[1].node, 1);
  EXPECT_EQ(partials[0].arena.object_count(), 1u);
  EXPECT_EQ(partials[1].arena.object_count(), 2u);  // objects 1 and 2
}

TEST(DistributedTcm, MergeUnionsReadersWithMax) {
  // Node 0 holds thread 0 on object 7 at 100 bytes; node 1 re-logs thread 0
  // at 40, adds thread 1 at 60, and object 8 read by thread 2 alone.
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{7, 0, 100, 1}}));
  rs.push_back(rec(0, 1, {{7, 0, 40, 1}}));
  rs.push_back(rec(1, 1, {{7, 0, 60, 1}}));
  rs.push_back(rec(2, 1, {{8, 0, 30, 1}}));
  const std::vector<OalArena> arenas = pack_arenas(rs);
  ArenaScratch scratch;
  const NodePartial merged = DistributedTcmReducer::tree_reduce(
      DistributedTcmReducer::local_reduce(log_ptrs(arenas), false, scratch),
      nullptr, scratch);
  const ReaderArena& m = merged.arena;
  ASSERT_EQ(m.object_count(), 2u);  // objects 7 and 8
  ASSERT_EQ(m.objects[0], 7u);
  const auto readers = m.readers_of(0);
  ASSERT_EQ(readers.size(), 2u);
  for (const auto& [thread, bytes] : readers) {
    EXPECT_DOUBLE_EQ(bytes, thread == 0 ? 100.0 : 60.0);  // max(100, 40)
  }
  const SquareMatrix tcm = DistributedTcmReducer::accrue_parallel(m, 3, 1);
  EXPECT_DOUBLE_EQ(tcm.at(0, 1), 60.0);  // min(max(100, 40), 60)
  EXPECT_DOUBLE_EQ(tcm.at(0, 2), 0.0);   // object 8 read by thread 2 alone
  EXPECT_EQ(tcm, TcmBuilder::build_reference(rs, 3, false));
}

TEST(DistributedTcm, MatchesReferenceExactlyOnSmallInput) {
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{1, 0, 64, 2}, {2, 0, 32, 1}}));
  rs.push_back(rec(1, 1, {{1, 0, 64, 2}}));
  rs.push_back(rec(2, 2, {{2, 0, 32, 1}, {1, 0, 16, 4}}));
  const std::vector<OalArena> arenas = pack_arenas(rs);
  const SquareMatrix central = TcmBuilder::build_reference(rs, 3, true);
  const SquareMatrix dist =
      DistributedTcmReducer::build(log_ptrs(arenas), 3, true);
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
  const std::vector<OalArena> arenas = pack_arenas(rs);
  const SquareMatrix central = TcmBuilder::build_reference(rs, 16, true);
  const SquareMatrix dist =
      DistributedTcmReducer::build(log_ptrs(arenas), 16, true, workers);
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
  const std::vector<OalArena> arenas = pack_arenas(rs);
  ArenaScratch scratch;
  Network net(SimCosts{});
  auto partials =
      DistributedTcmReducer::local_reduce(log_ptrs(arenas), false, scratch);
  ASSERT_EQ(partials.size(), 8u);
  static_cast<void>(  // only the traffic matters here
      DistributedTcmReducer::tree_reduce(std::move(partials), &net, scratch));
  // Binary tree over 8 partials: 4 + 2 + 1 = 7 merge messages.  Each prices
  // 16 + 8 * objects + 12 * readers plus a message header: four leaves of
  // one object/reader (36), two pairs (56), one quad (96).
  EXPECT_EQ(net.stats().messages_of(MsgCategory::kOal), 7u);
  EXPECT_EQ(net.stats().bytes_of(MsgCategory::kOal),
            4 * 36 + 2 * 56 + 96 + 7 * kMessageHeaderBytes);
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
  const std::vector<OalArena> arenas = pack_arenas(rs);
  ArenaScratch scratch;
  Network net(SimCosts{});
  static_cast<void>(  // only the traffic matters here
      DistributedTcmReducer::tree_reduce(
          DistributedTcmReducer::local_reduce(log_ptrs(arenas), false, scratch),
          &net, scratch));
  EXPECT_LT(net.stats().bytes_of(MsgCategory::kOal), raw_bytes / 4);
  EXPECT_EQ(net.stats().bytes_of(MsgCategory::kOal), expected_tree_traffic(rs));
}

TEST(DistributedTcm, WireBytesGrowWithContent) {
  NodePartial empty;
  NodePartial full;
  full.arena.objects = {1};
  full.arena.klass = {0};
  full.arena.offsets = {0, 2};
  full.arena.readers = {{0, 1.0}, {1, 2.0}};
  EXPECT_EQ(empty.wire_bytes(), 16u);
  EXPECT_EQ(full.wire_bytes(), 16u + 8u + 2u * 12u);
}

TEST(DistributedTcm, ParallelAccrualSmallInputFallsBackToSequential) {
  // Below the parallel threshold the sequential path runs; results match.
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{1, 0, 10, 1}}));
  rs.push_back(rec(1, 0, {{1, 0, 10, 1}}));
  const ReaderArena arena = csr_of(rs, /*weighted=*/true);
  const SquareMatrix par = DistributedTcmReducer::accrue_parallel(arena, 2, 8);
  EXPECT_EQ(par, TcmBuilder::accrue_sparse(arena, 2).densify());
  EXPECT_EQ(par, TcmBuilder::build_reference(rs, 2, true));
}

TEST(DistributedTcm, ShardedAccrualMatchesReference) {
  // About 4k objects: past accrue_parallel's 1024-object threshold, so the
  // worker threads run and each shard's partial must reach the final map.
  const auto rs = random_records(77, 16, 4, 400, 60, 4096);
  const ReaderArena arena = csr_of(rs, /*weighted=*/true);
  ASSERT_GE(arena.object_count(), 2048u);
  const SquareMatrix ref = TcmBuilder::build_reference(rs, 16, true);
  ASSERT_GT(ref.total(), 0.0);
  const std::vector<OalArena> arenas = pack_arenas(rs, /*capacity=*/4096);
  for (const unsigned workers : {2u, 4u}) {
    EXPECT_LT(absolute_error(
                  DistributedTcmReducer::accrue_parallel(arena, 16, workers), ref),
              1e-9)
        << "accrue_parallel, " << workers << " workers";
  }
  EXPECT_LT(absolute_error(
                DistributedTcmReducer::build(log_ptrs(arenas), 16, true, 4), ref),
            1e-9)
      << "build, 4 workers";
}

TEST(DistributedTcm, LocalReducePerNodeMapsAndWire) {
  const auto rs = random_records(99, 8, 4, 80, 16, 128);
  const std::vector<OalArena> arenas = pack_arenas(rs);
  ArenaScratch scratch;
  const auto partials =
      DistributedTcmReducer::local_reduce(log_ptrs(arenas), true, scratch);
  ASSERT_EQ(partials.size(), 4u);
  for (const NodePartial& p : partials) {
    const std::vector<IntervalRecord> mine = records_on(rs, p.node);
    EXPECT_EQ(p.wire_bytes(), partial_wire_bytes(mine)) << "node " << p.node;
    const SquareMatrix map = DistributedTcmReducer::accrue_parallel(p.arena, 8, 1);
    EXPECT_LT(absolute_error(map, TcmBuilder::build_reference(mine, 8, true)),
              1e-9)
        << "node " << p.node;
  }
}

TEST(DistributedTcm, TreeReduceMergedMapAndTraffic) {
  const auto rs = random_records(7, 16, 8, 150, 24, 256);
  const std::vector<OalArena> arenas = pack_arenas(rs);
  ArenaScratch scratch;
  Network net(SimCosts{});
  const NodePartial merged = DistributedTcmReducer::tree_reduce(
      DistributedTcmReducer::local_reduce(log_ptrs(arenas), true, scratch),
      &net, scratch);
  EXPECT_EQ(net.stats().messages_of(MsgCategory::kOal), 7u);
  EXPECT_EQ(net.stats().bytes_of(MsgCategory::kOal), expected_tree_traffic(rs));
  const SquareMatrix map =
      DistributedTcmReducer::accrue_parallel(merged.arena, 16, 4);
  EXPECT_LT(absolute_error(map, TcmBuilder::build_reference(rs, 16, true)), 1e-9);
}

TEST(DistributedTcm, ArenaSplitsMatchReference) {
  const auto rs = random_records(21, 12, 6, 120, 20, 200);
  const SquareMatrix central = TcmBuilder::build_reference(rs, 12, true);
  // Tight 32-entry arenas force interval splits and multi-node arenas; the
  // slice-level bucketing must still reproduce the record-level result.
  const std::vector<OalArena> arenas = pack_arenas(rs, 32);
  const SquareMatrix from_arenas =
      DistributedTcmReducer::build(log_ptrs(arenas), 12, true, 2);
  ASSERT_GT(central.total(), 0.0);
  EXPECT_LT(absolute_error(from_arenas, central), 1e-9);
}

TEST(DistributedTcm, MigratedThreadRecordsMergeAcrossNodes) {
  // A thread whose records span two nodes (it migrated) still deduplicates
  // per (thread, object) with max, like the reference builder.
  std::vector<IntervalRecord> rs;
  rs.push_back(rec(0, 0, {{7, 0, 100, 1}}));
  rs.push_back(rec(0, 1, {{7, 0, 80, 1}}));  // after migration, re-logged
  rs.push_back(rec(1, 2, {{7, 0, 90, 1}}));
  const std::vector<OalArena> arenas = pack_arenas(rs);
  const SquareMatrix central = TcmBuilder::build_reference(rs, 2, false);
  const SquareMatrix dist =
      DistributedTcmReducer::build(log_ptrs(arenas), 2, false);
  EXPECT_DOUBLE_EQ(central.at(0, 1), 90.0);  // min(max(100,80), 90)
  EXPECT_DOUBLE_EQ(dist.at(0, 1), 90.0);
}

}  // namespace
}  // namespace djvm
