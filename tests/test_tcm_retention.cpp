// TcmAccumulator long-haul retention: drop/decay correctness against the
// reference pipeline, idempotent compaction, merge-after-compact, and the
// free-list keeping pool growth bounded under object churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "profiling/distributed_tcm.hpp"
#include "profiling/tcm.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

constexpr std::uint32_t kThreads = 8;

IntervalRecord rec(ThreadId t, IntervalId i, std::vector<OalEntry> entries) {
  IntervalRecord r;
  r.thread = t;
  r.interval = i;
  r.node = static_cast<NodeId>(t % 2);
  r.entries = std::move(entries);
  return r;
}

/// Random records over object ids in [base, base + span).
std::vector<IntervalRecord> stream_over(std::uint64_t seed, ObjectId base,
                                        std::uint64_t span, int records,
                                        int entries_per_record) {
  SplitMix64 rng(seed);
  std::vector<IntervalRecord> out;
  for (int i = 0; i < records; ++i) {
    const auto t = static_cast<ThreadId>(rng.next_below(kThreads));
    IntervalRecord r = rec(t, static_cast<IntervalId>(i), {});
    for (int e = 0; e < entries_per_record; ++e) {
      OalEntry entry;
      entry.obj = base + rng.next_below(span);
      entry.klass = 0;
      entry.bytes = static_cast<std::uint32_t>(8 + rng.next_below(256));
      entry.gap = static_cast<std::uint32_t>(1 + rng.next_below(16));
      r.entries.push_back(entry);
    }
    out.push_back(std::move(r));
  }
  return out;
}

void expect_maps_near(const SquareMatrix& a, const SquareMatrix& b,
                      const char* what, double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_NEAR(a.at(i, j), b.at(i, j), tol)
          << what << " cell (" << i << "," << j << ")";
    }
  }
}

TEST(TcmRetention, DropStaleMatchesReferenceOverLiveRecords) {
  // Stale objects [0, 64) folded only at epoch 0; live objects [1000, 1064)
  // re-folded every epoch.  After the stale set ages out, the accumulator
  // must equal a from-scratch reference build over the live records alone.
  const auto stale = stream_over(/*seed=*/1, /*base=*/0, /*span=*/64,
                                 /*records=*/40, /*entries=*/12);
  const auto live = stream_over(/*seed=*/2, /*base=*/1000, /*span=*/64,
                                /*records=*/40, /*entries=*/12);

  TcmAccumulator acc(kThreads);
  acc.add(csr_of(stale, /*weighted=*/true));
  acc.add(csr_of(live, /*weighted=*/true));
  for (int epoch = 0; epoch < 4; ++epoch) {
    acc.advance_epoch();
    // Identical records: max-combining leaves values as-is.
    acc.add(csr_of(live, /*weighted=*/true));
  }
  const TcmCompactStats stats = acc.compact(/*idle_epochs=*/3, /*decay=*/0.0);
  EXPECT_GT(stats.dropped_objects, 0u);
  EXPECT_EQ(stats.decayed_objects, 0u);
  EXPECT_GT(stats.freed_readers, 0u);

  expect_maps_near(acc.dense(),
                   TcmBuilder::build_reference(live, kThreads),
                   "post-drop map vs live-records reference");
  // Every stale object evicted, every live object kept.
  std::size_t live_objects = 0;
  {
    TcmAccumulator probe(kThreads);
    probe.add(csr_of(live, /*weighted=*/true));
    live_objects = probe.objects_tracked();
  }
  EXPECT_EQ(acc.objects_tracked(), live_objects);
}

TEST(TcmRetention, CompactIsIdempotentWithinAnEpoch) {
  const auto records = stream_over(3, 0, 128, 60, 10);
  for (const double decay : {0.0, 0.5}) {
    TcmAccumulator acc(kThreads);
    acc.add(csr_of(records, /*weighted=*/true));
    for (int i = 0; i < 5; ++i) acc.advance_epoch();
    const TcmCompactStats first = acc.compact(2, decay);
    EXPECT_GT(first.dropped_objects + first.decayed_objects, 0u);
    const SquareMatrix after_first = acc.dense();
    const TcmCompactStats second = acc.compact(2, decay);
    EXPECT_EQ(second.dropped_objects, 0u) << "decay=" << decay;
    EXPECT_EQ(second.decayed_objects, 0u) << "decay=" << decay;
    EXPECT_EQ(second.freed_readers, 0u) << "decay=" << decay;
    expect_maps_near(acc.dense(), after_first, "second compact is a no-op");
  }
}

TEST(TcmRetention, DecayScalesStalePairMassExactly) {
  // One stale object (threads 0/1, 100 bytes each) and one live object
  // (threads 2/3, 80 bytes each), unweighted so the expected cells are
  // plain minima.
  TcmAccumulator acc(kThreads);
  const std::vector<std::pair<ThreadId, double>> stale_readers = {{0, 100.0},
                                                                  {1, 100.0}};
  const std::vector<std::pair<ThreadId, double>> live_readers = {{2, 80.0},
                                                                 {3, 80.0}};
  acc.add_readers(7, stale_readers);
  acc.add_readers(8, live_readers);
  for (int i = 0; i < 3; ++i) {
    acc.advance_epoch();
    acc.add_readers(8, live_readers);
  }

  TcmCompactStats stats = acc.compact(/*idle_epochs=*/2, /*decay=*/0.5);
  EXPECT_EQ(stats.decayed_objects, 1u);
  EXPECT_EQ(stats.dropped_objects, 0u);
  SquareMatrix m = acc.dense();
  EXPECT_NEAR(m.at(0, 1), 50.0, 1e-9);  // stale pair halved
  EXPECT_NEAR(m.at(2, 3), 80.0, 1e-9);  // live pair untouched

  // Repeated epochs of decay shrink the stale mass geometrically until the
  // dust threshold (decayed max byte value < 1) drops the object outright.
  std::size_t tracked_before = acc.objects_tracked();
  for (int round = 0; round < 16 && acc.objects_tracked() == tracked_before;
       ++round) {
    acc.advance_epoch();
    acc.add_readers(8, live_readers);
    acc.compact(2, 0.5);
  }
  EXPECT_EQ(acc.objects_tracked(), tracked_before - 1);
  m = acc.dense();
  EXPECT_NEAR(m.at(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(m.at(2, 3), 80.0, 1e-9);
}

TEST(TcmRetention, MergeAfterCompactMatchesReference) {
  const auto stale = stream_over(4, 0, 64, 30, 10);
  const auto live = stream_over(5, 500, 64, 30, 10);
  const auto incoming = stream_over(6, 800, 64, 30, 10);

  TcmAccumulator acc(kThreads);
  acc.add(csr_of(stale, /*weighted=*/true));
  acc.add(csr_of(live, /*weighted=*/true));
  for (int i = 0; i < 4; ++i) {
    acc.advance_epoch();
    acc.add(csr_of(live, /*weighted=*/true));
  }
  ASSERT_GT(acc.compact(3, 0.0).dropped_objects, 0u);

  // Merging a fresh epoch's CSR into a compacted accumulator must behave as
  // if the dropped objects never existed.
  acc.add(csr_of(incoming, /*weighted=*/true));

  std::vector<IntervalRecord> surviving = live;
  surviving.insert(surviving.end(), incoming.begin(), incoming.end());
  expect_maps_near(acc.dense(),
                   TcmBuilder::build_reference(surviving, kThreads),
                   "merge-after-compact vs reference");
  // And the distributed reducer over the same surviving records agrees —
  // compaction composes with the reduction monoid.
  expect_maps_near(acc.dense(),
                   DistributedTcmReducer::build(
                       log_ptrs(pack_arenas(surviving)), kThreads,
                       /*weighted=*/true),
                   "merge-after-compact vs distributed reducer");
}

TEST(TcmRetention, FreeListBoundsPoolUnderChurn) {
  // A sliding object population: each epoch folds a fresh window of objects
  // and compaction retires windows older than the idle bound.  The pool and
  // slot arrays must plateau instead of growing with total objects ever seen.
  constexpr std::uint64_t kWindow = 256;
  constexpr int kEpochs = 40;
  TcmAccumulator acc(kThreads);
  std::size_t mem_mid = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const auto batch =
        stream_over(100 + epoch, static_cast<ObjectId>(epoch) * kWindow,
                    kWindow, 20, 8);
    acc.add(csr_of(batch, /*weighted=*/true));
    acc.advance_epoch();
    acc.compact(/*idle_epochs=*/3, /*decay=*/0.0);
    if (epoch == kEpochs / 2) mem_mid = acc.memory_bytes();
  }
  // Live state covers at most idle_epochs + 1 windows at any point.
  EXPECT_LE(acc.objects_tracked(), (3 + 1) * kWindow);
  // Capacities reached steady state by mid-run: no further growth after.
  EXPECT_GT(mem_mid, 0u);
  EXPECT_LE(acc.memory_bytes(), mem_mid);
}

/// Test-local model of the per-object retention decay the idle pool
/// regroups: every pass walks each stale object's reader pairs, scaling its
/// bytes and subtracting the (1 - d) share of its pair terms one object at a
/// time.  Adds follow TcmAccumulator::add_one's pair updates.
class PerObjectDecayModel {
 public:
  using Readers = std::vector<std::pair<ThreadId, double>>;

  explicit PerObjectDecayModel(std::uint32_t threads) : pairs_(threads) {}

  void advance_epoch() { ++epoch_; }
  void reset() {
    objects_.clear();
    pairs_.clear();
    epoch_ = 0;
  }

  void add_readers(ObjectId obj, const Readers& readers) {
    Object& o = objects_[obj];
    o.last_touch = epoch_;
    for (const auto& [thread, bytes] : readers) {
      auto held = std::find_if(o.readers.begin(), o.readers.end(),
                               [&](const auto& r) { return r.first == thread; });
      if (held == o.readers.end()) {
        for (const auto& [t, b] : o.readers) {
          pairs_.add(thread, t, std::min(bytes, b));
        }
        o.readers.emplace_back(thread, bytes);
        continue;
      }
      const double old = held->second;
      if (bytes <= old) continue;
      for (const auto& [t, b] : o.readers) {
        if (t == thread) continue;
        const double delta = std::min(bytes, b) - std::min(old, b);
        if (delta > 0.0) pairs_.add(thread, t, delta);
      }
      held->second = bytes;
    }
  }

  TcmCompactStats compact(std::uint32_t idle_epochs, double decay) {
    TcmCompactStats stats;
    for (auto it = objects_.begin(); it != objects_.end();) {
      Object& o = it->second;
      if (epoch_ - o.last_touch < idle_epochs ||
          (decay > 0.0 && o.decay_epoch == epoch_)) {
        ++it;
        continue;
      }
      double max_bytes = 0.0;
      for (const auto& r : o.readers) max_bytes = std::max(max_bytes, r.second);
      if (decay > 0.0 && decay * max_bytes >= 1.0) {
        add_pair_terms(o, -(1.0 - decay));
        for (auto& r : o.readers) r.second *= decay;
        o.decay_epoch = epoch_;
        ++stats.decayed_objects;
        ++it;
        continue;
      }
      add_pair_terms(o, -1.0);
      stats.freed_readers += o.readers.size();
      ++stats.dropped_objects;
      it = objects_.erase(it);
    }
    return stats;
  }

  [[nodiscard]] SquareMatrix dense() const { return pairs_.densify(); }
  [[nodiscard]] std::size_t objects_tracked() const { return objects_.size(); }
  [[nodiscard]] std::size_t reader_entries() const {
    std::size_t n = 0;
    for (const auto& [obj, o] : objects_) n += o.readers.size();
    return n;
  }

 private:
  struct Object {
    Readers readers;
    std::uint32_t last_touch = 0;
    std::uint32_t decay_epoch = 0xFFFFFFFFu;
  };

  void add_pair_terms(const Object& o, double scale) {
    for (std::size_t i = 0; i < o.readers.size(); ++i) {
      for (std::size_t j = i + 1; j < o.readers.size(); ++j) {
        const double w = std::min(o.readers[i].second, o.readers[j].second);
        if (w > 0.0) {
          pairs_.add(o.readers[i].first, o.readers[j].first, scale * w);
        }
      }
    }
  }

  std::map<ObjectId, Object> objects_;
  UpperTriangle pairs_;
  std::uint32_t epoch_ = 0;
};

/// Largest cell magnitude of `m` (at least 1).
double largest_cell(const SquareMatrix& m) {
  double largest = 1.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) {
      largest = std::max(largest, std::abs(m.at(i, j)));
    }
  }
  return largest;
}

/// The map agrees with the model bit for bit (`exact`) or within 1e-9 of
/// `scale`, the largest cell the model's map has held: a decayed or dropped
/// term leaves rounding residue relative to the mass it once was.
void expect_map_matches_model(const SquareMatrix& got, const SquareMatrix& want,
                              bool exact, double scale,
                              const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    for (std::size_t j = 0; j < want.size(); ++j) {
      if (exact) {
        ASSERT_EQ(got.at(i, j), want.at(i, j))
            << what << " cell (" << i << "," << j << ")";
      } else {
        ASSERT_NEAR(got.at(i, j), want.at(i, j), 1e-9 * scale)
            << what << " cell (" << i << "," << j << ")";
      }
    }
  }
}

/// One epoch's touches over a 300-object population: ids [0, 60) are hot
/// (touched nine epochs in ten), [60, 200) warm (one in eight, so they go
/// idle, decay in the pool and come back raising and adding readers), and
/// [200, 300) only touched before epoch 5, the last 20 of them with 1-3
/// bytes per reader (dust, dropped on or soon after their first pass).
std::vector<std::pair<ObjectId, PerObjectDecayModel::Readers>> touches(
    SplitMix64& rng, int epoch) {
  std::vector<std::pair<ObjectId, PerObjectDecayModel::Readers>> out;
  for (ObjectId obj = 0; obj < 300; ++obj) {
    const bool touched = obj < 60    ? rng.next_below(10) != 0
                         : obj < 200 ? rng.next_below(8) == 0
                                     : epoch < 5 && rng.next_below(2) == 0;
    if (!touched) continue;
    PerObjectDecayModel::Readers readers;
    const auto count = 1 + rng.next_below(6);
    for (std::uint64_t r = 0; r < count; ++r) {
      const auto thread = static_cast<ThreadId>(rng.next_below(kThreads));
      if (std::any_of(readers.begin(), readers.end(),
                      [&](const auto& p) { return p.first == thread; })) {
        continue;
      }
      const double bytes =
          obj >= 280 ? static_cast<double>(1 + rng.next_below(3))
                     : static_cast<double>((8 + rng.next_below(256)) *
                                           (1 + rng.next_below(16)));
      readers.emplace_back(thread, bytes);
    }
    out.emplace_back(obj, std::move(readers));
  }
  return out;
}

TEST(TcmRetention, IdlePoolMatchesPerObjectDecay) {
  // The idle pool regroups the decay's pair arithmetic but must make the
  // per-object decay's every decision: the same stats, objects and reader
  // entries after every pass, and the same map (bit for bit at d = 0.5,
  // where halving integer byte values is exact).
  constexpr std::uint32_t kIdle = 2;
  for (const double decay : {0.5, 0.3, 0.9}) {
    for (const std::uint32_t period : {1u, 3u}) {
      const std::string run = "decay " + std::to_string(decay) + " period " +
                              std::to_string(period);
      SCOPED_TRACE(run);
      const bool exact = decay == 0.5;
      TcmAccumulator acc(kThreads);
      PerObjectDecayModel model(kThreads);
      SplitMix64 rng(0x1D1E);
      std::size_t decayed = 0;
      std::size_t dropped = 0;
      double scale = 1.0;
      const auto expect_model = [&](const std::string& when) {
        const SquareMatrix want = model.dense();
        scale = std::max(scale, largest_cell(want));
        expect_map_matches_model(acc.dense(), want, exact, scale, when);
      };
      const auto compact_both = [&](const std::string& when,
                                    std::uint32_t idle, double rate) {
        const TcmCompactStats got = acc.compact(idle, rate);
        const TcmCompactStats want = model.compact(idle, rate);
        ASSERT_EQ(got.decayed_objects, want.decayed_objects) << when;
        ASSERT_EQ(got.dropped_objects, want.dropped_objects) << when;
        ASSERT_EQ(got.freed_readers, want.freed_readers) << when;
        ASSERT_EQ(acc.objects_tracked(), model.objects_tracked()) << when;
        ASSERT_EQ(acc.reader_entries(), model.reader_entries()) << when;
        expect_model(when);
        decayed += got.decayed_objects;
        dropped += got.dropped_objects;
        // A second pass in the same epoch changes nothing.
        const SquareMatrix before = acc.dense();
        const TcmCompactStats again = acc.compact(idle, rate);
        ASSERT_EQ(again.decayed_objects + again.dropped_objects +
                      again.freed_readers,
                  0u)
            << when;
        expect_map_matches_model(acc.dense(), before, /*exact=*/true, scale,
                                 when + ", second pass");
      };

      for (int epoch = 0; epoch < 60; ++epoch) {
        const std::string when = "epoch " + std::to_string(epoch);
        if (epoch == 30) {
          // A reset mid-run empties the pool with everything else.
          acc.reset();
          model.reset();
        }
        acc.advance_epoch();
        model.advance_epoch();
        for (const auto& [obj, readers] : touches(rng, epoch % 30)) {
          acc.add_readers(obj, readers);
          model.add_readers(obj, readers);
        }
        expect_model(when + ", after the adds");
        // Late in the run the pass's arguments move: a larger idle bound
        // (pooled objects that are no longer stale leave the pool), then,
        // off the exact rate, a different decay (the pool's pending passes
        // are applied at the old rate first).
        const std::uint32_t idle = epoch >= 45 ? kIdle + 2 : kIdle;
        const double rate = epoch >= 50 && !exact ? 0.5 : decay;
        if (acc.epoch() % period == 0) compact_both(when, idle, rate);
        if (HasFatalFailure()) return;
      }
      // Both the pool and the drop path ran.
      EXPECT_GT(decayed, 0u);
      EXPECT_GT(dropped, 0u);

      // Nothing is touched again: everything decays to dust and drops, the
      // pool empties, and every pair cell is back to zero (exactly at
      // d = 0.5; elsewhere the model's own rounding residue).
      for (int epoch = 0; acc.objects_tracked() != 0 && epoch < 1000;
           ++epoch) {
        acc.advance_epoch();
        model.advance_epoch();
        if (acc.epoch() % period == 0) compact_both("drain", kIdle, decay);
        if (HasFatalFailure()) return;
      }
      ASSERT_EQ(acc.objects_tracked(), 0u);
      ASSERT_EQ(acc.reader_entries(), 0u);
      expect_model("drained");
      if (exact) {
        expect_map_matches_model(acc.dense(), SquareMatrix(kThreads),
                                 /*exact=*/true, scale, "drained to zero");
      }
    }
  }
}

}  // namespace
}  // namespace djvm
