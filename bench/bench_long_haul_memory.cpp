// Long-haul memory: retention (decay/compact) on vs off under object churn.
//
// A whole-run TCM accumulator on a server that runs for weeks tracks every
// object the workload ever touched; a churning workload (caches, request
// buffers, sliding datasets) makes that unbounded.  This bench drives the
// accumulator with a sliding object population — every epoch folds a fresh
// window of objects and never revisits old ones — and compares:
//
//   retention-on  — advance_epoch + compact(idle_epochs, decay) each epoch:
//                   tracked objects and payload bytes must plateau at
//                   O(live windows), and the map restricted to live objects
//                   must equal the from-scratch reference exactly (1e-9);
//   retention-off — the pre-retention behavior: tracked objects grow
//                   monotonically with every window ever seen.
//
// The retention-on phase runs FIRST: peak RSS (VmHWM) only ever grows within
// a process, so ordering the small-memory phase first lets the second
// phase's growth show up in the delta.
//
// A third phase gates the decay path (decay > 0), which the sliding window
// never reaches: a 32-thread map of 8192 objects with 25 readers each, all
// but a hot set going idle and decaying at d = 0.5 for 8 passes while a few
// idle objects come back.  The compaction passes' time is gated as a ratio
// to one fold of the same CSR (a per-object decay re-walks every idle
// object's reader pairs on every pass, about one fold each), and the
// decayed map must equal build_reference over the objects' decayed bytes.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <numeric>

#include "common/rng.hpp"
#include "harness.hpp"
#include "profiling/tcm.hpp"

using namespace djvm;
using namespace djvm::bench;

namespace {

constexpr std::uint32_t kThreads = 16;
constexpr int kEpochs = 150;
constexpr std::uint64_t kWindow = 2000;   // fresh object ids per epoch
constexpr int kRecordsPerEpoch = 200;
constexpr int kEntriesPerRecord = 20;
constexpr std::uint32_t kIdleEpochs = 4;
constexpr double kDecay = 0.0;  // drop outright (decay>0 only delays the drop)

std::vector<IntervalRecord> epoch_batch(int epoch) {
  SplitMix64 rng(0xC0FFEE ^ static_cast<std::uint64_t>(epoch));
  std::vector<IntervalRecord> out;
  const ObjectId base = static_cast<ObjectId>(epoch) * kWindow;
  for (int r = 0; r < kRecordsPerEpoch; ++r) {
    IntervalRecord rec;
    rec.thread = static_cast<ThreadId>(rng.next_below(kThreads));
    rec.interval = static_cast<IntervalId>(epoch * kRecordsPerEpoch + r);
    for (int e = 0; e < kEntriesPerRecord; ++e) {
      OalEntry entry;
      entry.obj = base + rng.next_below(kWindow);
      entry.klass = 0;
      entry.bytes = static_cast<std::uint32_t>(16 + rng.next_below(240));
      entry.gap = static_cast<std::uint32_t>(1 + rng.next_below(8));
      rec.entries.push_back(entry);
    }
    out.push_back(std::move(rec));
  }
  return out;
}

constexpr std::uint32_t kDecayThreads = 32;
constexpr ObjectId kDecayObjects = 8192;
constexpr std::uint32_t kDecayReaders = 25;  // per object, distinct threads
constexpr ObjectId kHotObjects = 512;        // touched every epoch: stay live
constexpr int kDecayPasses = 8;
constexpr double kDecayRate = 0.5;
constexpr ObjectId kTouchBacks = 8;          // idle objects back, per pass
// Byte values are multiples of 2^kDecayPasses, so halving them kDecayPasses
// times leaves integers (build_reference takes integer bytes) and none
// falls below one byte (no dust drop).
constexpr std::uint32_t kByteUnit = 1u << kDecayPasses;

struct PhaseResult {
  std::vector<std::size_t> objects_per_epoch;
  std::size_t mem_quarter = 0;   ///< memory_bytes at the 1/4 mark
  std::size_t mem_final = 0;
  std::size_t objects_final = 0;
  std::uint64_t rss_after_kb = 0;
  SquareMatrix final_map;
};

PhaseResult run_phase(bool retention) {
  PhaseResult out;
  TcmAccumulator acc(kThreads);
  ArenaScratch scratch;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const auto arenas = pack_arenas(epoch_batch(epoch));
    acc.add(TcmBuilder::reorganize_arena(slices_of(arenas), /*weighted=*/true,
                                         scratch));
    if (retention) {
      acc.advance_epoch();
      acc.compact(kIdleEpochs, kDecay);
    }
    out.objects_per_epoch.push_back(acc.objects_tracked());
    if (epoch == kEpochs / 4) out.mem_quarter = acc.memory_bytes();
  }
  out.mem_final = acc.memory_bytes();
  out.objects_final = acc.objects_tracked();
  out.final_map = acc.dense();
  out.rss_after_kb = peak_rss_kb();
  return out;
}

/// Reference map over the records retention keeps: windows young enough to
/// survive the final compact (age = kEpochs - epoch < kIdleEpochs).
SquareMatrix live_reference() {
  std::vector<IntervalRecord> live;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    if (kEpochs - epoch < static_cast<int>(kIdleEpochs)) {
      auto batch = epoch_batch(epoch);
      live.insert(live.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
    }
  }
  return TcmBuilder::build_reference(live, kThreads);
}

double max_abs_diff(const SquareMatrix& a, const SquareMatrix& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      worst = std::max(worst, std::abs(a.at(i, j) - b.at(i, j)));
    }
  }
  return worst;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One object's readers, as the decay phase's model holds them.
using Readers = std::vector<std::pair<ThreadId, double>>;

/// CSR of the given objects' readers, in object order.
ReaderArena arena_of(const std::vector<std::pair<ObjectId, Readers>>& objects) {
  ReaderArena arena;
  arena.offsets.push_back(0);
  for (const auto& [obj, readers] : objects) {
    arena.objects.push_back(obj);
    arena.klass.push_back(0);
    arena.readers.insert(arena.readers.end(), readers.begin(), readers.end());
    arena.offsets.push_back(static_cast<std::uint32_t>(arena.readers.size()));
  }
  return arena;
}

struct DecayResult {
  double fold_seconds = 0.0;     ///< one add of the whole CSR (best of 3)
  double compact_seconds = 0.0;  ///< every compaction pass, summed
  std::size_t decayed = 0;       ///< decay decisions over all passes
  std::size_t dropped = 0;
  double max_abs_diff = 0.0;     ///< vs build_reference over decayed bytes
};

DecayResult run_decay_phase() {
  SplitMix64 rng(0xDECA7);
  std::vector<ThreadId> order(kDecayThreads);
  std::vector<Readers> model(kDecayObjects);
  std::vector<std::pair<ObjectId, Readers>> all;
  for (ObjectId obj = 0; obj < kDecayObjects; ++obj) {
    std::iota(order.begin(), order.end(), ThreadId{0});
    for (std::uint32_t r = 0; r < kDecayReaders; ++r) {
      std::swap(order[r], order[r + rng.next_below(kDecayThreads - r)]);
      model[obj].emplace_back(
          order[r], static_cast<double>((1 + rng.next_below(16)) * kByteUnit));
    }
    all.emplace_back(obj, model[obj]);
  }
  const ReaderArena csr = arena_of(all);

  DecayResult out;
  out.fold_seconds = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    TcmAccumulator fresh(kDecayThreads);
    const auto t0 = std::chrono::steady_clock::now();
    fresh.add(csr);
    out.fold_seconds = std::min(out.fold_seconds, seconds_since(t0));
  }

  TcmAccumulator acc(kDecayThreads);
  acc.add(csr);
  std::vector<std::uint32_t> last_touch(kDecayObjects, 0);
  for (int pass = 1; pass <= kDecayPasses; ++pass) {
    acc.advance_epoch();
    // The hot set stays live; from the third pass on a few idle objects
    // come back, raising one reader and adding a thread they lacked.
    std::vector<std::pair<ObjectId, Readers>> touched;
    for (ObjectId obj = 0; obj < kHotObjects; ++obj) {
      touched.emplace_back(obj, model[obj]);
    }
    if (pass >= 3) {
      for (ObjectId k = 0; k < kTouchBacks; ++k) {
        const ObjectId obj =
            kHotObjects + rng.next_below(kDecayObjects - kHotObjects);
        Readers& readers = model[obj];
        Readers back;
        auto& raised = readers[rng.next_below(readers.size())];
        raised.second = std::max(raised.second, 32.0 * kByteUnit);
        back.push_back(raised);
        for (ThreadId t = 0; t < kDecayThreads; ++t) {
          const bool held =
              std::any_of(readers.begin(), readers.end(),
                          [&](const auto& r) { return r.first == t; });
          if (held) continue;
          readers.emplace_back(t, 16.0 * kByteUnit);
          back.push_back(readers.back());
          break;
        }
        touched.emplace_back(obj, std::move(back));
      }
    }
    for (const auto& [obj, readers] : touched) {
      acc.add_readers(obj, readers);
      last_touch[obj] = acc.epoch();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const TcmCompactStats stats = acc.compact(/*idle_epochs=*/1, kDecayRate);
    out.compact_seconds += seconds_since(t0);
    out.decayed += stats.decayed_objects;
    out.dropped += stats.dropped_objects;
    for (ObjectId obj = 0; obj < kDecayObjects; ++obj) {
      if (last_touch[obj] == acc.epoch()) continue;
      for (auto& r : model[obj]) r.second *= kDecayRate;
    }
  }

  // The reference: one record per (object, reader) with the decayed bytes.
  std::vector<IntervalRecord> records;
  for (ObjectId obj = 0; obj < kDecayObjects; ++obj) {
    for (const auto& [thread, bytes] : model[obj]) {
      IntervalRecord rec;
      rec.thread = thread;
      rec.interval = static_cast<IntervalId>(records.size());
      rec.entries.push_back(
          OalEntry{obj, 0, static_cast<std::uint32_t>(bytes), 1});
      records.push_back(std::move(rec));
    }
  }
  out.max_abs_diff =
      max_abs_diff(acc.dense(), TcmBuilder::build_reference(
                                    records, kDecayThreads, /*weighted=*/false));
  return out;
}

}  // namespace

int main() {
  std::cout << "=== Long-haul accumulator memory: retention on vs off ===\n"
            << "(" << kEpochs << " epochs, " << kWindow
            << " fresh objects/epoch, idle bound " << kIdleEpochs
            << " epochs)\n\n";

  // Retention first: VmHWM is monotone, see file comment.
  const PhaseResult ret = run_phase(/*retention=*/true);
  const PhaseResult off = run_phase(/*retention=*/false);
  const DecayResult decay = run_decay_phase();

  TextTable t({"Run", "Objects @25%", "Objects final", "Payload @25%",
               "Payload final", "Peak RSS after (KB)"});
  const auto row = [&](const char* name, const PhaseResult& p) {
    t.add_row({name,
               TextTable::cell(static_cast<std::uint64_t>(
                   p.objects_per_epoch[kEpochs / 4])),
               TextTable::cell(static_cast<std::uint64_t>(p.objects_final)),
               TextTable::cell(static_cast<std::uint64_t>(p.mem_quarter)),
               TextTable::cell(static_cast<std::uint64_t>(p.mem_final)),
               TextTable::cell(p.rss_after_kb)});
  };
  row("retention-on", ret);
  row("retention-off", off);
  t.print(std::cout);

  // Monotone growth without retention (every epoch adds a fresh window).
  bool off_monotone = true;
  for (int e = 1; e < kEpochs; ++e) {
    off_monotone &= off.objects_per_epoch[e] > off.objects_per_epoch[e - 1];
  }
  // Plateau with retention: bounded by the live-window count everywhere
  // after warmup, and no payload growth past the quarter mark.
  std::size_t ret_max_after_warmup = 0;
  for (int e = static_cast<int>(kIdleEpochs); e < kEpochs; ++e) {
    ret_max_after_warmup =
        std::max(ret_max_after_warmup, ret.objects_per_epoch[e]);
  }
  const double accuracy_err = max_abs_diff(ret.final_map, live_reference());

  std::cout << "\nretention-off monotone growth: "
            << (off_monotone ? "yes" : "NO") << "\n"
            << "retention-on max tracked after warmup: " << ret_max_after_warmup
            << " (bound " << (kIdleEpochs + 1) * kWindow << ")\n"
            << "retention map vs live-records reference, max |diff|: "
            << accuracy_err << "\n\n";
  const double decay_over_fold = decay.compact_seconds / decay.fold_seconds;
  std::cout << "decay phase (" << kDecayThreads << " threads, " << kDecayObjects
            << " objects x " << kDecayReaders << " readers, " << kDecayPasses
            << " passes at d = " << kDecayRate << "):\n"
            << "  one fold of the CSR: " << ms_cell(decay.fold_seconds)
            << " ms, all compaction passes: " << ms_cell(decay.compact_seconds)
            << " ms (ratio " << decay_over_fold << ")\n"
            << "  decayed " << decay.decayed << ", dropped " << decay.dropped
            << ", max |diff| vs build_reference over decayed bytes: "
            << decay.max_abs_diff << "\n\n";

  BenchReport report("long_haul_memory");
  report.metric("retention_objects_final",
                static_cast<double>(ret.objects_final), "min", 0.10);
  report.metric("full_objects_final", static_cast<double>(off.objects_final));
  report.metric("retention_payload_final_bytes",
                static_cast<double>(ret.mem_final), "min", 0.25);
  report.metric("full_payload_final_bytes",
                static_cast<double>(off.mem_final));
  report.metric("payload_ratio_full_over_retention",
                static_cast<double>(off.mem_final) /
                    static_cast<double>(ret.mem_final),
                "max", 0.10);
  report.metric("retention_rss_after_kb",
                static_cast<double>(ret.rss_after_kb));
  report.metric("full_rss_after_kb", static_cast<double>(off.rss_after_kb));
  report.metric("accuracy_max_abs_diff", accuracy_err);
  report.metric("decay_compact_seconds", decay.compact_seconds);
  report.metric("decay_compact_over_fold", decay_over_fold, "min", 1.0);

  report.check("retention-off tracked objects grow monotonically",
               off_monotone, off_monotone ? 1 : 0, 1, "==");
  report.check("retention-on tracked objects plateau at the live-window bound",
               ret_max_after_warmup <= (kIdleEpochs + 1) * kWindow,
               static_cast<double>(ret_max_after_warmup),
               static_cast<double>((kIdleEpochs + 1) * kWindow), "<=");
  report.check("retention-on payload stops growing after warmup",
               ret.mem_final <= ret.mem_quarter,
               static_cast<double>(ret.mem_final),
               static_cast<double>(ret.mem_quarter), "<=");
  report.check("retention-off holds >5x the retention payload",
               off.mem_final > 5 * ret.mem_final,
               static_cast<double>(off.mem_final),
               static_cast<double>(5 * ret.mem_final), ">");
  report.check("retention map matches live-records reference at 1e-9",
               accuracy_err <= 1e-9, accuracy_err, 1e-9, "<=");
  report.check("peak RSS did not regress during the retention phase "
               "(retention ran first; VmHWM is monotone)",
               ret.rss_after_kb <= off.rss_after_kb,
               static_cast<double>(ret.rss_after_kb),
               static_cast<double>(off.rss_after_kb), "<=");
  report.check("decayed map matches build_reference over decayed bytes at 1e-9",
               decay.max_abs_diff <= 1e-9, decay.max_abs_diff, 1e-9, "<=");
  return report.finish();
}
