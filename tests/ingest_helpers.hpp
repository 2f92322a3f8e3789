// Test helpers that carry hand-built IntervalRecords onto the arena path,
// the only one the TCM code accepts:
//
//  * `pack_arenas` / `log_ptrs` pack records into ingest arenas for the
//    distributed reducer;
//  * `csr_of` / `tcm_of` reorganize records into a CSR arena (and its map)
//    through TcmBuilder::reorganize_arena;
//  * `RecordFeeder` delivers records to a CorrelationDaemon through an
//    IngestHub.  Declare the feeder BEFORE the daemon uses it each epoch —
//    the daemon recycles drained arenas back into the feeder's hub at its
//    next run_epoch/build_full, so the hub must outlive those calls.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "profiling/correlation_daemon.hpp"
#include "profiling/ingest.hpp"
#include "profiling/oal.hpp"
#include "profiling/tcm.hpp"

namespace djvm {

/// Packs records into ingest arenas of `capacity` entries each, splitting
/// intervals across arenas exactly as IngestHub::append does.  At the
/// default capacity everything lands in one arena, one slice per non-empty
/// record in record order.
inline std::vector<OalArena> pack_arenas(
    std::span<const IntervalRecord> records,
    std::uint32_t capacity = std::numeric_limits<std::uint32_t>::max()) {
  std::vector<OalArena> arenas(1);
  for (const IntervalRecord& r : records) {
    std::size_t done = 0;
    while (done < r.entries.size()) {
      if (arenas.back().entries.size() >= capacity) arenas.emplace_back();
      OalArena& a = arenas.back();
      const std::size_t take =
          std::min<std::size_t>(capacity - a.entries.size(),
                                r.entries.size() - done);
      const auto begin = static_cast<std::uint32_t>(a.entries.size());
      a.entries.insert(a.entries.end(), r.entries.begin() + done,
                       r.entries.begin() + done + take);
      a.intervals.push_back(ArenaInterval{
          r.thread, r.interval, r.node, r.start_pc, r.end_pc, begin,
          static_cast<std::uint32_t>(a.entries.size())});
      done += take;
    }
  }
  return arenas;
}

/// The arenas as the `logs` span DistributedTcmReducer takes.
inline std::vector<const OalArena*> log_ptrs(const std::vector<OalArena>& arenas) {
  std::vector<const OalArena*> logs;
  for (const OalArena& a : arenas) logs.push_back(&a);
  return logs;
}

/// Every slice of the arenas, in order.
inline std::vector<ArenaSliceRef> slices_of(const std::vector<OalArena>& arenas) {
  std::vector<ArenaSliceRef> slices;
  for (const OalArena& a : arenas) {
    for (std::uint32_t s = 0; s < a.intervals.size(); ++s) {
      slices.push_back(ArenaSliceRef{&a, s});
    }
  }
  return slices;
}

/// The records' CSR arena: packed one slice per record, in record order, so
/// reorganize_arena sees the records' (thread, entry) tuples in their order.
inline ReaderArena csr_of(std::span<const IntervalRecord> records,
                          bool weighted) {
  const std::vector<OalArena> arenas = pack_arenas(records);
  ArenaScratch scratch;
  return TcmBuilder::reorganize_arena(slices_of(arenas), weighted, scratch);
}

/// The records' map through the CSR path (reorganize + accrue_sparse).
inline SquareMatrix tcm_of(std::span<const IntervalRecord> records,
                           std::uint32_t threads, bool weighted = true) {
  return TcmBuilder::accrue_sparse(csr_of(records, weighted), threads)
      .densify();
}

class RecordFeeder {
 public:
  explicit RecordFeeder(IngestConfig cfg = {}) : hub_(cfg) {}

  /// Publishes `records` through the hub (one lane per thread id, one slice
  /// per record) and drains them into `daemon` via ingest().
  void feed(CorrelationDaemon& daemon, std::vector<IntervalRecord> records) {
    std::uint32_t lanes = 1;
    for (const IntervalRecord& r : records) {
      if (r.thread + 1u > lanes) lanes = r.thread + 1u;
    }
    hub_.ensure_lanes(lanes);
    for (const IntervalRecord& r : records) {
      hub_.append(r.thread, r.thread, r.interval, r.node, r.start_pc, r.end_pc,
                  r.entries);
    }
    for (std::uint32_t lane = 0; lane < lanes; ++lane) hub_.flush(lane);
    daemon.ingest(hub_);
  }

  [[nodiscard]] IngestHub& hub() noexcept { return hub_; }

 private:
  IngestHub hub_;
};

}  // namespace djvm
