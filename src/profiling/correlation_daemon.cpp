#include "profiling/correlation_daemon.hpp"

#include <algorithm>
#include <chrono>
#include <future>

#include "profiling/accuracy.hpp"

namespace djvm {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}
}  // namespace

CorrelationDaemon::CorrelationDaemon(SamplingPlan& plan, std::uint32_t threads)
    : plan_(plan),
      threads_(threads),
      governor_(plan),
      full_(threads),
      latest_(threads) {}

void CorrelationDaemon::sanitize_arena(OalArena& arena) const {
  // Entries are external input: a class id beyond the registry must not tag
  // the epoch's CSR (the tag sizes class-indexed attribution vectors — the
  // same invariant note_epoch_entry enforces on the epoch stats).  Untagged
  // entries still fold into the map; they just carry no attribution.
  const std::size_t classes = plan_.heap().registry().size();
  for (OalEntry& e : arena.entries) {
    if (e.klass != kInvalidClass && e.klass >= classes) {
      e.klass = kInvalidClass;
    }
  }
}

void CorrelationDaemon::filter_arena(OalArena& arena) const {
  if (!node_filter_) return;
  bool any_dead = false;
  for (const ArenaInterval& iv : arena.intervals) {
    if (!node_filter_(iv.node)) {
      any_dead = true;
      break;
    }
  }
  if (!any_dead) return;
  // Compact in place: the arena is recycled (and cleared) after the epoch
  // anyway, so dropping a dead node's slices here loses exactly the
  // un-shipped intervals that would have died with the node.
  std::vector<OalEntry> entries;
  entries.reserve(arena.entries.size());
  std::vector<ArenaInterval> intervals;
  intervals.reserve(arena.intervals.size());
  for (const ArenaInterval& iv : arena.intervals) {
    if (!node_filter_(iv.node)) continue;
    ArenaInterval kept = iv;
    kept.begin = static_cast<std::uint32_t>(entries.size());
    entries.insert(entries.end(), arena.entries.begin() + iv.begin,
                   arena.entries.begin() + iv.end);
    kept.end = static_cast<std::uint32_t>(entries.size());
    intervals.push_back(kept);
  }
  arena.entries = std::move(entries);
  arena.intervals = std::move(intervals);
}

std::size_t CorrelationDaemon::ingest(IngestHub& hub, bool quiesced) {
  const auto t0 = std::chrono::steady_clock::now();
  if (hub_ != &hub) {
    hub_ = &hub;
    ring_snapshot_ = IngestCounters{};  // deltas restart against the new hub
  }
  std::size_t consumed = 0;
  const auto consume = [&](OalArena* a) {
    filter_arena(*a);
    sanitize_arena(*a);
    total_entries_ += a->entries.size();
    pending_slices_ += a->intervals.size();
    pending_arenas_.push_back(a);
    ++consumed;
  };
  while (OalArena* a = hub.try_pop()) consume(a);
  if (quiesced) {
    for (OalArena* a : hub.take_stranded()) consume(a);
  }
  drain_seconds_ += seconds_since(t0);
  return consumed;
}

ReaderArena CorrelationDaemon::reorganize_pending() {
  slices_.clear();
  for (const OalArena* a : pending_arenas_) {
    for (std::uint32_t i = 0; i < a->intervals.size(); ++i) {
      slices_.push_back(ArenaSliceRef{a, i});
    }
  }
  return TcmBuilder::reorganize_arena(slices_, /*weighted=*/true, scratch_);
}

void CorrelationDaemon::fold_window(const ReaderArena& csr, EpochResult& out) {
  // Per-class benefit/cost stats feed only the closed-loop back-off; the
  // legacy and disarmed paths skip the per-entry pass.  Each entry is also
  // attributed to the worker node whose interval shipped it, so the
  // per-node back-off can see which classes dominate one node's cost.
  const bool class_stats = governor_.mode() == GovernorMode::kClosedLoop;
  const bool want_cells = !influence_placement_.empty();
  std::vector<double> home_mass;
  if (class_stats) plan_.begin_epoch_stats();
  const Heap& heap = plan_.heap();
  // Walk the drained arena slices (each carries the interval header context
  // a record would have).  Thread-home-affinity mass: HT-weighted bytes the
  // logging node accessed on objects homed elsewhere — cells the balancer's
  // home-aware planner acts on even without a co-located peer.
  if (class_stats || want_cells) {
    for (const OalArena* a : pending_arenas_) {
      for (const ArenaInterval& iv : a->intervals) {
        for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
          const OalEntry& e = a->entries[i];
          if (class_stats) {
            plan_.note_epoch_entry(e.klass, e.bytes, e.gap);
            plan_.note_epoch_node_entry(iv.node, e.klass, e.bytes, e.gap);
          }
          if (want_cells && iv.node != kInvalidNode &&
              e.klass != kInvalidClass && e.obj < heap.object_count() &&
              heap.meta(e.obj).home != iv.node) {
            if (home_mass.size() <= e.klass) home_mass.resize(e.klass + 1, 0.0);
            home_mass[e.klass] +=
                static_cast<double>(e.bytes) * static_cast<double>(e.gap);
          }
        }
      }
    }
  }

  const UpperTriangle pairs = TcmBuilder::accrue_sparse(csr, threads_);
  if (want_cells) {
    out.cells =
        TcmBuilder::attribute_cells(csr, threads_, influence_placement_);
    out.cells.home_mass = std::move(home_mass);
  }
  const auto td = std::chrono::steady_clock::now();
  out.tcm = pairs.densify();
  out.densify_seconds = seconds_since(td);
}

void CorrelationDaemon::fold_whole_run(const ReaderArena& csr,
                                       EpochResult& out) {
  // Ingested entries have no raw records to re-fold later, so build_full's
  // map is fed here; under retention, periodically evict stale objects too.
  full_.add(csr);
  if (retention_.active()) {
    full_.advance_epoch();
    if (retention_.compact_period != 0 &&
        full_.epoch() % retention_.compact_period == 0) {
      dropped_objects_ +=
          full_.compact(retention_.idle_epochs, retention_.decay)
              .dropped_objects;
    }
    out.retained_objects = full_.objects_tracked();
    out.retained_readers = full_.reader_entries();
    out.dropped_objects = dropped_objects_;
  }
}

EpochResult CorrelationDaemon::run_epoch(OverheadSample sample) {
  EpochResult out;
  out.intervals = pending_slices_;
  std::uint64_t wire_bytes = 0;
  for (const OalArena* a : pending_arenas_) {
    out.entries += a->entries.size();
    wire_bytes += a->wire_bytes();
  }

  // The epoch's one fold: a single CSR over every pending slice answers the
  // window map, the per-class attribution, and the whole-run merge.  All of
  // it is coordinator map work, timed into build_seconds (its meaning — the
  // full construction cost of this window's map, drains included — is what
  // the governor's budget model expects).  The two sides read the same
  // immutable CSR and write disjoint state, so an epoch of at least
  // kForkMinReaders reader entries runs its window side on one helper thread
  // while this thread folds the whole run, and joins before anything reads
  // the window's results; every output is the one the serial order gives.
  const auto tb = std::chrono::steady_clock::now();
  const ReaderArena csr = reorganize_pending();
  std::future<void> window;
  if (csr.readers.size() >= kForkMinReaders) {
    window = std::async(std::launch::async, [&] { fold_window(csr, out); });
  } else {
    fold_window(csr, out);
  }
  fold_whole_run(csr, out);
  if (window.valid()) window.get();
  out.build_seconds = drain_seconds_ + seconds_since(tb);
  drain_seconds_ = 0.0;
  build_seconds_ += out.build_seconds;
  out.epoch = epochs_;
  ++epochs_;

  if (have_latest_) {
    out.rel_distance = absolute_error(out.tcm, latest_);
  }

  // Fill in what the caller did not measure, then let the governor decide.
  // Added rather than assigned: a caller-supplied build_seconds carries
  // coordinator work done outside the daemon (the facade's migration-planner
  // and feedback run from the previous epoch), which must stay visible to
  // the meter's coordinator bucket alongside this epoch's map construction.
  sample.build_seconds += out.build_seconds;
  if (!sample.measured) {
    sample.wire_bytes = wire_bytes;
    // Observational per-node slices derived from the records themselves
    // (no app time was measured, so the governor will not budget on them,
    // but the per-node wire view stays visible).
    if (sample.nodes.empty()) {
      const auto bill_node = [&](NodeId node, std::uint64_t bytes) {
        if (node == kInvalidNode) return;
        auto it = std::find_if(
            sample.nodes.begin(), sample.nodes.end(),
            [&](const NodeOverheadSample& ns) { return ns.node == node; });
        if (it == sample.nodes.end()) {
          sample.nodes.push_back(NodeOverheadSample{});
          it = sample.nodes.end() - 1;
          it->node = node;
        }
        it->wire_bytes += bytes;
      };
      for (const OalArena* a : pending_arenas_) {
        for (const ArenaInterval& iv : a->intervals) {
          bill_node(iv.node, kIntervalHeaderWireBytes +
                                 std::uint64_t(iv.end - iv.begin) *
                                     kOalEntryWireBytes);
        }
      }
    }
  }
  sample.resampled_objects += carryover_resampled_;
  // Resampling passes run *after* a decision, so their per-node cost lands
  // in the next epoch's sample — attributed to the node that walked its own
  // cached copies, and merged only into node slices the pump already
  // measured (a node absent from a measured sample has no app time to
  // budget against).
  for (NodeOverheadSample& ns : sample.nodes) {
    if (ns.node < carryover_resampled_by_node_.size()) {
      ns.resampled_objects += carryover_resampled_by_node_[ns.node];
    }
  }
  static_cast<void>(  // discard passes not owed to the governor
      plan_.drain_resampled_by_node());
  if (hub_ != nullptr) {
    // Ring telemetry over this epoch, and the producer-stall bill: every
    // backpressure event parked an arena on a worker thread, which is
    // rate-dependent worker CPU exactly like the log service itself.
    const IngestCounters now = hub_->counters();
    out.ring_published = now.arenas_published - ring_snapshot_.arenas_published;
    out.ring_entries =
        now.entries_published - ring_snapshot_.entries_published;
    out.ring_backpressure =
        now.backpressure_events - ring_snapshot_.backpressure_events;
    ring_snapshot_ = now;
    sample.access_check_seconds +=
        static_cast<double>(out.ring_backpressure) * kRingBackpressureSeconds;
  }
  const Governor::EpochOutcome decision =
      governor_.on_epoch(out.rel_distance, sample);
  out.sample = sample;
  out.rate_changed = decision.rate_changed;
  out.resampled_objects = decision.resampled_objects;
  out.action = decision.action;
  out.overhead_fraction = decision.overhead_fraction;
  out.offender = decision.offender;
  out.offender_fraction = decision.offender_fraction;
  carryover_resampled_ = decision.resampled_objects;
  carryover_resampled_by_node_ = plan_.drain_resampled_by_node();
  const OverheadMeter& meter = governor_.meter();
  out.node_fractions.resize(meter.node_count());
  for (std::size_t n = 0; n < out.node_fractions.size(); ++n) {
    out.node_fractions[n] = meter.node_rolling_fraction(static_cast<NodeId>(n));
  }

  latest_ = out.tcm;
  have_latest_ = true;
  intervals_seen_ += pending_slices_;
  release_pending_arenas();
  return out;
}

void CorrelationDaemon::release_pending_arenas() {
  if (hub_ != nullptr) {
    for (OalArena* a : pending_arenas_) hub_->recycle(a);
  }
  pending_arenas_.clear();
  pending_slices_ = 0;
}

SquareMatrix CorrelationDaemon::build_full() {
  // The whole-run map *is* the whole-run accumulator (fed by every
  // run_epoch's merge) plus whatever sits in the unconsumed window, folded
  // here through the same one CSR.  The accumulated state carries
  // HT-weighted bytes only — ingested entries never had raw records to
  // re-weigh.
  intervals_seen_ += pending_slices_;
  const auto tr = std::chrono::steady_clock::now();
  full_.add(reorganize_pending());
  release_pending_arenas();
  SquareMatrix tcm = full_.dense();
  build_seconds_ += drain_seconds_ + seconds_since(tr);
  drain_seconds_ = 0.0;
  latest_ = tcm;
  have_latest_ = true;
  return tcm;
}

void CorrelationDaemon::clear() {
  release_pending_arenas();
  hub_ = nullptr;
  ring_snapshot_ = IngestCounters{};
  drain_seconds_ = 0.0;
  full_.reset();
  latest_ = SquareMatrix(threads_);
  have_latest_ = false;
  governor_.reset();  // clearing discards convergence progress too
  build_seconds_ = 0.0;
  total_entries_ = 0;
  intervals_seen_ = 0;
  dropped_objects_ = 0;
  epochs_ = 0;
  carryover_resampled_ = 0;
  carryover_resampled_by_node_.clear();
}

}  // namespace djvm
