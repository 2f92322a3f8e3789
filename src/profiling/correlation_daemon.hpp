// The central correlation-computing daemon (the master JVM of Fig. 2).
//
// Drains the worker nodes' OAL arenas as they are published and, at each
// epoch tick, folds the epoch's entries exactly once: one CSR reorganize over
// every pending arena slice (see profiling/tcm.hpp) yields the window's map
// (sparse accrual + one densify), its per-class cell attribution, and the
// single merge into the whole-run accumulator behind build_full().  After the
// reorganize the tick has two sides that read the same immutable CSR and
// write disjoint state: the window side (class stats, accrual, attribution,
// densify) and the whole-run side (merge, retention).  An epoch whose CSR
// holds at least kForkMinReaders reader entries runs the window side on one
// helper thread while the caller runs the whole-run side, then joins; a
// smaller epoch runs both inline.  Either way every output is bit-identical
// to the serial order, on any core count.  The
// window's movement plus measured costs then go to the profiling governor,
// which owns all rate decisions: the paper's Section II.B.2 convergence loop
// in legacy mode, or the budgeted bidirectional controller with phase
// detection in closed-loop mode (see governor/governor.hpp).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/matrix.hpp"
#include "governor/governor.hpp"
#include "net/message.hpp"
#include "profiling/ingest.hpp"
#include "profiling/oal.hpp"
#include "profiling/sampling.hpp"
#include "profiling/tcm.hpp"

namespace djvm {

/// Per-MsgCategory byte counts (indexed by static_cast<size_t>(MsgCategory)).
using CategoryBytes =
    std::array<std::uint64_t, static_cast<std::size_t>(MsgCategory::kCount)>;

/// Outcome of one daemon epoch (a TCM rebuild over newly collected records).
struct EpochResult {
  SquareMatrix tcm;
  /// 0-based index of this epoch in the daemon's run.
  std::size_t epoch = 0;
  std::size_t intervals = 0;
  std::size_t entries = 0;
  /// Real time of this window's TCM construction: the ingest() drains plus
  /// the wall time of the tick's fold — the reorganize, then the window side
  /// (class-stats pass, accrual, cell attribution, densify) and the whole-run
  /// side (merge/retention).  On a forked tick (see
  /// CorrelationDaemon::kForkMinReaders) the two sides overlap, so this is
  /// less than the CPU they spent together.
  double build_seconds = 0.0;
  /// The densify share of the window side alone: expanding the window's
  /// sparse pair weights into the dense N x N map (timed on whichever thread
  /// ran the window side).
  double densify_seconds = 0.0;
  /// Relative ABS distance vs the previous epoch's TCM (nullopt on the
  /// first epoch).
  std::optional<double> rel_distance;
  bool rate_changed = false;       ///< the governor moved at least one gap
  std::size_t resampled_objects = 0;
  GovernorAction action = GovernorAction::kNone;
  /// Per-class cell attribution of this epoch's window against the balancer
  /// placement handed to set_influence_placement (empty when no placement
  /// was set or the window held no cells): which classes produced the cut
  /// vs the node-local pair mass, per-(class, thread) mass for suggestion
  /// attribution, and HT-weighted remote-home mass.  The facade folds this
  /// plus the planner's suggestions into a BalancerFeedback for the
  /// governor's influence-weighted back-off scoring.
  TcmClassAttribution cells;
  /// Rolling overhead fraction after folding in this epoch's sample (the
  /// meter keeps recording even while the governor is disarmed).
  double overhead_fraction = 0.0;
  /// Worst per-node rolling fraction and its node, when per-node samples
  /// were recorded (tracked under every policy, so a cluster-governed run
  /// still exposes the hot node it is ignoring).
  std::optional<NodeId> offender;
  double offender_fraction = 0.0;
  /// Rolling per-node overhead fractions after this epoch, indexed by node
  /// (empty when no per-node samples were ever recorded).
  std::vector<double> node_fractions;
  /// Cluster-wide per-category traffic deltas over this epoch.  The daemon
  /// never sees the network; the pump (Djvm::run_governed_epoch) fills these
  /// from its Network counters for the timeline.
  CategoryBytes traffic_bytes{};
  /// Same per source node (empty when the pump does not track nodes).
  std::vector<CategoryBytes> node_traffic_bytes;
  /// Retention telemetry (zero when retention is off): whole-run accumulator
  /// population after this epoch's merge/compact, and cumulative evictions.
  std::size_t retained_objects = 0;
  std::size_t retained_readers = 0;
  std::size_t dropped_objects = 0;
  /// Ingest-ring telemetry over this epoch (all zero before the first
  /// ingest()): arenas published and entries carried by the
  /// lanes, and publishes that found their outbound ring full (the arena is
  /// then parked producer-side and re-offered — a counted stall).
  /// ring_dropped exists to prove the invariant the bench gate checks: the
  /// ingest path has no drop branch, so it is structurally zero, and a
  /// nonzero value in a timeline is a bug, not a tuning problem.
  std::uint64_t ring_published = 0;
  std::uint64_t ring_entries = 0;
  std::uint64_t ring_backpressure = 0;
  std::uint64_t ring_dropped = 0;
  /// One migration the facade's execution stage ran (or would have run, for
  /// deferred/dry-run entries) this epoch.  Filled by the pump after the
  /// daemon epoch returns — the daemon itself never moves threads.
  struct MigrationEvent {
    ThreadId thread = kInvalidThread;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    double gain_bytes = 0.0;  ///< planner locality gain
    double score = 0.0;       ///< planner gain/cost score
    SimTime sim_cost = 0;     ///< simulated cost billed to the migrant
    std::uint64_t prefetched_bytes = 0;
    std::size_t homes_migrated = 0;  ///< follow-the-thread home moves
    bool executed = false;  ///< false: deferred (cap/veto) or dry-run
  };
  std::vector<MigrationEvent> migrations;
  /// Real CPU the execution stage spent this epoch (resolution + prefetch +
  /// home migration bookkeeping); billed into the *next* epoch's overhead
  /// sample alongside the planner carry.
  double migration_seconds = 0.0;
  /// Fault-plan transport telemetry over this epoch (all zero on a fault-free
  /// run): per-category messages the injector dropped, per-category retries
  /// the reliable transport spent, and the total backoff wait it billed into
  /// sender clocks.  Filled by the pump from its Network counters.
  CategoryBytes dropped_msgs{};
  CategoryBytes retries{};
  std::uint64_t backoff_ns = 0;
  /// The fully assembled overhead sample this epoch's decision ran on (the
  /// caller's measured costs plus the daemon's fills: build time, wire
  /// bytes, resampling carry).  A cluster coordinator re-records it into a
  /// shared multi-tenant meter — the sample carries its tenant id, so the
  /// shared meter's per-(tenant, node) windows stay namespaced.
  OverheadSample sample;
  /// Degraded-mode marker: true when at least one node's profiling partials
  /// were lost this epoch (node dead, partitioned, or its reduction-tree
  /// exchange exhausted its retries), with the nodes named in `lost_nodes`.
  /// The map in `tcm` is then *incomplete*, not wrong — accuracy benches
  /// compare surviving-node objects only and treat the rest as missing data.
  /// Filled by the pump (the daemon itself never sees the network).
  bool degraded = false;
  std::vector<NodeId> lost_nodes;
};

/// Long-haul retention policy for the daemon's whole-run accumulator (see
/// TcmAccumulator::compact).  Off by default: the accumulator then grows
/// with every object the workload ever touches, the pre-retention behavior.
struct RetentionPolicy {
  /// Evict/decay objects untouched for this many epochs; 0 = retention off.
  std::uint32_t idle_epochs = 0;
  /// Stale-object byte decay per pass in [0, 1); 0 drops stale objects
  /// outright.  Decayed objects whose mass falls below one byte are dropped.
  double decay = 0.0;
  /// Run the compact pass every this many epochs (staleness accrues every
  /// epoch regardless; the period only amortizes the pass itself).
  std::uint32_t compact_period = 4;

  [[nodiscard]] bool active() const noexcept { return idle_epochs != 0; }
};

class CorrelationDaemon {
 public:
  /// Reader entries in an epoch's CSR from which run_epoch forks its window
  /// side onto a helper thread; smaller epochs run both sides inline.
  /// Measured with perfbench on a 4-vCPU Xeon: a governed 16-thread serving
  /// epoch (typically about 5k readers, whole-run side about 0.09 ms) has
  /// little to overlap, and even a helper parked on a condition variable
  /// and woken every epoch cost it about 15% of its median tick, so it
  /// stays inline; a 128-thread full-sampling epoch (about 51k readers,
  /// 1.5-2.5 ms per side) forks and loses about a quarter of its tick.
  static constexpr std::size_t kForkMinReaders = 8192;

  CorrelationDaemon(SamplingPlan& plan, std::uint32_t threads);

  /// The only delivery path: drains every published arena out of `hub`
  /// (round-robin across lanes), drops slices the node filter rejects,
  /// untags class ids beyond the registry, and queues the arena for the
  /// next tick.  Nothing is folded here: run_epoch (or build_full) folds the
  /// whole window at once.
  /// With `quiesced` (the default — the simulator's producers run on this
  /// same thread) it also collects parked and still-open arenas via
  /// take_stranded(), so an epoch boundary observes every appended entry.
  /// Pass false only when producer threads are still appending concurrently.
  /// Drained arenas are recycled back to their lanes at the next run_epoch
  /// (their slices back the epoch's statistics until then).  Returns the
  /// number of arenas consumed.  Raw IntervalRecords never reach the daemon:
  /// the old submit() compatibility wrapper (and the record history it kept
  /// alive) is gone, and build_full reads the whole-run accumulator
  /// (weighted only).
  std::size_t ingest(IngestHub& hub, bool quiesced = true);

  /// Installs a liveness predicate consulted at ingest() time: arena slices
  /// whose logging node fails it are dropped before they are queued, so a
  /// killed node's un-shipped intervals die with it exactly as they did when
  /// the pump erased its raw records.  An empty function (the default) keeps
  /// everything and costs nothing.
  void set_node_filter(std::function<bool(NodeId)> alive) {
    node_filter_ = std::move(alive);
  }

  /// Ingested arena slices waiting for the next epoch.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_slices_; }

  /// Folds the pending arenas into this epoch's TCM (one CSR reorganize,
  /// sparse accrual, densify), compares with the previous epoch's map,
  /// refreshes the plan's per-class epoch stats, and delegates the rate
  /// decision to the governor.  `sample` carries the epoch's measured costs
  /// (the Djvm pump hook assembles it from GOS/network deltas); fields left
  /// zero are filled in from the slices themselves (entries, wire bytes) and
  /// the build timers.  Consumes the pending arenas, merging the same CSR
  /// into the whole-run accumulator behind build_full().  When the CSR holds
  /// at least kForkMinReaders reader entries, the window side (class stats,
  /// accrual, attribution, densify) runs on one helper thread alongside the
  /// whole-run merge and is joined before the governor runs; the results do
  /// not depend on whether the tick forked.
  EpochResult run_epoch(OverheadSample sample = {});

  /// Hands the daemon the balancer's current thread-to-node placement; the
  /// next run_epoch splits the window's pair mass by owning class into cut
  /// vs local shares against it (EpochResult::cells), answered sparsely off
  /// the epoch's CSR.  An empty vector turns attribution off.
  void set_influence_placement(std::vector<NodeId> node_of_thread) {
    influence_placement_ = std::move(node_of_thread);
  }
  [[nodiscard]] const std::vector<NodeId>& influence_placement() const noexcept {
    return influence_placement_;
  }

  /// The governor owning all rate decisions for this daemon.
  [[nodiscard]] Governor& governor() noexcept { return governor_; }
  [[nodiscard]] const Governor& governor() const noexcept { return governor_; }

  /// Installs the long-haul retention policy.  Without it the whole-run
  /// accumulator grows with every object the workload ever touches; with
  /// retention active each epoch's merge is followed by periodic compaction
  /// that evicts stale objects.  Set it before the first epoch; switching
  /// mid-run only bounds growth from that point on.
  void set_retention(RetentionPolicy policy) noexcept { retention_ = policy; }
  [[nodiscard]] const RetentionPolicy& retention() const noexcept {
    return retention_;
  }

  /// Rate control lives entirely on the governor: arm the paper's one-way
  /// convergence loop with governor().arm(GovernorConfig::legacy(t)), the
  /// closed-loop controller with a full GovernorConfig, and stop with
  /// governor().disarm().
  [[nodiscard]] bool converged() const noexcept { return governor_.converged(); }

  /// Seeds the previous-epoch map (snapshot warm start): the next epoch's
  /// distance is computed against `tcm` instead of starting cold.  Returns
  /// false (daemon stays cold) when the map's dimension does not match this
  /// daemon's thread count — e.g. a snapshot from a differently-sized run.
  bool seed_latest(SquareMatrix tcm) {
    if (tcm.size() != threads_) return false;
    latest_ = std::move(tcm);
    have_latest_ = true;
    return true;
  }

  /// Latest epoch's TCM (empty matrix before the first epoch).
  [[nodiscard]] const SquareMatrix& latest() const noexcept { return latest_; }

  /// Builds one HT-weighted TCM over *all* entries ever ingested (used by
  /// benches that want a whole-run map); also accumulates build-time
  /// statistics.  The whole-run accumulator is fed by every run_epoch, so
  /// this only folds the unconsumed window in (one CSR, one merge) and
  /// densifies — repeated calls pay nothing for already-consumed epochs.
  /// Raw records never existed for ingested entries, so an unweighted
  /// variant is not available (benches that need per-record views tap the
  /// Gos record stream instead — see Gos::set_record_tap).
  SquareMatrix build_full();

  /// Total real seconds spent in TCM construction (Table III's rightmost
  /// column; the paper runs this on a dedicated machine so it does not add
  /// to execution time).
  [[nodiscard]] double total_build_seconds() const noexcept { return build_seconds_; }
  [[nodiscard]] std::size_t total_entries() const noexcept { return total_entries_; }
  /// Interval slices consumed over the run (the records themselves never
  /// reach the daemon, but the count survives).
  [[nodiscard]] std::size_t total_intervals() const noexcept {
    return intervals_seen_;
  }
  [[nodiscard]] std::size_t epochs_run() const noexcept { return epochs_; }

  void clear();

 private:
  /// Sanitizes one arena's entries: class ids beyond the registry untag.
  void sanitize_arena(OalArena& arena) const;
  /// Compacts one arena in place, dropping slices whose node fails the
  /// installed liveness predicate (no-op without one).
  void filter_arena(OalArena& arena) const;
  /// One CSR over every pending arena slice (the epoch's single reorganize).
  ReaderArena reorganize_pending();
  /// The tick's window side: the plan's per-class epoch stats and the
  /// home-mass pass over the pending entries, then accrual, cell attribution
  /// and densify over `csr`.  Writes only the plan's epoch stats and
  /// out.tcm, out.cells and out.densify_seconds.
  void fold_window(const ReaderArena& csr, EpochResult& out);
  /// The tick's whole-run side: the merge into full_ and, under retention,
  /// the epoch advance and compaction.  Writes only full_, dropped_objects_
  /// and out's retention fields.
  void fold_whole_run(const ReaderArena& csr, EpochResult& out);
  /// Recycles consumed pending arenas back to their lanes.
  void release_pending_arenas();

  SamplingPlan& plan_;
  std::uint32_t threads_;
  Governor governor_;
  /// Ingest state: the hub ingest() last drained (arenas are recycled to
  /// it), the drained-but-unconsumed arenas backing the next epoch's stats,
  /// and the ring-counter snapshot per-epoch telemetry deltas against.
  IngestHub* hub_ = nullptr;
  std::vector<OalArena*> pending_arenas_;
  std::size_t pending_slices_ = 0;
  IngestCounters ring_snapshot_;
  /// Liveness predicate applied to arena slices at ingest() (empty = keep all).
  std::function<bool(NodeId)> node_filter_;
  /// Reorganize scratch and slice list reused by every tick's CSR build.
  ArenaScratch scratch_;
  std::vector<ArenaSliceRef> slices_;
  /// Drain time already paid for the current window (ingest-side share of
  /// the next epoch's build_seconds).
  double drain_seconds_ = 0.0;
  /// Whole-run accumulator behind build_full(), fed by every run_epoch's
  /// CSR merge and, under retention, bounded by compact().
  TcmAccumulator full_;
  RetentionPolicy retention_;
  std::size_t intervals_seen_ = 0;   ///< records consumed (backs total_intervals)
  std::size_t dropped_objects_ = 0;  ///< cumulative retention evictions
  SquareMatrix latest_;
  bool have_latest_ = false;
  /// Balancer placement the per-class cell attribution is computed against
  /// (empty = attribution off).
  std::vector<NodeId> influence_placement_;

  double build_seconds_ = 0.0;
  std::size_t total_entries_ = 0;
  std::size_t epochs_ = 0;
  /// Resampling triggered by last epoch's decision; its cost is metered in
  /// the following epoch's sample (the pass runs after the decision).
  std::uint64_t carryover_resampled_ = 0;
  /// Same, attributed to the node that paid each copy visit — the node that
  /// walked its own cached copies (feeds the per-node slices of the next
  /// epoch's sample).
  std::vector<std::uint64_t> carryover_resampled_by_node_;
};

}  // namespace djvm
