// Thread correlation map (TCM) construction (paper Section II.A).
//
// The coordinator reorganizes per-thread OALs into per-object reader lists
// and then accrues, for every pair of threads that touched an object in the
// profiled window, the object's byte contribution.  With sampling, each
// logged entry carries its class gap at logging time; multiplying by the gap
// (Horvitz-Thompson weighting) makes the sampled TCM an unbiased estimate of
// the full-sampling map, so the paper's error metrics compare like with like.
//
// There is one construction path, over ingest arena slices:
//
//  * `reorganize_arena` bucket-sorts the slices' entries into one contiguous
//    CSR arena (no per-object vectors, no hashing while object ids stay
//    compact).  One epoch's arena answers everything the epoch tick asks:
//    `accrue_sparse` gives the window's pair weights in a flat
//    upper-triangular accumulator (densified once), `attribute_cells` splits
//    the same pairs by owning class, and `TcmAccumulator::add` folds the
//    arena into persistent whole-run state (each object's readers in one
//    contiguous block of two split thread/bytes arrays).  That fold costs
//    O(sum over objects of readers^2) for *new* information only — a
//    re-logged entry that does not raise a reader's byte value costs no pair
//    updates, and on an object receiving several readers just one
//    thread-indexed table lookup.  `merge_arenas` unions two arenas (the
//    distributed reducer's tree step, profiling/distributed_tcm.hpp).
//
// `TcmBuilder::build_reference` is the oracle: the seed's textbook
// O(MN^2)-style pipeline over interval records (a hash map from object id to
// a per-object reader vector, then a dense accrual).  Tests assert the CSR
// path agrees with it within 1e-9 (bit-exact in practice, since byte weights
// are integer-valued doubles), and `bench_tcm_scale` prices it as the
// "dense from scratch" side.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "profiling/oal.hpp"

namespace djvm {

struct OalArena;  // profiling/ingest.hpp

/// Reference to one interval slice inside an ingest log arena — the unit the
/// distributed reducer buckets per node (a drained arena mixes slices from
/// many threads, and with thread migration potentially many nodes).
struct ArenaSliceRef {
  const OalArena* log = nullptr;
  std::uint32_t slice = 0;  ///< index into OalArena::intervals
};

/// One batch of OAL entries reorganized into a flat CSR arena: object k's
/// deduplicated readers live in `readers[offsets[k] .. offsets[k+1])`.  One
/// contiguous buffer instead of a `vector<pair>` per object, built by bucket
/// sort (direct-indexed while object ids stay compact, spilling to a hash
/// map otherwise) with stamp-based per-thread dedup inside each segment.
struct ReaderArena {
  std::vector<ObjectId> objects;                     ///< unique objects, first-appearance order
  std::vector<ClassId> klass;                        ///< first valid class seen (parallel to objects)
  std::vector<std::uint32_t> offsets;                ///< size objects.size() + 1
  std::vector<std::pair<ThreadId, double>> readers;  ///< CSR payload, max-combined per thread

  [[nodiscard]] std::size_t object_count() const noexcept { return objects.size(); }
  [[nodiscard]] std::span<const std::pair<ThreadId, double>> readers_of(
      std::size_t k) const noexcept {
    return {readers.data() + offsets[k], offsets[k + 1] - offsets[k]};
  }
};

/// Object id -> dense slot assignment shared by the arena reorganize and the
/// accumulator: direct-indexed while ids stay compact (heap ids are
/// allocated densely, the common case for every producer in the tree), with
/// a hash-map spill past the cap so one stray sparse id cannot size an
/// allocation.
class ObjectSlotMap {
 public:
  /// Slot of `obj`, assigning the next dense slot on first sight (`fresh`
  /// reports which).
  std::int32_t get_or_assign(ObjectId obj, bool& fresh);
  [[nodiscard]] std::int32_t count() const noexcept { return count_; }
  /// Forgets the listed objects' slots in O(listed) (callers track their
  /// touched set; the direct table keeps its allocation).
  void release(std::span<const ObjectId> touched);

 private:
  std::vector<std::int32_t> table_;  ///< ObjectId -> slot (-1 = unassigned)
  std::unordered_map<ObjectId, std::int32_t> spill_;  ///< ids past the cap
  std::int32_t count_ = 0;
};

/// Reusable scratch for `reorganize_arena`: the slot map, bucket counters,
/// entry slots, scatter cursors, and per-thread dedup stamps are released —
/// not freed — between calls, so steady-state folding (one CSR per epoch
/// tick) stops re-allocating and re-zeroing the O(max object id) direct
/// table on every call.
struct ArenaScratch {
  ObjectSlotMap slots;
  std::vector<std::uint32_t> counts;    ///< per-slot bucket sizes
  std::vector<std::uint32_t> entry_slot;  ///< per-entry object slot (pass 1)
  std::vector<std::uint32_t> cursor;    ///< scatter cursors
  std::vector<std::uint64_t> stamp;     ///< per-thread dedup stamps
  std::vector<std::uint32_t> pos;       ///< per-thread write-back positions
  std::uint64_t epoch = 0;  ///< stamp epoch, persists across calls (never reset)
};

/// Per-class decomposition of a CSR arena's pair mass against a thread
/// placement — the sparse answer to "which classes produced these cells".
/// Every pair cell came from one object, and every object belongs to one
/// class, so the walk over the per-object reader segments splits each cell's
/// mass by the owning class without densifying a per-class matrix
/// (classes x N^2 would defeat the sparse pipeline).  All vectors are
/// ClassId-indexed and may be shorter than the registry when trailing classes
/// contributed nothing.
struct TcmClassAttribution {
  /// Pair mass crossing node boundaries under the given placement — the
  /// class's contribution to the co-location partition cut.
  std::vector<double> cut_bytes;
  /// Pair mass kept node-local (the class's already-satisfied share).
  std::vector<double> local_bytes;
  /// Per-(class, thread) pair mass, for attributing thread-level balancer
  /// decisions (migration suggestions) back to the classes that drove them.
  std::vector<std::vector<double>> thread_mass;
  /// HT-weighted bytes of entries whose object is homed away from the node
  /// that logged them (thread-home-affinity mass).  Filled by callers that
  /// know homes (the daemon); the CSR itself never sees the heap.
  std::vector<double> home_mass;

  [[nodiscard]] bool empty() const noexcept {
    // home_mass counts: an epoch of purely single-reader remote-home traffic
    // (no co-access pairs at all) still carries influence evidence.
    return cut_bytes.empty() && local_bytes.empty() && home_mass.empty();
  }
  /// Total pair mass seen (cut + local over every class).
  [[nodiscard]] double total_pair_bytes() const noexcept {
    double t = 0.0;
    for (double v : cut_bytes) t += v;
    for (double v : local_bytes) t += v;
    return t;
  }
  /// Pair mass of one class (0 for classes past the vectors).
  [[nodiscard]] double class_pair_bytes(ClassId id) const noexcept {
    const auto i = static_cast<std::size_t>(id);
    return (i < cut_bytes.size() ? cut_bytes[i] : 0.0) +
           (i < local_bytes.size() ? local_bytes[i] : 0.0);
  }
};

/// Builds TCMs out of ingest arena slices (and, as the oracle, out of
/// interval records).
class TcmBuilder {
 public:
  /// Reorganizes ingest arena slices into the flat CSR arena (bucket sort,
  /// no per-object allocations).  Each slice provides the logging thread for
  /// its entry range; byte values are Horvitz-Thompson scaled when
  /// `weighted`.
  [[nodiscard]] static ReaderArena reorganize_arena(
      std::span<const ArenaSliceRef> slices, bool weighted,
      ArenaScratch& scratch);

  /// Merges two CSR arenas into one (reader lists union per object,
  /// max-combining per thread) through the same bucket-sort machinery — the
  /// reduction-tree step of the distributed reducer, with no per-object
  /// hashing (the slot map is direct-indexed like every other pass).  Byte
  /// values are already weighted; they pass through untouched.
  [[nodiscard]] static ReaderArena merge_arenas(const ReaderArena& a,
                                                const ReaderArena& b,
                                                ArenaScratch& scratch);

  /// Accrues an arena's objects [first, last) into an upper-triangular
  /// accumulator: cell (i, j) gains min(bytes_i, bytes_j) per object shared
  /// by threads i and j.  Readers at or beyond `threads` are skipped.  The
  /// default range is the whole arena; disjoint ranges give independent
  /// partials whose cell-wise sum is the whole arena's accumulator (the
  /// sharded accrual of DistributedTcmReducer::accrue_parallel).
  [[nodiscard]] static UpperTriangle accrue_sparse(
      const ReaderArena& arena, std::uint32_t threads, std::size_t first = 0,
      std::size_t last = static_cast<std::size_t>(-1));

  /// Splits the arena's pair mass by owning class against `node_of_thread`
  /// (the balancer's current co-location partition): for every object, each
  /// reader-pair cell min(bytes_i, bytes_j) lands in the object's class as
  /// cut mass (readers on different nodes) or local mass.  Objects without a
  /// class (kInvalidClass) and readers at or beyond `threads` are skipped,
  /// exactly as accrue_sparse skips them; threads beyond `node_of_thread`
  /// count as local (no placement claim).  Class ids size the returned
  /// vectors, so callers must bound them against their class registry.
  /// home_mass is left empty for the caller to fill.
  [[nodiscard]] static TcmClassAttribution attribute_cells(
      const ReaderArena& arena, std::uint32_t threads,
      std::span<const NodeId> node_of_thread);

  /// The seed's textbook pipeline over interval records (hash-map
  /// reorganize + dense accrual), kept as the equivalence oracle and bench
  /// baseline.
  [[nodiscard]] static SquareMatrix build_reference(
      std::span<const IntervalRecord> records, std::uint32_t threads,
      bool weighted = true);
};

/// Result of one `TcmAccumulator::compact` retention pass.
struct TcmCompactStats {
  std::size_t dropped_objects = 0;  ///< stale objects fully evicted
  std::size_t decayed_objects = 0;  ///< stale objects down-weighted, kept
  std::size_t freed_readers = 0;    ///< reader cells returned to the free chains
};

/// Persistent incremental sparse TCM accumulator: fold CSR arenas in as
/// deltas (`add`) and densify on demand.  The invariant maintained per
/// object o and thread pair {i, j} is pair(i, j) == min(bytes_i(o),
/// bytes_j(o)) summed over objects, so folding batches one at a time, in any
/// split, yields exactly the map a from-scratch build over the concatenated
/// batches produces.
///
/// Long-haul retention: a whole-run accumulator grows with every object the
/// workload ever touches, which is unbounded on a server that runs for
/// weeks.  The retention pass (`advance_epoch` + `compact`) bounds it: an
/// object untouched for `idle_epochs` retention epochs either decays (every
/// reader byte value scaled by `decay`, the pair mass it contributed scaled
/// to match — the invariant above is preserved exactly, just over decayed
/// byte values) or, when `decay` is 0 or the decayed mass has shrunk below
/// one byte, is dropped outright (its exact pair contribution subtracted,
/// its reader block returned to a free chain, its slot compacted away).
/// Because every drop/decay is recomputed from the object's own reader list,
/// live objects are never perturbed: the map restricted to touched objects
/// stays bit-for-bit the map a from-scratch build over their records yields.
class TcmAccumulator {
 public:
  explicit TcmAccumulator(std::uint32_t threads);

  /// Folds an already-reorganized CSR arena in (the daemon's once-per-epoch
  /// whole-run merge; byte values are already weighted).
  void add(const ReaderArena& arena);

  /// Folds one object's (thread, already-weighted bytes) reader list in.
  /// Readers at or beyond threads() are ignored.  The pair updates run in
  /// the order one add_one per reader would run them, so the pair array is
  /// bit-identical however an object's readers are batched.
  void add_readers(ObjectId obj,
                   std::span<const std::pair<ThreadId, double>> readers);

  /// Drops all accumulated state (keeps allocations for reuse).
  void reset();

  /// Advances the retention clock: objects folded in after this call are
  /// stamped with the new epoch.  Call once per profiling epoch when
  /// retention is on; never calling it keeps every object forever (the
  /// pre-retention behavior).
  void advance_epoch() noexcept { ++epoch_; }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

  /// One retention pass: objects untouched for at least `idle_epochs`
  /// retention epochs are decayed (readers scaled by `decay` in (0, 1),
  /// pair mass adjusted to keep the accumulator invariant) or dropped
  /// (`decay` == 0, or the decayed mass fell below one byte).  Idempotent
  /// within one epoch: a second pass finds nothing new to decay and nothing
  /// left to drop.  O(stale reader-block mass + tracked objects).
  TcmCompactStats compact(std::uint32_t idle_epochs, double decay);

  /// Payload bytes currently held: vector capacities (slot columns, both
  /// reader arrays including free and spare block cells, the free-chain
  /// heads) plus pair cells.  The ObjectSlotMap's direct index table is
  /// excluded: it is O(max object id ever seen) by design and
  /// shared-capacity across resets, so it would drown the signal this
  /// accessor exists to expose — whether retention keeps the per-object
  /// state bounded.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Densifies the pair accumulator into the symmetric N x N map.
  [[nodiscard]] SquareMatrix dense() const { return pairs_.densify(); }

  [[nodiscard]] std::uint32_t threads() const noexcept { return threads_; }
  /// Objects with at least one folded reader.
  [[nodiscard]] std::size_t objects_tracked() const noexcept {
    return touched_.size();
  }
  /// Total (object, thread) reader entries currently held (free and unused
  /// block cells excluded).
  [[nodiscard]] std::size_t reader_entries() const noexcept {
    return live_readers_;
  }
  [[nodiscard]] const UpperTriangle& pairs() const noexcept { return pairs_; }

 private:
  /// One object's readers: cells [offset, offset + count) of the reader
  /// arrays, with room for `cap` (count 0 = evicted, awaiting compact).
  struct Block {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
    std::uint32_t cap = 0;
  };

  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  /// decay_epoch_ sentinel: slot never decayed.
  static constexpr std::uint32_t kNeverDecayed = 0xFFFFFFFFu;

  std::size_t assign_slot(ObjectId obj);

  void add_one(ObjectId obj, ThreadId thread, double bytes);
  /// Raises reader `pos` of the object at `slot` to `bytes` when higher,
  /// moving every pair it is in to match.
  void raise_reader(std::size_t slot, std::uint32_t pos, double bytes);
  /// First sighting of `thread` on the object at `slot`: pairs it with every
  /// held reader, then appends it to the block (position returned).  The
  /// block must have room (reserve_readers).
  std::uint32_t insert_reader(std::size_t slot, ThreadId thread, double bytes);

  /// Makes room for `want` readers at `slot`: a block with fewer cells
  /// moves to one of min(max(want, 2 * cap), threads()) cells — exactly
  /// `want` for an object's first block.  The held readers are copied in
  /// order, so positions stay valid; the old block goes to its free chain.
  void reserve_readers(std::size_t slot, std::uint32_t want);
  /// Offset of a free block of exactly `cap` cells: popped from that
  /// capacity's free chain, else appended to the reader arrays.
  std::uint32_t take_block(std::uint32_t cap);
  /// Pushes `block` onto the free chain for its capacity.
  void free_block(const Block& block);

  std::uint32_t threads_;
  ObjectSlotMap slots_;
  std::vector<ObjectId> touched_;         ///< slot -> object id
  std::vector<Block> blocks_;             ///< slot -> reader block
  std::vector<std::uint32_t> last_touch_; ///< slot -> retention epoch last folded
  std::vector<std::uint32_t> decay_epoch_;///< slot -> epoch last decayed
  /// Every object's readers, split by field: block b's thread ids and byte
  /// values sit at the same cells of the two arrays.
  std::vector<ThreadId> reader_thread_;
  std::vector<double> reader_bytes_;
  /// Capacity -> offset of the first free block of that capacity (kNone =
  /// none).  A free block's first thread cell holds the next offset.
  std::vector<std::uint32_t> free_blocks_;
  /// Thread -> position of that thread's reader in the block add_readers is
  /// folding (kNone = not held yet), valid where where_stamp_ holds the
  /// current stamp (no clearing between objects).  Positions survive a
  /// block move.
  std::vector<std::uint32_t> where_;
  std::vector<std::uint64_t> where_stamp_;
  std::uint64_t stamp_ = 0;
  UpperTriangle pairs_;
  std::size_t live_readers_ = 0;
  std::uint32_t epoch_ = 0;               ///< retention clock
};

}  // namespace djvm
