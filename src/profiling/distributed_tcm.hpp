// Distributed / parallel TCM reduction (the paper's future work: "it is
// desirable to have distributed algorithms for deducing correlation maps in
// a more scalable way", Section VI).
//
// Instead of shipping every OAL to one coordinator that does the whole
// O(MN^2) accrual, each node reduces its *local* arena slices into a
// per-node partial; the partials are then merged pairwise up a reduction
// tree (like an MPI_Reduce over a custom monoid) and the pair accrual runs
// once over the merged partial — optionally sharded across worker threads,
// since distinct objects contribute independent updates.
//
// A partial is a flat CSR `ReaderArena` carried end to end: local reduce
// bucket-sorts each node's slices straight into its partial, and every level
// of the reduction tree merges CSR-to-CSR through the same bucket-sort
// machinery (`TcmBuilder::merge_arenas`) — no level re-hashes, no per-object
// vectors anywhere.  The result equals `TcmBuilder::build_reference` over
// the same entries (tests assert this); what changes is where the work
// happens and how it scales.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "net/network.hpp"
#include "profiling/tcm.hpp"

namespace djvm {

/// Per-node partial reduction state in flat CSR form (see ReaderArena), built
/// from that node's arena slices only.  Byte values inside the arena are
/// already Horvitz-Thompson weighted when requested.
struct NodePartial {
  NodeId node = kInvalidNode;
  ReaderArena arena;

  /// Wire size when shipped up the reduction tree: a 16-byte header, 8
  /// bytes per object id, 12 bytes per (thread, bytes) reader entry.
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept;
};

/// Distributed TCM reduction.
class DistributedTcmReducer {
 public:
  /// Phase 1, over drained ingest log arenas: interval slices bucket per
  /// node (one arena may mix slices from many threads and nodes), then each
  /// bucket reorganizes in place — no IntervalRecord is materialized
  /// anywhere between the producer's append and the per-node partial.
  /// Partials come back sorted by node id.
  [[nodiscard]] static std::vector<NodePartial> local_reduce(
      std::span<const OalArena* const> logs, bool weighted,
      ArenaScratch& scratch);

  /// Phase 2: binary reduction tree over the partials; each merge step
  /// unions the child into its parent with TcmBuilder::merge_arenas (reader
  /// lists union per object, byte values combined by max).  When `net` is
  /// given, each step ships the child partial over the *reliable* transport
  /// (retry/backoff per the network's fault plan) and accounts its traffic,
  /// so the distributed scheme can be compared against centralized OAL
  /// shipping.  A child whose exchange exhausts its retries (dead node,
  /// partition, relentless drops) is excluded from the merge — the map is
  /// then incomplete, not wrong — and its node id is appended to
  /// `lost_nodes` when given.  Returns the fully merged partial.
  [[nodiscard]] static NodePartial tree_reduce(
      std::vector<NodePartial> partials, Network* net, ArenaScratch& scratch,
      std::vector<NodeId>* lost_nodes = nullptr);

  /// Phase 3: pair accrual over the merged arena, sharded over `threads_hw`
  /// worker threads (1 = sequential; small arenas stay sequential too).  The
  /// CSR offsets give natural object shards — workers accrue disjoint object
  /// ranges into private upper-triangular accumulators that sum at the end,
  /// so no dense N x N matrix per worker and one densify for the final map.
  [[nodiscard]] static SquareMatrix accrue_parallel(const ReaderArena& arena,
                                                    std::uint32_t threads,
                                                    unsigned threads_hw);

  /// Full pipeline over drained ingest log arenas:
  /// local_reduce -> tree_reduce -> (parallel) accrual.  `lost_nodes`
  /// collects nodes whose partials the reduction tree could not deliver (see
  /// tree_reduce); the returned map omits their contribution.
  [[nodiscard]] static SquareMatrix build(std::span<const OalArena* const> logs,
                                          std::uint32_t threads, bool weighted,
                                          unsigned threads_hw = 1,
                                          Network* net = nullptr,
                                          std::vector<NodeId>* lost_nodes = nullptr);
};

}  // namespace djvm
