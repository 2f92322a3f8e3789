#include "profiling/distributed_tcm.hpp"

#include <algorithm>
#include <thread>

#include "profiling/ingest.hpp"

namespace djvm {

std::uint64_t NodePartial::wire_bytes() const noexcept {
  // CSR offsets are implicit in the wire framing (length-prefixed reader
  // runs), so they cost nothing.
  return 16 + arena.objects.size() * 8 + arena.readers.size() * 12;
}

std::vector<NodePartial> DistributedTcmReducer::local_reduce(
    std::span<const OalArena* const> logs, bool weighted,
    ArenaScratch& scratch) {
  // Bucket interval *slices* per node: one drained arena can mix slices from
  // many threads, and (with thread migration) many nodes.  Cluster node
  // counts are tens, not thousands, so a linear scan finds the bucket.
  std::vector<std::pair<NodeId, std::vector<ArenaSliceRef>>> buckets;
  for (const OalArena* log : logs) {
    for (std::uint32_t s = 0; s < log->intervals.size(); ++s) {
      const NodeId node = log->intervals[s].node;
      auto it = std::find_if(buckets.begin(), buckets.end(),
                             [&](const auto& b) { return b.first == node; });
      if (it == buckets.end()) {
        it = buckets.emplace(buckets.end(), node, std::vector<ArenaSliceRef>{});
      }
      it->second.push_back(ArenaSliceRef{log, s});
    }
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<NodePartial> out;
  out.reserve(buckets.size());
  for (auto& [node, slices] : buckets) {
    out.push_back(NodePartial{
        node, TcmBuilder::reorganize_arena(slices, weighted, scratch)});
  }
  return out;
}

NodePartial DistributedTcmReducer::tree_reduce(std::vector<NodePartial> partials,
                                               Network* net,
                                               ArenaScratch& scratch,
                                               std::vector<NodeId>* lost_nodes) {
  if (partials.empty()) return NodePartial{};
  // Binary tree: in each round, partial i+stride merges into partial i,
  // arena-to-arena through the bucket sort, so no level re-hashes.
  for (std::size_t stride = 1; stride < partials.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < partials.size(); i += 2 * stride) {
      NodePartial& child = partials[i + stride];
      if (net != nullptr) {
        const SendOutcome o = net->send_reliable(
            {child.node, partials[i].node, MsgCategory::kOal,
             child.wire_bytes(), false});
        if (!o.delivered) {
          // The child's subtree never arrives: the merged map loses that
          // contribution (missing data, not wrong data).
          if (lost_nodes != nullptr) lost_nodes->push_back(child.node);
          child.arena = ReaderArena{};  // undeliverable; free its buffers
          continue;
        }
      }
      partials[i].arena =
          TcmBuilder::merge_arenas(partials[i].arena, child.arena, scratch);
      child.arena = ReaderArena{};  // free the consumed child's buffers
    }
  }
  return std::move(partials.front());
}

SquareMatrix DistributedTcmReducer::accrue_parallel(const ReaderArena& arena,
                                                    std::uint32_t threads,
                                                    unsigned threads_hw) {
  const std::size_t count = arena.object_count();
  if (threads_hw <= 1 || count < 1024) {
    return TcmBuilder::accrue_sparse(arena, threads).densify();
  }
  // Worker w accrues its object range into a private upper-triangular
  // accumulator, and the partials sum cell-wise at the end — disjoint object
  // ranges contribute independent pair updates, so no synchronization inside
  // the loop.
  const unsigned workers = std::min<unsigned>(
      threads_hw, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<UpperTriangle> partials(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  const std::size_t chunk = (count + workers - 1) / workers;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      partials[w] =
          TcmBuilder::accrue_sparse(arena, threads, w * chunk, (w + 1) * chunk);
    });
  }
  for (std::thread& t : pool) t.join();
  UpperTriangle& merged = partials.front();
  for (unsigned w = 1; w < workers; ++w) {
    merged += partials[w];
  }
  return merged.densify();
}

SquareMatrix DistributedTcmReducer::build(std::span<const OalArena* const> logs,
                                          std::uint32_t threads, bool weighted,
                                          unsigned threads_hw, Network* net,
                                          std::vector<NodeId>* lost_nodes) {
  ArenaScratch scratch;
  NodePartial merged = tree_reduce(local_reduce(logs, weighted, scratch), net,
                                   scratch, lost_nodes);
  return accrue_parallel(merged.arena, threads, threads_hw);
}

}  // namespace djvm
