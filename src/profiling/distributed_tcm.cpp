#include "profiling/distributed_tcm.hpp"

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "profiling/ingest.hpp"

namespace djvm {

std::uint64_t NodePartial::wire_bytes() const noexcept {
  std::uint64_t bytes = 16;  // header
  for (const ObjectAccessSummary& s : summaries) {
    bytes += 8 + s.readers.size() * 12;  // object id + (thread, bytes) pairs
  }
  return bytes;
}

std::uint64_t NodeCsrPartial::wire_bytes() const noexcept {
  // Same pricing as NodePartial: 16-byte header, 8 bytes per object id,
  // 12 bytes per (thread, bytes) reader entry.  CSR offsets are implicit in
  // the wire framing (length-prefixed reader runs), so they cost nothing.
  return 16 + arena.objects.size() * 8 + arena.readers.size() * 12;
}

std::vector<NodePartial> DistributedTcmReducer::local_reduce(
    std::span<const IntervalRecord> records, bool weighted) {
  // One pass over the records, maintaining a per-node object index — no
  // record copies (each worker node reduces only what it produced).
  struct NodeState {
    std::size_t partial_index;
    std::unordered_map<ObjectId, std::size_t> index;
  };
  std::unordered_map<NodeId, NodeState> by_node;
  std::vector<NodePartial> out;

  for (const IntervalRecord& r : records) {
    auto [nit, fresh] = by_node.try_emplace(r.node, NodeState{out.size(), {}});
    if (fresh) {
      NodePartial p;
      p.node = r.node;
      out.push_back(std::move(p));
    }
    NodeState& ns = nit->second;
    auto& summaries = out[ns.partial_index].summaries;
    for (const OalEntry& e : r.entries) {
      const double bytes = weighted
                               ? static_cast<double>(e.bytes) * e.gap
                               : static_cast<double>(e.bytes);
      auto [oit, inserted] = ns.index.try_emplace(e.obj, summaries.size());
      if (inserted) {
        summaries.push_back(ObjectAccessSummary{e.obj, {}});
      }
      auto& readers = summaries[oit->second].readers;
      auto rit = std::find_if(readers.begin(), readers.end(),
                              [&](const auto& p) { return p.first == r.thread; });
      if (rit == readers.end()) {
        readers.emplace_back(r.thread, bytes);
      } else {
        rit->second = std::max(rit->second, bytes);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const NodePartial& a, const NodePartial& b) { return a.node < b.node; });
  return out;
}

namespace {

/// Per-node bucket accumulator over a small node set: linear scan instead of
/// a hash map (cluster node counts are tens, not thousands, and the scan is
/// one cache line).
template <typename Bucket>
Bucket& node_bucket(std::vector<std::pair<NodeId, Bucket>>& buckets,
                    NodeId node) {
  for (auto& [id, b] : buckets) {
    if (id == node) return b;
  }
  buckets.emplace_back(node, Bucket{});
  return buckets.back().second;
}

}  // namespace

std::vector<NodeCsrPartial> DistributedTcmReducer::local_reduce_csr(
    std::span<const IntervalRecord> records, bool weighted,
    ArenaScratch& scratch) {
  std::vector<std::pair<NodeId, std::vector<const IntervalRecord*>>> buckets;
  for (const IntervalRecord& r : records) {
    node_bucket(buckets, r.node).push_back(&r);
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<NodeCsrPartial> out;
  out.reserve(buckets.size());
  for (auto& [node, recs] : buckets) {
    NodeCsrPartial p;
    p.node = node;
    p.arena = TcmBuilder::reorganize_arena(
        std::span<const IntervalRecord* const>(recs), weighted, scratch);
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<NodeCsrPartial> DistributedTcmReducer::local_reduce_csr(
    std::span<const OalArena* const> logs, bool weighted,
    ArenaScratch& scratch) {
  // Bucket interval *slices* per node: one drained arena can mix slices from
  // many threads, and (with thread migration) many nodes.
  std::vector<std::pair<NodeId, std::vector<ArenaSliceRef>>> buckets;
  for (const OalArena* log : logs) {
    for (std::uint32_t s = 0; s < log->intervals.size(); ++s) {
      node_bucket(buckets, log->intervals[s].node)
          .push_back(ArenaSliceRef{log, s});
    }
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<NodeCsrPartial> out;
  out.reserve(buckets.size());
  for (auto& [node, slices] : buckets) {
    NodeCsrPartial p;
    p.node = node;
    p.arena = TcmBuilder::reorganize_arena(
        std::span<const ArenaSliceRef>(slices), weighted, scratch);
    out.push_back(std::move(p));
  }
  return out;
}

namespace {

using ObjectIndex = std::unordered_map<ObjectId, std::size_t>;

void merge_indexed(NodePartial& a, ObjectIndex& index, NodePartial& b) {
  // The child partial is consumed: fresh objects move their reader lists
  // over instead of reallocating them (the merge is allocation-bound).
  for (ObjectAccessSummary& s : b.summaries) {
    auto [it, inserted] = index.try_emplace(s.obj, a.summaries.size());
    if (inserted) {
      a.summaries.push_back(std::move(s));
      continue;
    }
    auto& readers = a.summaries[it->second].readers;
    for (const auto& [tid, bytes] : s.readers) {
      auto rit = std::find_if(readers.begin(), readers.end(),
                              [&](const auto& p) { return p.first == tid; });
      if (rit == readers.end()) {
        readers.emplace_back(tid, bytes);
      } else {
        rit->second = std::max(rit->second, bytes);
      }
    }
  }
}

}  // namespace

void DistributedTcmReducer::merge(NodePartial& a, const NodePartial& b) {
  ObjectIndex index;
  index.reserve(a.summaries.size());
  for (std::size_t i = 0; i < a.summaries.size(); ++i) {
    index.emplace(a.summaries[i].obj, i);
  }
  NodePartial copy = b;  // public API keeps b intact; tree_reduce moves
  merge_indexed(a, index, copy);
}

NodePartial DistributedTcmReducer::tree_reduce(std::vector<NodePartial> partials,
                                               Network* net,
                                               std::vector<NodeId>* lost_nodes) {
  if (partials.empty()) return NodePartial{};
  // Binary tree: in each round, partial i+stride merges into partial i.
  // Destination indices persist across rounds so each surviving partial's
  // object index is built exactly once.
  std::vector<ObjectIndex> indices(partials.size());
  for (std::size_t stride = 1; stride < partials.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < partials.size(); i += 2 * stride) {
      NodePartial& child = partials[i + stride];
      if (net != nullptr) {
        const SendOutcome o = net->send_reliable(
            {child.node, partials[i].node, MsgCategory::kOal,
             child.wire_bytes(), false});
        if (!o.delivered) {
          // The child's subtree never arrives: the merged map loses that
          // contribution (missing data, not wrong data).  The child keeps
          // its summaries so a later repair pass could re-ship them.
          if (lost_nodes != nullptr) lost_nodes->push_back(child.node);
          continue;
        }
      }
      if (indices[i].empty() && !partials[i].summaries.empty()) {
        indices[i].reserve(partials[i].summaries.size());
        for (std::size_t k = 0; k < partials[i].summaries.size(); ++k) {
          indices[i].emplace(partials[i].summaries[k].obj, k);
        }
      }
      merge_indexed(partials[i], indices[i], child);
    }
  }
  return std::move(partials.front());
}

void DistributedTcmReducer::merge_csr(NodeCsrPartial& a, const NodeCsrPartial& b,
                                      ArenaScratch& scratch) {
  a.arena = TcmBuilder::merge_arenas(a.arena, b.arena, scratch);
}

NodeCsrPartial DistributedTcmReducer::tree_reduce_csr(
    std::vector<NodeCsrPartial> partials, Network* net, ArenaScratch& scratch,
    std::vector<NodeId>* lost_nodes) {
  if (partials.empty()) return NodeCsrPartial{};
  // Same binary tree as tree_reduce; each level merges arena-to-arena
  // through the bucket sort, so no level re-hashes.
  for (std::size_t stride = 1; stride < partials.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < partials.size(); i += 2 * stride) {
      NodeCsrPartial& child = partials[i + stride];
      if (net != nullptr) {
        const SendOutcome o = net->send_reliable(
            {child.node, partials[i].node, MsgCategory::kOal,
             child.wire_bytes(), false});
        if (!o.delivered) {
          if (lost_nodes != nullptr) lost_nodes->push_back(child.node);
          child.arena = ReaderArena{};  // undeliverable; free its buffers
          continue;
        }
      }
      merge_csr(partials[i], child, scratch);
      child.arena = ReaderArena{};  // free the consumed child's buffers
    }
  }
  return std::move(partials.front());
}

namespace {

/// Shards objects [0, count) over `workers` threads: worker w accrues its
/// object range into a private upper-triangular accumulator, and the
/// partials sum cell-wise at the end — disjoint object ranges contribute
/// independent pair updates, so no synchronization inside the loop.
/// `readers_of(k)` yields object k's (thread, weighted bytes) readers.
template <typename ReadersOf>
SquareMatrix accrue_sharded(std::size_t count, std::uint32_t threads,
                            unsigned threads_hw, ReadersOf readers_of) {
  const unsigned workers = std::min<unsigned>(
      threads_hw, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<UpperTriangle> partials(workers, UpperTriangle(threads));
  std::vector<std::thread> pool;
  pool.reserve(workers);
  const std::size_t chunk = (count + workers - 1) / workers;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      const std::size_t lo = w * chunk;
      const std::size_t hi = std::min(count, lo + chunk);
      UpperTriangle& pairs = partials[w];
      for (std::size_t k = lo; k < hi; ++k) {
        const std::span<const std::pair<ThreadId, double>> r = readers_of(k);
        for (std::size_t i = 0; i < r.size(); ++i) {
          if (r[i].first >= threads) continue;
          for (std::size_t j = i + 1; j < r.size(); ++j) {
            if (r[j].first >= threads) continue;
            pairs.add(r[i].first, r[j].first,
                      std::min(r[i].second, r[j].second));
          }
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  UpperTriangle& merged = partials.front();
  for (unsigned w = 1; w < workers; ++w) {
    merged += partials[w];
  }
  return merged.densify();
}

}  // namespace

SquareMatrix DistributedTcmReducer::accrue_parallel(const ReaderArena& arena,
                                                    std::uint32_t threads,
                                                    unsigned threads_hw) {
  if (threads_hw <= 1 || arena.object_count() < 1024) {
    return TcmBuilder::accrue_sparse(arena, threads).densify();
  }
  // The CSR offsets give natural object shards.
  return accrue_sharded(arena.object_count(), threads, threads_hw,
                        [&](std::size_t k) { return arena.readers_of(k); });
}

SquareMatrix DistributedTcmReducer::accrue_parallel(
    std::span<const ObjectAccessSummary> summaries, std::uint32_t threads,
    unsigned threads_hw) {
  if (threads_hw <= 1 || summaries.size() < 1024) {
    return TcmBuilder::accrue(summaries, threads);
  }
  // Each object's summary appears once, so summaries shard like CSR objects.
  return accrue_sharded(summaries.size(), threads, threads_hw,
                        [&](std::size_t k) {
                          return std::span<const std::pair<ThreadId, double>>(
                              summaries[k].readers);
                        });
}

SquareMatrix DistributedTcmReducer::build(std::span<const IntervalRecord> records,
                                          std::uint32_t threads, bool weighted,
                                          unsigned threads_hw, Network* net,
                                          std::vector<NodeId>* lost_nodes) {
  ArenaScratch scratch;
  std::vector<NodeCsrPartial> partials =
      local_reduce_csr(records, weighted, scratch);
  NodeCsrPartial merged =
      tree_reduce_csr(std::move(partials), net, scratch, lost_nodes);
  return accrue_parallel(merged.arena, threads, threads_hw);
}

SquareMatrix DistributedTcmReducer::build(std::span<const OalArena* const> logs,
                                          std::uint32_t threads, bool weighted,
                                          unsigned threads_hw, Network* net,
                                          std::vector<NodeId>* lost_nodes) {
  ArenaScratch scratch;
  std::vector<NodeCsrPartial> partials =
      local_reduce_csr(logs, weighted, scratch);
  NodeCsrPartial merged =
      tree_reduce_csr(std::move(partials), net, scratch, lost_nodes);
  return accrue_parallel(merged.arena, threads, threads_hw);
}

}  // namespace djvm
