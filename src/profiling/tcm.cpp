#include "profiling/tcm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "profiling/ingest.hpp"

namespace djvm {

namespace {

/// Direct-index tables stop growing past this many object ids; rarer sparse
/// ids (nothing in the tree produces them, but the API accepts any id) go
/// through a hash map instead of sizing an allocation.
constexpr ObjectId kDirectSlotCap = 1ull << 24;

}  // namespace

// --- ObjectSlotMap ------------------------------------------------------------

std::int32_t ObjectSlotMap::get_or_assign(ObjectId obj, bool& fresh) {
  if (obj < kDirectSlotCap) [[likely]] {
    if (obj >= table_.size()) {
      table_.resize(static_cast<std::size_t>(obj) + 1, -1);
    }
    std::int32_t& cell = table_[static_cast<std::size_t>(obj)];
    fresh = cell < 0;
    if (fresh) cell = count_++;
    return cell;
  }
  auto [it, inserted] = spill_.try_emplace(obj, count_);
  fresh = inserted;
  if (inserted) ++count_;
  return it->second;
}

void ObjectSlotMap::release(std::span<const ObjectId> touched) {
  for (const ObjectId obj : touched) {
    if (obj < kDirectSlotCap) {
      table_[static_cast<std::size_t>(obj)] = -1;
    }
  }
  spill_.clear();
  count_ = 0;
}

// --- arena reorganize ---------------------------------------------------------

namespace {

/// The bucket-sort machinery shared by reorganize_arena and merge_arenas:
/// `for_each` must invoke its argument once per (thread, object, class,
/// already-scaled bytes) tuple, in any order, any number of times per
/// (thread, object), and visit the same tuples in the same order when
/// called again.  Pass 1 assigns each entry its object's slot through the
/// direct-indexed slot map, pass 2 prefix-sums and scatters the source a
/// second time straight into the CSR buffer, pass 3 stamp-dedups each
/// segment in place with max-combining.
template <typename ForEach>
ReaderArena reorganize_impl(ArenaScratch& s, ForEach&& for_each) {
  ReaderArena arena;
  s.counts.clear();
  s.entry_slot.clear();

  // Pass 1: assign dense object slots in first-appearance order
  // (direct-indexed bucket "hash" — object ids are dense heap ids), remember
  // each entry's slot, and count each slot's bucket size.
  ThreadId max_thread = 0;
  for_each([&](ThreadId thread, ObjectId obj, ClassId klass, double) {
    bool fresh = false;
    const auto slot =
        static_cast<std::size_t>(s.slots.get_or_assign(obj, fresh));
    if (fresh) {
      arena.objects.push_back(obj);
      arena.klass.push_back(klass);
      s.counts.push_back(0);
    } else if (arena.klass[slot] == kInvalidClass) {
      arena.klass[slot] = klass;  // first valid tag
    }
    ++s.counts[slot];
    s.entry_slot.push_back(static_cast<std::uint32_t>(slot));
    max_thread = std::max(max_thread, thread);
  });

  // Pass 2: prefix sums, then scatter every entry into its bucket.
  const std::size_t object_count = arena.objects.size();
  arena.offsets.assign(object_count + 1, 0);
  for (std::size_t k = 0; k < object_count; ++k) {
    arena.offsets[k + 1] = arena.offsets[k] + s.counts[k];
  }
  s.cursor.assign(arena.offsets.begin(), arena.offsets.end() - 1);
  arena.readers.resize(s.entry_slot.size());
  std::size_t i = 0;
  for_each([&](ThreadId thread, ObjectId, ClassId, double bytes) {
    arena.readers[s.cursor[s.entry_slot[i++]]++] = {thread, bytes};
  });

  // Pass 3: dedup each segment by thread with max-combining.  Stamps are
  // direct-indexed by thread id (thread ids are dense too) and epoch-tagged,
  // so reuse across calls never needs a re-zeroing pass; the write cursor
  // trails the read cursor, so compaction is in place.
  if (s.stamp.size() <= max_thread) {
    s.stamp.resize(static_cast<std::size_t>(max_thread) + 1, 0);
    s.pos.resize(static_cast<std::size_t>(max_thread) + 1, 0);
  }
  std::uint32_t write = 0;
  for (std::size_t k = 0; k < object_count; ++k) {
    const std::uint64_t epoch = ++s.epoch;
    const std::uint32_t lo = arena.offsets[k];
    const std::uint32_t hi = arena.offsets[k + 1];
    arena.offsets[k] = write;
    for (std::uint32_t r = lo; r < hi; ++r) {
      const auto [thread, bytes] = arena.readers[r];
      const auto ti = static_cast<std::size_t>(thread);
      if (s.stamp[ti] != epoch) {
        s.stamp[ti] = epoch;
        s.pos[ti] = write;
        arena.readers[write++] = {thread, bytes};
      } else if (bytes > arena.readers[s.pos[ti]].second) {
        arena.readers[s.pos[ti]].second = bytes;
      }
    }
  }
  arena.offsets[object_count] = write;
  arena.readers.resize(write);

  // Release the slot assignments (the direct table keeps its allocation for
  // the next call).
  s.slots.release(arena.objects);
  return arena;
}

}  // namespace

ReaderArena TcmBuilder::reorganize_arena(std::span<const ArenaSliceRef> slices,
                                         bool weighted, ArenaScratch& s) {
  return reorganize_impl(s, [&](auto&& emit) {
    for (const ArenaSliceRef& ref : slices) {
      const ArenaInterval& iv = ref.log->intervals[ref.slice];
      for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
        const OalEntry& e = ref.log->entries[i];
        const double bytes = weighted
                                 ? static_cast<double>(e.bytes) * e.gap
                                 : static_cast<double>(e.bytes);
        emit(iv.thread, e.obj, e.klass, bytes);
      }
    }
  });
}

ReaderArena TcmBuilder::merge_arenas(const ReaderArena& a, const ReaderArena& b,
                                     ArenaScratch& s) {
  const auto feed = [](const ReaderArena& src, auto& emit) {
    for (std::size_t k = 0; k < src.object_count(); ++k) {
      for (const auto& [thread, bytes] : src.readers_of(k)) {
        emit(thread, src.objects[k], src.klass[k], bytes);
      }
    }
  };
  return reorganize_impl(s, [&](auto&& emit) {
    feed(a, emit);
    feed(b, emit);
  });
}

// --- accrual ------------------------------------------------------------------

UpperTriangle TcmBuilder::accrue_sparse(const ReaderArena& arena,
                                        std::uint32_t threads,
                                        std::size_t first, std::size_t last) {
  UpperTriangle pairs(threads);
  last = std::min(last, arena.object_count());
  for (std::size_t k = first; k < last; ++k) {
    const auto r = arena.readers_of(k);
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (r[i].first >= threads) continue;
      for (std::size_t j = i + 1; j < r.size(); ++j) {
        if (r[j].first >= threads) continue;
        pairs.add(r[i].first, r[j].first, std::min(r[i].second, r[j].second));
      }
    }
  }
  return pairs;
}

TcmClassAttribution TcmBuilder::attribute_cells(
    const ReaderArena& arena, std::uint32_t threads,
    std::span<const NodeId> node_of_thread) {
  TcmClassAttribution out;
  const auto node_of = [&](ThreadId t) {
    return t < node_of_thread.size() ? node_of_thread[t] : kInvalidNode;
  };
  for (std::size_t k = 0; k < arena.object_count(); ++k) {
    if (arena.klass[k] == kInvalidClass) continue;  // untagged: no attribution
    const auto c = static_cast<std::size_t>(arena.klass[k]);
    const auto r = arena.readers_of(k);
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (r[i].first >= threads) continue;
      for (std::size_t j = i + 1; j < r.size(); ++j) {
        if (r[j].first >= threads) continue;
        const double w = std::min(r[i].second, r[j].second);
        if (w <= 0.0) continue;
        if (out.cut_bytes.size() <= c) {
          out.cut_bytes.resize(c + 1, 0.0);
          out.local_bytes.resize(c + 1, 0.0);
          out.thread_mass.resize(c + 1);
        }
        if (out.thread_mass[c].empty()) out.thread_mass[c].resize(threads, 0.0);
        const NodeId ni = node_of(r[i].first);
        const NodeId nj = node_of(r[j].first);
        // Unplaced threads make no cross-node claim: count them local.
        if (ni != nj && ni != kInvalidNode && nj != kInvalidNode) {
          out.cut_bytes[c] += w;
        } else {
          out.local_bytes[c] += w;
        }
        out.thread_mass[c][r[i].first] += w;
        out.thread_mass[c][r[j].first] += w;
      }
    }
  }
  return out;
}

SquareMatrix TcmBuilder::build_reference(std::span<const IntervalRecord> records,
                                         std::uint32_t threads, bool weighted) {
  // The seed's pipeline, preserved verbatim: per-object summaries behind a
  // hash map (one rehash + one linear reader scan per entry, one vector per
  // object), then dense accrual — the oracle the CSR path is measured and
  // verified against.
  struct ObjectReaders {
    ObjectId obj = kInvalidObject;
    std::vector<std::pair<ThreadId, double>> readers;  ///< (thread, max bytes)
  };
  std::unordered_map<ObjectId, std::size_t> index;
  std::vector<ObjectReaders> summaries;
  index.reserve(1024);
  for (const IntervalRecord& rec : records) {
    for (const OalEntry& e : rec.entries) {
      const double bytes = weighted
                               ? static_cast<double>(e.bytes) * e.gap
                               : static_cast<double>(e.bytes);
      auto [it, inserted] = index.try_emplace(e.obj, summaries.size());
      if (inserted) {
        summaries.push_back(ObjectReaders{e.obj, {}});
      }
      auto& readers = summaries[it->second].readers;
      auto rit = std::find_if(readers.begin(), readers.end(),
                              [&](const auto& p) { return p.first == rec.thread; });
      if (rit == readers.end()) {
        readers.emplace_back(rec.thread, bytes);
      } else {
        rit->second = std::max(rit->second, bytes);
      }
    }
  }
  SquareMatrix tcm(threads);
  for (const ObjectReaders& s : summaries) {
    const auto& r = s.readers;
    for (std::size_t i = 0; i < r.size(); ++i) {
      for (std::size_t j = i + 1; j < r.size(); ++j) {
        const double shared = std::min(r[i].second, r[j].second);
        if (r[i].first < threads && r[j].first < threads) {
          tcm.add_symmetric(r[i].first, r[j].first, shared);
        }
      }
    }
  }
  return tcm;
}

// --- incremental accumulator --------------------------------------------------

TcmAccumulator::TcmAccumulator(std::uint32_t threads)
    : threads_(threads),
      free_blocks_(std::size_t{threads} + 1, kNone),
      where_(threads),
      where_stamp_(threads, 0),
      pairs_(threads) {}

std::size_t TcmAccumulator::assign_slot(ObjectId obj) {
  bool fresh = false;
  const std::int32_t slot = slots_.get_or_assign(obj, fresh);
  if (fresh) {
    touched_.push_back(obj);
    blocks_.push_back(Block{});
    last_touch_.push_back(epoch_);
    decay_epoch_.push_back(kNeverDecayed);
  }
  return static_cast<std::size_t>(slot);
}

std::uint32_t TcmAccumulator::take_block(std::uint32_t cap) {
  std::uint32_t& head = free_blocks_[cap];
  if (head != kNone) {
    const std::uint32_t offset = head;
    head = reader_thread_[offset];
    return offset;
  }
  const std::size_t end = reader_thread_.size() + cap;
  if (end > reader_thread_.capacity()) {
    // Reserve in powers of two, as push_back grows a single array.
    const std::size_t grown = std::bit_ceil(end);
    reader_thread_.reserve(grown);
    reader_bytes_.reserve(grown);
  }
  const auto offset = static_cast<std::uint32_t>(reader_thread_.size());
  reader_thread_.resize(end);
  reader_bytes_.resize(end);
  return offset;
}

void TcmAccumulator::free_block(const Block& block) {
  if (block.cap == 0) return;
  reader_thread_[block.offset] = free_blocks_[block.cap];
  free_blocks_[block.cap] = block.offset;
}

void TcmAccumulator::reserve_readers(std::size_t slot, std::uint32_t want) {
  Block& block = blocks_[slot];
  if (want <= block.cap) return;
  // A new object's block is exact; a growing one at least doubles, capped at
  // the map's dimension (an object holds each thread at most once).
  const std::uint32_t cap = std::min(std::max(want, 2 * block.cap), threads_);
  const std::uint32_t offset = take_block(cap);
  std::copy_n(reader_thread_.begin() + block.offset, block.count,
              reader_thread_.begin() + offset);
  std::copy_n(reader_bytes_.begin() + block.offset, block.count,
              reader_bytes_.begin() + offset);
  free_block(block);
  block.offset = offset;
  block.cap = cap;
}

void TcmAccumulator::raise_reader(std::size_t slot, std::uint32_t pos,
                                  double bytes) {
  const Block& block = blocks_[slot];
  const ThreadId* threads = reader_thread_.data() + block.offset;
  double* held = reader_bytes_.data() + block.offset;
  const double old = held[pos];
  if (bytes <= old) return;  // max-combining: nothing new to contribute
  // Raising this reader's byte value moves every pair it participates in by
  // min(new, other) - min(old, other); the invariant pair == min(cur_i,
  // cur_j) per object is preserved.
  for (std::uint32_t r = 0; r < block.count; ++r) {
    if (r == pos) continue;
    const double delta = std::min(bytes, held[r]) - std::min(old, held[r]);
    if (delta > 0.0) pairs_.add(threads[pos], threads[r], delta);
  }
  held[pos] = bytes;
}

std::uint32_t TcmAccumulator::insert_reader(std::size_t slot, ThreadId thread,
                                            double bytes) {
  Block& block = blocks_[slot];
  assert(block.count < block.cap);
  ThreadId* threads = reader_thread_.data() + block.offset;
  double* held = reader_bytes_.data() + block.offset;
  for (std::uint32_t r = 0; r < block.count; ++r) {
    pairs_.add(thread, threads[r], std::min(bytes, held[r]));
  }
  threads[block.count] = thread;
  held[block.count] = bytes;
  ++live_readers_;
  return block.count++;
}

void TcmAccumulator::add_one(ObjectId obj, ThreadId thread, double bytes) {
  if (thread >= threads_) return;  // beyond the map's dimension (as accrue)
  const std::size_t slot = assign_slot(obj);
  last_touch_[slot] = epoch_;
  const Block& block = blocks_[slot];
  const ThreadId* threads = reader_thread_.data() + block.offset;
  for (std::uint32_t r = 0; r < block.count; ++r) {
    if (threads[r] == thread) {
      raise_reader(slot, r, bytes);
      return;
    }
  }
  reserve_readers(slot, block.count + 1);
  insert_reader(slot, thread, bytes);
}

void TcmAccumulator::add(const ReaderArena& arena) {
  for (std::size_t k = 0; k < arena.object_count(); ++k) {
    add_readers(arena.objects[k], arena.readers_of(k));
  }
}

void TcmAccumulator::add_readers(
    ObjectId obj, std::span<const std::pair<ThreadId, double>> readers) {
  const auto in_range = [&](const auto& r) { return r.first < threads_; };
  // A lone reader scans the block only as far as its own cell; stamping the
  // whole block would cost more than the scan it saves.
  if (readers.size() < 2 || std::count_if(readers.begin(), readers.end(),
                                          in_range) < 2) {
    for (const auto& [thread, bytes] : readers) add_one(obj, thread, bytes);
    return;
  }
  const std::size_t slot = assign_slot(obj);
  last_touch_[slot] = epoch_;
  // Several readers: index the object's block by thread once, so each
  // incoming reader finds its cell in O(1), and count the readers the block
  // does not hold yet (kNone marks them) so it grows at most once.  The pair
  // updates are add_one's own (raise_reader / insert_reader), in add_one's
  // order.
  const std::uint64_t stamp = ++stamp_;
  const Block& block = blocks_[slot];
  for (std::uint32_t r = 0; r < block.count; ++r) {
    const ThreadId thread = reader_thread_[block.offset + r];
    where_[thread] = r;
    where_stamp_[thread] = stamp;
  }
  std::uint32_t fresh = 0;
  for (const auto& r : readers) {
    if (!in_range(r) || where_stamp_[r.first] == stamp) continue;
    where_[r.first] = kNone;
    where_stamp_[r.first] = stamp;
    ++fresh;
  }
  reserve_readers(slot, block.count + fresh);
  for (const auto& [thread, bytes] : readers) {
    if (thread >= threads_) continue;
    if (where_[thread] == kNone) {
      where_[thread] = insert_reader(slot, thread, bytes);
    } else {
      raise_reader(slot, where_[thread], bytes);
    }
  }
}

void TcmAccumulator::reset() {
  slots_.release(touched_);
  touched_.clear();
  blocks_.clear();
  last_touch_.clear();
  decay_epoch_.clear();
  reader_thread_.clear();
  reader_bytes_.clear();
  std::fill(free_blocks_.begin(), free_blocks_.end(), kNone);
  pairs_.clear();
  live_readers_ = 0;
  epoch_ = 0;
}

TcmCompactStats TcmAccumulator::compact(std::uint32_t idle_epochs,
                                        double decay) {
  TcmCompactStats stats;
  if (idle_epochs == 0) return stats;  // age 0 would evict the live epoch too
  bool any_dead = false;
  for (std::size_t slot = 0; slot < touched_.size(); ++slot) {
    Block& block = blocks_[slot];
    if (block.count == 0) continue;  // already evicted, awaiting compact
    const std::uint32_t age = epoch_ - last_touch_[slot];
    if (age < idle_epochs) continue;
    const ThreadId* threads = reader_thread_.data() + block.offset;
    double* held = reader_bytes_.data() + block.offset;

    if (decay > 0.0) {
      if (decay_epoch_[slot] == epoch_) continue;  // idempotent per epoch
      const double max_bytes = *std::max_element(held, held + block.count);
      if (decay * max_bytes >= 1.0) {
        // Scaling every reader of this object by d scales each of its pair
        // contributions min(b_i, b_j) by d as well: subtract the (1 - d)
        // share, then scale the bytes, and the invariant holds over the
        // decayed values.
        for (std::uint32_t i = 0; i < block.count; ++i) {
          for (std::uint32_t j = i + 1; j < block.count; ++j) {
            const double w = std::min(held[i], held[j]);
            if (w > 0.0) pairs_.add(threads[i], threads[j], -(1.0 - decay) * w);
          }
        }
        for (std::uint32_t r = 0; r < block.count; ++r) held[r] *= decay;
        decay_epoch_[slot] = epoch_;
        ++stats.decayed_objects;
        continue;
      }
      // Decayed to less than a byte: dust — fall through to the drop path.
    }

    // Drop outright: subtract this object's exact pair contribution (byte
    // values are the ones the adds accumulated, so never-decayed objects
    // cancel exactly), return its block to the free chain for its capacity.
    for (std::uint32_t i = 0; i < block.count; ++i) {
      for (std::uint32_t j = i + 1; j < block.count; ++j) {
        const double w = std::min(held[i], held[j]);
        if (w > 0.0) pairs_.add(threads[i], threads[j], -w);
      }
    }
    free_block(block);
    live_readers_ -= block.count;
    stats.freed_readers += block.count;
    block = Block{};
    any_dead = true;
    ++stats.dropped_objects;
  }

  if (any_dead) {
    // Compact the slot arrays in place (stable order), then re-assign
    // sequential slots: get_or_assign hands out 0, 1, 2... in call order, so
    // survivor k lands back at slot k.  Blocks stay where they are.
    slots_.release(touched_);
    std::size_t w = 0;
    for (std::size_t slot = 0; slot < touched_.size(); ++slot) {
      if (blocks_[slot].count == 0) continue;
      touched_[w] = touched_[slot];
      blocks_[w] = blocks_[slot];
      last_touch_[w] = last_touch_[slot];
      decay_epoch_[w] = decay_epoch_[slot];
      ++w;
    }
    touched_.resize(w);
    blocks_.resize(w);
    last_touch_.resize(w);
    decay_epoch_.resize(w);
    for (std::size_t k = 0; k < w; ++k) {
      bool fresh = false;
      const std::int32_t s = slots_.get_or_assign(touched_[k], fresh);
      assert(fresh && s == static_cast<std::int32_t>(k));
      (void)s;
    }
  }
  return stats;
}

std::size_t TcmAccumulator::memory_bytes() const noexcept {
  return touched_.capacity() * sizeof(ObjectId) +
         blocks_.capacity() * sizeof(Block) +
         last_touch_.capacity() * sizeof(std::uint32_t) +
         decay_epoch_.capacity() * sizeof(std::uint32_t) +
         reader_thread_.capacity() * sizeof(ThreadId) +
         reader_bytes_.capacity() * sizeof(double) +
         free_blocks_.capacity() * sizeof(std::uint32_t) +
         pairs_.cell_count() * sizeof(double);
}

}  // namespace djvm
