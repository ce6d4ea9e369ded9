/**
 * @file
 * Content-addressed chunk store backing the compiler layer's delta cache.
 *
 * The paper's compiler layer "only updates the delta of the instruction and
 * retains the unchanged parts" across submissions. We model artifact
 * content as fixed-size chunks with deterministic content ids: bumping an
 * artifact's version rewrites a configurable fraction of its chunks, so a
 * warm store only transfers the changed chunks. The store itself is an
 * LRU-bounded set of chunk ids with byte accounting, kept in a flat slab.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "workload/task_spec.h"

namespace tacc::compiler {

/** Content hash of one chunk. */
using ChunkId = uint64_t;

/** A chunk reference inside an artifact's chunk plan. */
struct ChunkRef {
    ChunkId id;
    uint64_t bytes;
};

/**
 * Deterministically derives the chunk list of an artifact version.
 *
 * Chunk i of version v has content id hash(name, i, last_change(i, v)),
 * where last_change is the most recent version <= v that rewrote chunk i.
 * Version 1 rewrites everything; each later version rewrites roughly
 * delta_fraction of the chunks (chosen by hash, so the choice is stable).
 */
std::vector<ChunkRef> chunk_artifact(const workload::Artifact &artifact,
                                     uint64_t chunk_bytes,
                                     double delta_fraction);

/**
 * Byte-bounded LRU set of chunks.
 *
 * Chunks live in one slab (`nodes_`) linked into an LRU list by 32-bit
 * slot indices; evicted slots are recycled through a free list. The index
 * is an open-addressing table of slot indices, homed by the low bits of
 * the chunk id (ids are already split_mix64 outputs), with linear probing,
 * backward-shift deletion and doubling at load 1/2.
 */
class ChunkStore
{
  public:
    /** @param capacity_bytes 0 means unbounded. */
    explicit ChunkStore(uint64_t capacity_bytes = 0);

    /** True if the chunk is resident (refreshes LRU recency). */
    bool lookup(ChunkId id);

    /** Inserts a chunk (no-op if resident); may evict LRU chunks. */
    void insert(ChunkId id, uint64_t bytes);

    uint64_t resident_bytes() const { return resident_bytes_; }
    size_t resident_chunks() const { return size_; }
    uint64_t capacity_bytes() const { return capacity_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t evictions() const { return evictions_; }

    /** Drops everything (for cold-cache experiments). */
    void clear();

  private:
    static constexpr uint32_t kNil = UINT32_MAX;

    struct Node {
        ChunkId id;
        uint64_t bytes;
        uint32_t prev; ///< towards the most recent end; kNil at the head
        uint32_t next; ///< towards the LRU end; free-list link when free
    };

    /** Index-table position holding `id`, or of the empty slot ending
     *  its probe run. */
    size_t probe(ChunkId id) const;
    void unlink(uint32_t slot);
    void push_front(uint32_t slot);
    /** Marks the slot most recently used. */
    void touch(uint32_t slot);
    void erase_index(size_t pos);
    void grow_index();
    void evict_to_fit(uint64_t incoming_bytes);

    uint64_t capacity_;
    uint64_t resident_bytes_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    size_t size_ = 0;
    std::vector<Node> nodes_;
    uint32_t head_ = kNil; ///< most recent
    uint32_t tail_ = kNil; ///< least recent
    uint32_t free_ = kNil;
    std::vector<uint32_t> index_; ///< slot indices; kNil = empty
};

} // namespace tacc::compiler
