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

/** Names one chunk plan for the run path of ChunkStore::touch_plan. */
using RunId = uint32_t;

/**
 * Byte-bounded LRU set of chunks.
 *
 * Chunks live in one slab (`nodes_`) linked into an LRU list by 32-bit
 * slot indices; evicted slots are recycled through a free list. The index
 * is an open-addressing table of slot indices, homed by the low bits of
 * the chunk id (ids are already split_mix64 outputs), with linear probing,
 * backward-shift deletion and doubling at load 1/2.
 *
 * A plan touched chunk by chunk ends as one contiguous block at the MRU
 * end, chunk 0 the oldest. touch_plan() records that block as the plan's
 * *run* and tags its nodes; while no node of the block is touched,
 * evicted or re-tagged, touching the plan again just moves the block to
 * the MRU end, which is one O(1) splice. Invariant: a node is tagged `r`
 * iff it lies in run `r`'s live block. Every event that would break the
 * block dissolves the run (untags its nodes) first.
 */
class ChunkStore
{
  public:
    /** The hit chunks of one touch_plan() call and their bytes. */
    struct PlanHits {
        size_t chunks = 0;
        uint64_t bytes = 0;
    };

    /** @param capacity_bytes 0 means unbounded. */
    explicit ChunkStore(uint64_t capacity_bytes = 0);

    /** True if the chunk is resident (refreshes LRU recency). */
    bool lookup(ChunkId id);

    /** Inserts a chunk (no-op if resident); may evict LRU chunks.
     *  `bytes` must fit in 32 bits. */
    void insert(ChunkId id, uint64_t bytes);

    /** A new run id, dense from 0; ids stay valid across clear(). */
    RunId add_run();

    /**
     * Looks up each chunk of a plan in order and inserts each miss: the
     * same hits, misses, evictions and LRU order as lookup() then, on a
     * miss, insert() per chunk. If `run` is live it must hold exactly
     * these chunks (dissolve_run() it when the plan changes); it then
     * moves in one splice. Otherwise the per-chunk pass runs and leaves
     * `run` live iff the plan's chunks all end resident, distinct and in
     * plan order at the MRU end. `bytes` is the chunks' byte total.
     */
    PlanHits touch_plan(RunId run, const std::vector<ChunkRef> &chunks,
                        uint64_t bytes);

    /** Untags the run's nodes (no-op unless live). */
    void dissolve_run(RunId run);

    uint64_t resident_bytes() const { return resident_bytes_; }
    size_t resident_chunks() const { return size_; }
    uint64_t capacity_bytes() const { return capacity_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t evictions() const { return evictions_; }
    /** touch_plan() calls served by the run splice. */
    uint64_t run_splices() const { return run_splices_; }

    /** Resident chunk ids, most recently used first. */
    std::vector<ChunkId> lru_order() const;

    /** Drops everything (for cold-cache experiments); dissolves every
     *  run. */
    void clear();

  private:
    static constexpr uint32_t kNil = UINT32_MAX;

    struct Node {
        ChunkId id;
        uint32_t bytes;
        RunId run;     ///< the live run holding the node; kNil if none
        uint32_t prev; ///< towards the most recent end; kNil at the head
        uint32_t next; ///< towards the LRU end; free-list link when free
    };
    static_assert(sizeof(Node) == 24);

    /** A live run's block spans newest..oldest along `next`; count 0 =
     *  not live. */
    struct Run {
        uint32_t newest = kNil;
        uint32_t oldest = kNil;
        uint32_t count = 0;
    };

  public:
    /**
     * The store's recyclable allocations (slab and index). Opaque to
     * callers: it moves capacity between stores (core::StackArena), so a
     * sweep worker's next scenario skips the index's growth from 16 slots.
     */
    struct Storage {
        std::vector<Node> nodes;
        std::vector<uint32_t> index;
    };

    /** Takes over released storage. Must be called while the store is
     *  empty and has never held a chunk. */
    void adopt_storage(Storage &&storage);

    /** Hands the allocations back and leaves the store empty. */
    Storage release_storage();

  private:
    /** Index-table position holding `id`, or of the empty slot ending
     *  its probe run. */
    size_t probe(ChunkId id) const;
    void unlink(uint32_t slot);
    void push_front(uint32_t slot);
    /** Marks the slot most recently used. */
    void touch(uint32_t slot);
    /** Moves a live run's block to the MRU end. */
    void splice_front(const Run &run);
    /** Inserts a chunk known to be absent, tagged `run`. */
    uint32_t add(ChunkId id, uint64_t bytes, RunId run);
    void erase_index(size_t pos);
    void grow_index();
    void evict_to_fit(uint64_t incoming_bytes);

    uint64_t capacity_;
    uint64_t resident_bytes_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t run_splices_ = 0;
    size_t size_ = 0;
    std::vector<Node> nodes_;
    uint32_t head_ = kNil; ///< most recent
    uint32_t tail_ = kNil; ///< least recent
    uint32_t free_ = kNil;
    std::vector<uint32_t> index_; ///< slot indices; kNil = empty
    std::vector<Run> runs_;
    /** The run touch_plan() is building, and how many resident nodes
     *  it has tagged so far; kNil when no build is under way. */
    RunId building_ = kNil;
    uint32_t claimed_ = 0;
};

} // namespace tacc::compiler
