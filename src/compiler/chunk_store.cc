#include "compiler/chunk_store.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"

namespace tacc::compiler {

namespace {

uint64_t
hash_u64(uint64_t x)
{
    uint64_t state = x;
    return split_mix64(state);
}

uint64_t
hash_combine(uint64_t a, uint64_t b)
{
    return hash_u64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

uint64_t
hash_string(const std::string &s)
{
    // FNV-1a 64-bit.
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

std::vector<ChunkRef>
chunk_artifact(const workload::Artifact &artifact, uint64_t chunk_bytes,
               double delta_fraction)
{
    assert(chunk_bytes > 0);
    assert(chunk_bytes <= UINT32_MAX); // ChunkStore keeps 32-bit sizes
    assert(delta_fraction >= 0.0 && delta_fraction <= 1.0);

    const uint64_t name_hash = hash_string(artifact.name);
    const uint64_t full_chunks = artifact.bytes / chunk_bytes;
    const uint64_t tail = artifact.bytes % chunk_bytes;
    const uint64_t count = full_chunks + (tail ? 1 : 0);
    // The rewrite threshold on a 32-bit hash slice.
    const uint64_t threshold = uint64_t(delta_fraction * 4294967296.0);

    std::vector<ChunkRef> out;
    out.reserve(size_t(count));
    for (uint64_t i = 0; i < count; ++i) {
        // Find the most recent version <= artifact.version that rewrote
        // chunk i. Version 1 always rewrites (initial content).
        uint64_t last_change = 1;
        for (uint64_t v = artifact.version; v > 1; --v) {
            const uint64_t h =
                hash_combine(hash_combine(name_hash, i), v) & 0xffffffffULL;
            if (h < threshold) {
                last_change = v;
                break;
            }
        }
        const ChunkId id = hash_combine(
            hash_combine(name_hash, i),
            hash_combine(0x5eedULL, last_change));
        const uint64_t bytes =
            (i + 1 == count && tail) ? tail : chunk_bytes;
        out.push_back(ChunkRef{id, bytes});
    }
    return out;
}

ChunkStore::ChunkStore(uint64_t capacity_bytes)
    : capacity_(capacity_bytes), index_(16, kNil)
{
}

size_t
ChunkStore::probe(ChunkId id) const
{
    const size_t mask = index_.size() - 1;
    size_t pos = size_t(id) & mask;
    while (index_[pos] != kNil && nodes_[index_[pos]].id != id)
        pos = (pos + 1) & mask;
    return pos;
}

void
ChunkStore::unlink(uint32_t slot)
{
    const Node &node = nodes_[slot];
    (node.prev == kNil ? head_ : nodes_[node.prev].next) = node.next;
    (node.next == kNil ? tail_ : nodes_[node.next].prev) = node.prev;
}

void
ChunkStore::push_front(uint32_t slot)
{
    Node &node = nodes_[slot];
    node.prev = kNil;
    node.next = head_;
    (head_ == kNil ? tail_ : nodes_[head_].prev) = slot;
    head_ = slot;
}

void
ChunkStore::touch(uint32_t slot)
{
    if (slot != head_) {
        unlink(slot);
        push_front(slot);
    }
}

void
ChunkStore::splice_front(const Run &run)
{
    if (run.newest == head_)
        return;
    Node &newest = nodes_[run.newest];
    Node &oldest = nodes_[run.oldest];
    nodes_[newest.prev].next = oldest.next;
    (oldest.next == kNil ? tail_ : nodes_[oldest.next].prev) = newest.prev;
    oldest.next = head_;
    nodes_[head_].prev = run.oldest;
    newest.prev = kNil;
    head_ = run.newest;
}

bool
ChunkStore::lookup(ChunkId id)
{
    const uint32_t slot = index_[probe(id)];
    if (slot == kNil) {
        ++misses_;
        return false;
    }
    ++hits_;
    dissolve_run(nodes_[slot].run);
    touch(slot);
    return true;
}

void
ChunkStore::insert(ChunkId id, uint64_t bytes)
{
    if (const uint32_t slot = index_[probe(id)]; slot != kNil) {
        dissolve_run(nodes_[slot].run);
        touch(slot);
        return;
    }
    add(id, bytes, kNil);
}

uint32_t
ChunkStore::add(ChunkId id, uint64_t bytes, RunId run)
{
    assert(bytes <= UINT32_MAX);
    evict_to_fit(bytes);
    if (2 * (size_ + 1) > index_.size())
        grow_index();
    uint32_t slot = free_;
    if (slot != kNil) {
        free_ = nodes_[slot].next;
    } else {
        assert(nodes_.size() < kNil);
        slot = uint32_t(nodes_.size());
        nodes_.emplace_back();
    }
    nodes_[slot].id = id;
    nodes_[slot].bytes = uint32_t(bytes);
    nodes_[slot].run = run;
    // Eviction or growth may have moved the probe run: probe again.
    index_[probe(id)] = slot;
    push_front(slot);
    ++size_;
    resident_bytes_ += bytes;
    return slot;
}

RunId
ChunkStore::add_run()
{
    assert(runs_.size() < kNil);
    runs_.emplace_back();
    return RunId(runs_.size() - 1);
}

ChunkStore::PlanHits
ChunkStore::touch_plan(RunId run, const std::vector<ChunkRef> &chunks,
                       uint64_t bytes)
{
    Run &live = runs_[run];
    if (live.count != 0) {
        // Touching the block's chunks oldest first rebuilds the same
        // block at the MRU end and leaves the rest of the list in order.
        assert(live.count == chunks.size());
        splice_front(live);
        hits_ += live.count;
        ++run_splices_;
        return {live.count, bytes};
    }
    // The per-chunk pass. Each node it touches or inserts moves to the
    // MRU end and is tagged, so the tagged nodes still resident are always
    // the top claimed_ of the list; evicting one of them decrements it.
    PlanHits out;
    building_ = run;
    claimed_ = 0;
    uint32_t first = kNil;
    for (const ChunkRef &chunk : chunks) {
        uint32_t slot = index_[probe(chunk.id)];
        if (slot != kNil) {
            ++hits_;
            ++out.chunks;
            out.bytes += chunk.bytes;
            Node &node = nodes_[slot];
            if (node.run != run) { // not a repeat of this plan's own id
                dissolve_run(node.run);
                node.run = run;
                ++claimed_;
            }
            touch(slot);
        } else {
            ++misses_;
            slot = add(chunk.id, chunk.bytes, run);
            ++claimed_;
        }
        if (first == kNil)
            first = slot;
    }
    building_ = kNil;
    // All chunks resident and distinct: they are the top N nodes, chunk
    // 0 the oldest. Anything less (a repeated id, a chunk evicted by the
    // plan's own inserts) leaves no run: untag what was claimed.
    if (claimed_ != 0 && claimed_ == chunks.size()) {
        live = Run{head_, first, claimed_};
    } else {
        for (uint32_t slot = head_; claimed_ != 0; --claimed_) {
            nodes_[slot].run = kNil;
            slot = nodes_[slot].next;
        }
    }
    return out;
}

void
ChunkStore::dissolve_run(RunId run)
{
    if (run == kNil)
        return;
    Run &live = runs_[run];
    uint32_t slot = live.newest;
    for (; live.count != 0; --live.count) {
        nodes_[slot].run = kNil;
        slot = nodes_[slot].next;
    }
}

std::vector<ChunkId>
ChunkStore::lru_order() const
{
    std::vector<ChunkId> out;
    out.reserve(size_);
    for (uint32_t slot = head_; slot != kNil; slot = nodes_[slot].next)
        out.push_back(nodes_[slot].id);
    return out;
}

void
ChunkStore::erase_index(size_t pos)
{
    // Backward-shift deletion: pull later entries of the probe run into
    // the hole unless their home lies cyclically in (hole, entry].
    const size_t mask = index_.size() - 1;
    size_t hole = pos;
    for (size_t j = (hole + 1) & mask; index_[j] != kNil;
         j = (j + 1) & mask) {
        const size_t home = size_t(nodes_[index_[j]].id) & mask;
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            index_[hole] = index_[j];
            hole = j;
        }
    }
    index_[hole] = kNil;
}

void
ChunkStore::grow_index()
{
    index_.assign(index_.size() * 2, kNil);
    for (uint32_t slot = head_; slot != kNil; slot = nodes_[slot].next)
        index_[probe(nodes_[slot].id)] = slot;
}

void
ChunkStore::evict_to_fit(uint64_t incoming_bytes)
{
    if (capacity_ == 0)
        return;
    while (tail_ != kNil && resident_bytes_ + incoming_bytes > capacity_) {
        const uint32_t victim = tail_;
        // A tagged tail is its run's oldest node.
        if (const RunId owner = nodes_[victim].run;
            owner != kNil && owner == building_)
            --claimed_;
        else
            dissolve_run(owner);
        resident_bytes_ -= nodes_[victim].bytes;
        erase_index(probe(nodes_[victim].id));
        unlink(victim);
        nodes_[victim].next = free_;
        free_ = victim;
        --size_;
        ++evictions_;
    }
}

void
ChunkStore::clear()
{
    nodes_.clear();
    std::fill(index_.begin(), index_.end(), kNil);
    head_ = tail_ = free_ = kNil;
    size_ = 0;
    resident_bytes_ = 0;
    for (Run &run : runs_)
        run.count = 0;
}

void
ChunkStore::adopt_storage(Storage &&storage)
{
    assert(nodes_.empty() && "adopt_storage requires a pristine store");
    nodes_ = std::move(storage.nodes);
    nodes_.clear();
    if (storage.index.size() > index_.size()) {
        index_ = std::move(storage.index);
        std::fill(index_.begin(), index_.end(), kNil);
    }
}

ChunkStore::Storage
ChunkStore::release_storage()
{
    clear();
    Storage storage{std::move(nodes_), std::move(index_)};
    nodes_ = {};
    index_.assign(16, kNil);
    return storage;
}

} // namespace tacc::compiler
