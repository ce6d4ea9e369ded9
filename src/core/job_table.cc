#include "core/job_table.h"

#include <cassert>
#include <utility>

namespace tacc::core {

JobEntry &
JobTable::emplace(cluster::JobId id, const workload::ModelProfile &model,
                  TimePoint submit, compiler::TaskInstruction compiled)
{
    assert(id >= base_);
    if (size_t(id - base_) / kChunkIds == chunks_.size()) {
        if (spare_.empty()) {
            spare_.push_back(std::make_unique<Chunk>());
            spare_.back()->slots.reserve(kChunkIds);
        }
        chunks_.push_back(std::move(spare_.back()));
        spare_.pop_back();
    }
    Chunk &chunk = *chunks_.back();
    assert(chunk.slots.size() == size_t(id - base_) % kChunkIds);
    ++chunk.live;
    ++live_;
    return *chunk.slots.emplace_back(std::in_place, id, model, submit,
                                     std::move(compiled));
}

JobEntry *
JobTable::find(cluster::JobId id)
{
    return const_cast<JobEntry *>(std::as_const(*this).find(id));
}

const JobEntry *
JobTable::find(cluster::JobId id) const
{
    const size_t k = size_t(id - base_) / kChunkIds;
    if (id < base_ || k >= chunks_.size() || !chunks_[k])
        return nullptr;
    const auto &slots = chunks_[k]->slots;
    const size_t slot = size_t(id - base_) % kChunkIds;
    return slot < slots.size() && slots[slot] ? &*slots[slot] : nullptr;
}

void
JobTable::retire(cluster::JobId id)
{
    assert(find(id));
    auto &chunk = chunks_[size_t(id - base_) / kChunkIds];
    chunk->slots[size_t(id - base_) % kChunkIds].reset();
    --live_;
    if (--chunk->live > 0 || chunk->slots.size() < kChunkIds)
        return;
    chunk->slots.clear(); // every id retired: recycle the storage
    spare_.push_back(std::move(chunk));
    while (!chunks_.empty() && !chunks_.front()) {
        chunks_.pop_front();
        base_ += kChunkIds;
    }
}

} // namespace tacc::core
