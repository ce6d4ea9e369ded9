/**
 * @file
 * JobTable: one id-indexed record per job.
 *
 * A job moves through the paper's four layers (task spec, compiled
 * instruction, scheduled job, execution); the stack keeps each layer's
 * per-job state as a field of one JobEntry. Ids are dense and assigned in
 * submission order, so the table is a slab indexed by `id - base`: chunks
 * of kChunkIds consecutive ids, each reserved up front, so a record (and
 * its Job*) never moves while it is live. retire() destroys a record
 * (streaming mode); a chunk whose ids all retired is recycled for the
 * next ids, and retired chunks at the front advance `base` (the
 * retirement watermark). A long-lived job pins only its own chunk.
 */
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "compiler/compiler.h"
#include "core/metrics.h"
#include "sim/simulator.h"
#include "workload/job.h"

namespace tacc::core {

/** Where a live job is in the stack. Finer than JobState: a kPending
 *  job is held, backing off or queued. */
enum class Stage : uint8_t {
    kProvisioning, ///< `event` is its provision-done
    kHeld,         ///< provisioned; waits on `unmet_deps` parents
    kBackoff,      ///< `event` is its requeue-backoff
    kQueued,       ///< in the pending view
    kRunning,      ///< in the running view; `event` ends the segment
    kDone,         ///< terminal (batch mode keeps the record)
};

/** Everything the stack knows about one job. */
struct JobEntry {
    /** The compiled instruction's spec moves into the job. */
    JobEntry(cluster::JobId id, const workload::ModelProfile &model,
             TimePoint submit, compiler::TaskInstruction compiled)
        : job(id, std::move(compiled.spec), model, submit),
          instruction(std::move(compiled))
    {
    }

    workload::Job job;
    /** The compiler's output; its spec lives on as job.spec(). */
    compiler::TaskInstruction instruction;
    Stage stage = Stage::kProvisioning;
    sim::EventId event = 0; ///< see Stage; 0 when none

    /** @name The running segment (empty placement when not running) */
    ///@{
    cluster::Placement placement; ///< what the cluster granted
    TimePoint expected_end;
    double iteration_s = 0;
    compiler::RuntimeKind runtime = compiler::RuntimeKind::kContainer;
    ///@}

    int unmet_deps = 0; ///< distinct unfinished parents
    /** Jobs that named this one as a parent while it was unfinished. */
    std::vector<cluster::JobId> dependents;

    /** @name Accounting */
    ///@{
    double charged_gpu_s = 0;    ///< already charged to group usage
    double fault_lost_gpu_s = 0; ///< destroyed by faults
    /** Last fault kill, sampled as requeue latency at the next start. */
    std::optional<TimePoint> requeue_killed_at;
    /** Fold of every granted placement (MetricsCollector::fold_placement). */
    uint64_t placement_digest = MetricsCollector::kPlacementBasis;
    bool serve_replica = false; ///< backs a serving-plane replica
    ///@}
};

/** Dense id-indexed slab of JobEntries (see the file comment). */
class JobTable
{
  public:
    static constexpr size_t kChunkIds = 64;

    /** Adds the record of the next id (ids arrive in order). */
    JobEntry &emplace(cluster::JobId id, const workload::ModelProfile &model,
                      TimePoint submit, compiler::TaskInstruction compiled);
    /** The live record of `id`, or null (never assigned, or retired). */
    JobEntry *find(cluster::JobId id);
    const JobEntry *find(cluster::JobId id) const;
    /** Destroys a live record. */
    void retire(cluster::JobId id);
    /** Live records. */
    size_t size() const { return live_; }

    /** Calls f(record) for every live record in id order. */
    template <class F>
    void
    for_each(F &&f) const
    {
        for (const auto &chunk : chunks_) {
            for (size_t i = 0; chunk && i < chunk->slots.size(); ++i) {
                if (chunk->slots[i])
                    f(*chunk->slots[i]);
            }
        }
    }

  private:
    struct Chunk {
        std::vector<std::optional<JobEntry>> slots;
        size_t live = 0;
    };
    /** chunks_[k] holds ids from base_ + k * kChunkIds; null once all of
     *  them retired. */
    std::deque<std::unique_ptr<Chunk>> chunks_;
    std::vector<std::unique_ptr<Chunk>> spare_;
    cluster::JobId base_ = 1;
    size_t live_ = 0;
};

} // namespace tacc::core
