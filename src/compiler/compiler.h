/**
 * @file
 * Compiler Layer (layer 2 of the TACC workflow abstraction).
 *
 * The compiler turns a validated TaskSpec into an execution-ready
 * TaskInstruction: it resolves which runtime system will host the task
 * (Table 1's static-characteristics factor), builds the artifact transfer
 * plan against the delta cache, and prices the provisioning latency that
 * the simulation charges before the task becomes schedulable.
 */
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "compiler/chunk_store.h"
#include "workload/task_spec.h"

namespace tacc::compiler {

/** Concrete runtime system chosen for a task. */
enum class RuntimeKind { kBareMetal, kContainer };

const char *runtime_kind_name(RuntimeKind kind);

/** Execution-ready output of the compiler layer for one task. */
struct TaskInstruction {
    workload::TaskSpec spec;
    RuntimeKind runtime = RuntimeKind::kContainer;

    // Transfer plan accounting.
    uint64_t total_bytes = 0;       ///< full instruction size
    uint64_t transferred_bytes = 0; ///< bytes actually moved (cache misses)
    uint64_t cached_bytes = 0;      ///< bytes served from the delta cache
    size_t chunk_count = 0;
    size_t chunk_hits = 0;

    /** End-to-end provisioning latency charged to the task. */
    Duration provision_time;

    double
    cache_hit_ratio() const
    {
        return total_bytes
                   ? double(cached_bytes) / double(total_bytes)
                   : 0.0;
    }
};

/** Tunables of the compiler layer. */
struct CompilerConfig {
    /** Ingest bandwidth for missing artifact bytes (per task). */
    double ingest_gbps = 10.0;
    /** Fixed schema-parse/scaffold cost per task. */
    Duration fixed_overhead = Duration::seconds(2);
    /** Extra cost to assemble a container image (cold). */
    Duration container_build = Duration::seconds(20);
    /** Container assembly when every layer is already cached. */
    Duration container_build_cached = Duration::seconds(3);
    /** Chunking granularity of the delta cache. */
    uint64_t chunk_bytes = 4ull * 1024 * 1024;
    /** Fraction of chunks rewritten per artifact version bump. */
    double delta_fraction = 0.05;
    /** Cache capacity (0 = unbounded). */
    uint64_t cache_capacity_bytes = 0;
    /** Master switch; off = every byte transfers every time. */
    bool cache_enabled = true;
    /** Tasks at least this large default to the container runtime. */
    uint64_t container_threshold_bytes = 256ull * 1024 * 1024;
};

/** Cumulative compiler-layer statistics. */
struct CompilerStats {
    uint64_t tasks_compiled = 0;
    uint64_t bytes_total = 0;
    uint64_t bytes_transferred = 0;
    uint64_t bytes_cached = 0;
    double provision_seconds_total = 0;

    double
    mean_provision_s() const
    {
        return tasks_compiled ? provision_seconds_total /
                                    double(tasks_compiled)
                              : 0.0;
    }
    double
    transfer_savings() const
    {
        return bytes_total
                   ? 1.0 - double(bytes_transferred) / double(bytes_total)
                   : 0.0;
    }
};

/** The compiler layer: stateful because of its delta cache. */
class Compiler
{
  public:
    explicit Compiler(CompilerConfig config = {});

    /**
     * Compiles a spec into a TaskInstruction, consulting and updating the
     * delta cache. Fails with invalid_argument on a bad spec or not_found
     * on an unknown model.
     */
    StatusOr<TaskInstruction> compile(const workload::TaskSpec &spec);

    const CompilerConfig &config() const { return config_; }
    const CompilerStats &stats() const { return stats_; }
    const ChunkStore &cache() const { return cache_; }

    /** Drops all cached chunks (cold-start experiments). */
    void clear_cache();

    /** Cache storage recycling between runs (see core::StackArena). */
    void adopt_cache_storage(ChunkStore::Storage &&storage)
    {
        cache_.adopt_storage(std::move(storage));
    }
    ChunkStore::Storage release_cache_storage()
    {
        return cache_.release_storage();
    }

  private:
    /** The chunk plan of one artifact version; `run` names it in the
     *  cache for the name's lifetime. */
    struct ChunkPlan {
        uint64_t version = 0;
        uint64_t bytes = 0; ///< the chunks' byte total
        RunId run = 0;
        std::vector<ChunkRef> chunks;
    };

    RuntimeKind resolve_runtime(const workload::TaskSpec &spec,
                                uint64_t total_bytes) const;

    /** The artifact's chunk plan, re-derived (and its run dissolved)
     *  only when its version or size differs from the name's latest
     *  plan. */
    const ChunkPlan &plan_of(const workload::Artifact &artifact);

    CompilerConfig config_;
    ChunkStore cache_;
    CompilerStats stats_;
    /** Latest plan per artifact name: bounded by the distinct names (code
     *  trees, images, datasets), not by the number of compiles. */
    std::unordered_map<std::string, ChunkPlan> plans_;
};

} // namespace tacc::compiler
