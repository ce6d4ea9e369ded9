#include "compiler/compiler.h"

#include <cassert>

#include "workload/model.h"

namespace tacc::compiler {

const char *
runtime_kind_name(RuntimeKind kind)
{
    switch (kind) {
      case RuntimeKind::kBareMetal: return "baremetal";
      case RuntimeKind::kContainer: return "container";
    }
    return "unknown";
}

Compiler::Compiler(CompilerConfig config)
    : config_(config), cache_(config.cache_capacity_bytes)
{
    assert(config_.ingest_gbps > 0);
    assert(config_.chunk_bytes > 0);
    assert(config_.chunk_bytes <= UINT32_MAX);
}

RuntimeKind
Compiler::resolve_runtime(const workload::TaskSpec &spec,
                          uint64_t total_bytes) const
{
    switch (spec.runtime) {
      case workload::RuntimePref::kBareMetal:
        return RuntimeKind::kBareMetal;
      case workload::RuntimePref::kContainer:
        return RuntimeKind::kContainer;
      case workload::RuntimePref::kAuto:
        // Table 1, "static characteristic: task size": small tasks run as
        // plain commands on bare metal; large dependency sets ship as
        // container images.
        return total_bytes >= config_.container_threshold_bytes
                   ? RuntimeKind::kContainer
                   : RuntimeKind::kBareMetal;
    }
    return RuntimeKind::kContainer;
}

const Compiler::ChunkPlan &
Compiler::plan_of(const workload::Artifact &artifact)
{
    auto [it, fresh] = plans_.try_emplace(artifact.name);
    ChunkPlan &plan = it->second;
    if (fresh) {
        plan.run = cache_.add_run();
    } else if (plan.version == artifact.version &&
               plan.bytes == artifact.bytes) {
        return plan;
    }
    cache_.dissolve_run(plan.run);
    plan.version = artifact.version;
    plan.bytes = artifact.bytes;
    plan.chunks = chunk_artifact(artifact, config_.chunk_bytes,
                                 config_.delta_fraction);
    return plan;
}

StatusOr<TaskInstruction>
Compiler::compile(const workload::TaskSpec &spec)
{
    if (auto s = spec.validate(); !s.is_ok())
        return s;
    if (!workload::ModelCatalog::instance().contains(spec.model))
        return Status::not_found("unknown model: " + spec.model);

    TaskInstruction out;
    out.spec = spec;

    for (const auto &artifact : spec.artifacts) {
        // A plan's chunks sum to its artifact's bytes.
        const ChunkPlan &plan = plan_of(artifact);
        ChunkStore::PlanHits hits;
        if (config_.cache_enabled)
            hits = cache_.touch_plan(plan.run, plan.chunks, plan.bytes);
        out.total_bytes += plan.bytes;
        out.chunk_count += plan.chunks.size();
        out.cached_bytes += hits.bytes;
        out.chunk_hits += hits.chunks;
        out.transferred_bytes += plan.bytes - hits.bytes;
    }

    out.runtime = resolve_runtime(spec, out.total_bytes);

    const double ingest_Bps = config_.ingest_gbps * 1e9 / 8.0;
    Duration provision =
        config_.fixed_overhead +
        Duration::from_seconds(double(out.transferred_bytes) / ingest_Bps);
    if (out.runtime == RuntimeKind::kContainer) {
        // Image assembly is itself delta-cached: a fully warm instruction
        // reuses the existing image layers.
        const bool warm = out.transferred_bytes == 0;
        provision += warm ? config_.container_build_cached
                          : config_.container_build;
    }
    out.provision_time = provision;

    ++stats_.tasks_compiled;
    stats_.bytes_total += out.total_bytes;
    stats_.bytes_transferred += out.transferred_bytes;
    stats_.bytes_cached += out.cached_bytes;
    stats_.provision_seconds_total += provision.to_seconds();
    return out;
}

void
Compiler::clear_cache()
{
    cache_.clear();
}

} // namespace tacc::compiler
