/**
 * @file
 * T12 — Simulation-core throughput (google-benchmark).
 *
 * Measures the discrete-event engine in isolation and the full stack
 * end-to-end, bounding how fast a campus-scale trace can be replayed:
 *
 *  - raw event throughput (schedule + fire) at shallow and deep queues;
 *  - steady-state churn (every fired event schedules a successor), the
 *    access pattern of segment-completion events;
 *  - cancel-heavy workloads (schedule, cancel, reschedule), the access
 *    pattern of preemption and kill paths;
 *  - periodic-task re-arming (scheduler ticks);
 *  - end-to-end trace replay through TaccStack (simulated jobs per wall
 *    second), and trace generation alone;
 *  - one cluster allocate + release;
 *  - the compiler layer: chunking one artifact, and one compile cold
 *    (empty cache) and warm at 4 and 64 MiB chunks, where every
 *    resident plan moves as one LRU run;
 *  - the deep-queue read paths: a tcloud reader's 8 status ETAs at one
 *    stack state (one arrival-order walk, then table reads), and one
 *    runtime prediction from a warm regress key;
 *  - the ops layer per sample instant: inside a quiet run of instants
 *    (one append for the run) and alone (the instant an outside step
 *    or an event next to it leaves), each with its share of a chunk's
 *    recording;
 *  - one energy-ledger advance over 64 and 512 active segments.
 *
 * Run with --benchmark_format=json to emit the machine-readable series
 * recorded in EXPERIMENTS.md (baseline vs. optimized engine).
 */
#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "compiler/chunk_store.h"
#include "compiler/compiler.h"
#include "core/scenario.h"
#include "core/stack.h"
#include "ops/ops_center.h"
#include "power/power_manager.h"
#include "predict/runtime_model.h"
#include "sim/simulator.h"
#include "workload/model.h"
#include "workload/trace.h"

using namespace tacc;

namespace {

/** Deterministic pseudo-random delay spread, cheap enough to not skew
 *  the measurement (multiplicative hash, no modulo chains). */
inline Duration
spread_delay(uint64_t i)
{
    const uint64_t h = (i * 0x9E3779B97F4A7C15ull) >> 40;
    return Duration::micros(int64_t(h));
}

/** Schedule `depth` events, then drain the queue. */
void
BM_RawEventThroughput(benchmark::State &state)
{
    const int depth = int(state.range(0));
    for (auto _ : state) {
        sim::Simulator sim;
        for (int i = 0; i < depth; ++i)
            sim.schedule_after(spread_delay(uint64_t(i)), "event", [] {});
        sim.run();
        benchmark::DoNotOptimize(sim.processed());
    }
    state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_RawEventThroughput)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/**
 * Steady-state churn: a fixed window of pending events where every fired
 * event schedules its successor — the segment-completion access pattern.
 */
void
BM_SteadyStateChurn(benchmark::State &state)
{
    const int window = int(state.range(0));
    const int64_t fires = 200000;
    for (auto _ : state) {
        sim::Simulator sim;
        int64_t remaining = fires;
        std::function<void()> chain = [&] {
            if (--remaining > 0) {
                sim.schedule_after(spread_delay(uint64_t(remaining)),
                                   "chain", chain);
            }
        };
        for (int i = 0; i < window; ++i)
            sim.schedule_after(spread_delay(uint64_t(i)), "chain", chain);
        sim.run();
        benchmark::DoNotOptimize(sim.processed());
    }
    state.SetItemsProcessed(state.iterations() * fires);
}
BENCHMARK(BM_SteadyStateChurn)->Arg(64)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/**
 * Cancel-heavy: schedule a batch, cancel it all, re-schedule, with a live
 * backlog in the queue — the preemption / kill / re-queue access pattern.
 */
void
BM_CancelHeavy(benchmark::State &state)
{
    const int batch = int(state.range(0));
    std::vector<sim::EventId> ids;
    ids.resize(size_t(batch));
    for (auto _ : state) {
        sim::Simulator sim;
        // A backlog the cancelled entries interleave with.
        for (int i = 0; i < batch; ++i) {
            sim.schedule_after(spread_delay(uint64_t(i)) +
                                   Duration::hours(1),
                               "backlog", [] {});
        }
        for (int round = 0; round < 8; ++round) {
            for (int i = 0; i < batch; ++i) {
                ids[size_t(i)] = sim.schedule_after(
                    spread_delay(uint64_t(i)), "victim", [] {});
            }
            for (int i = 0; i < batch; ++i)
                sim.cancel(ids[size_t(i)]);
            benchmark::DoNotOptimize(sim.next_event_time());
        }
        sim.run();
        benchmark::DoNotOptimize(sim.processed());
    }
    state.SetItemsProcessed(state.iterations() * batch * 8);
}
BENCHMARK(BM_CancelHeavy)->Arg(1000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

/** Periodic re-arming: scheduler-tick shaped load. */
void
BM_PeriodicTasks(benchmark::State &state)
{
    const int tasks = int(state.range(0));
    const int64_t horizon_s = 1000;
    for (auto _ : state) {
        sim::Simulator sim;
        std::vector<std::unique_ptr<sim::PeriodicTask>> periodic;
        periodic.reserve(size_t(tasks));
        for (int i = 0; i < tasks; ++i) {
            periodic.push_back(std::make_unique<sim::PeriodicTask>(
                sim, Duration::seconds(1 + i % 7), "tick", [] {}));
            periodic.back()->start();
        }
        sim.run_until(TimePoint::origin() + Duration::seconds(horizon_s));
        benchmark::DoNotOptimize(sim.processed());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PeriodicTasks)->Arg(100)->Unit(benchmark::kMillisecond);

/**
 * End-to-end replay throughput: simulated jobs per wall second through the
 * full stack (compiler, scheduler, placement, execution, monitoring).
 */
void
BM_TraceReplay(benchmark::State &state)
{
    const int jobs = int(state.range(0));
    for (auto _ : state) {
        core::ScenarioConfig config;
        config.stack.cluster.topology.racks = 4;
        config.stack.cluster.topology.nodes_per_rack = 8;
        config.stack.scheduler = "fairshare";
        config.stack.emit_monitor_logs = false;
        config.trace.num_jobs = bench::capped_jobs(jobs);
        config.trace.seed = 42;
        config.trace.mean_interarrival_s = 120.0;
        config.trace.gpu_demand_pmf = {
            {1, 0.5}, {2, 0.2}, {4, 0.15}, {8, 0.1}, {16, 0.05}};
        auto result = core::run_scenario(config);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_TraceReplay)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

/** Workload synthesis alone: range(0) jobs from the default trace
 *  generator (arrivals, specs, artifacts). */
void
BM_TraceGeneration(benchmark::State &state)
{
    workload::TraceConfig config;
    config.num_jobs = bench::capped_jobs(int(state.range(0)));
    for (auto _ : state) {
        workload::TraceGenerator generator(config);
        auto trace = generator.generate();
        benchmark::DoNotOptimize(trace);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(1000)->Unit(benchmark::kMillisecond);

/** One allocate + release of a 4-node, 32-GPU placement on a cluster
 *  of range(0) nodes. */
void
BM_ClusterAllocateRelease(benchmark::State &state)
{
    cluster::ClusterConfig config;
    config.topology.racks = int(state.range(0)) / 8;
    config.topology.nodes_per_rack = 8;
    cluster::Cluster cluster(config);
    cluster::Placement p;
    for (cluster::NodeId n = 0; n < 4; ++n) {
        cluster::PlacementSlice slice;
        slice.node = n;
        slice.gpu_indices.resize(8, 0);
        p.slices.push_back(slice);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(cluster.allocate(1, p));
        benchmark::DoNotOptimize(cluster.release(1));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterAllocateRelease)->Arg(32)->Arg(256);

/** Chunking a 2.2 GB artifact at 4 MiB, range(0) versions deep. */
void
BM_ChunkArtifact(benchmark::State &state)
{
    workload::Artifact artifact{"deps/torch", 2'200'000'000ULL,
                                uint64_t(state.range(0))};
    for (auto _ : state) {
        auto chunks =
            compiler::chunk_artifact(artifact, 4 * 1024 * 1024, 0.05);
        benchmark::DoNotOptimize(chunks);
    }
}
BENCHMARK(BM_ChunkArtifact)->Arg(1)->Arg(16)
    ->Unit(benchmark::kMillisecond);

/** The trace generator's first spec: a user's code tree, the image's
 *  2.2 GB deps and the group's 18 GB dataset. */
workload::TaskSpec
trace_spec()
{
    workload::TraceConfig config;
    config.num_jobs = 1;
    config.seed = 42;
    return workload::TraceGenerator(config).generate().front().spec;
}

/** A compile into an empty cache: every plan derived, every chunk
 *  missed and inserted. */
void
BM_CompileCold(benchmark::State &state)
{
    const workload::TaskSpec spec = trace_spec();
    for (auto _ : state) {
        compiler::Compiler compiler;
        auto out = compiler.compile(spec);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileCold)->Unit(benchmark::kMicrosecond);

/** The same spec compiled again at range(0) MiB chunks: all hits. */
void
BM_CompileWarm(benchmark::State &state)
{
    compiler::CompilerConfig config;
    config.chunk_bytes = uint64_t(state.range(0)) << 20;
    compiler::Compiler compiler(config);
    const workload::TaskSpec spec = trace_spec();
    (void)compiler.compile(spec);
    for (auto _ : state) {
        auto out = compiler.compile(spec);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileWarm)->Arg(4)->Arg(64)->Unit(benchmark::kMicrosecond);

/** The reference 256-GPU stack held full by 32 long 8-GPU jobs, with
 *  range(0) more jobs queued behind them (1-16 GPUs, 1-24 h limits). */
std::unique_ptr<core::TaccStack>
deep_queue(int depth)
{
    core::StackConfig config = bench::default_stack();
    config.ops.enabled = false;
    auto stack = std::make_unique<core::TaccStack>(config);
    workload::TaskSpec spec = trace_spec();
    spec.iterations = 1'000'000'000;
    spec.gpus = 8;
    spec.time_limit = Duration::days(30);
    for (int i = 0; i < 32; ++i)
        (void)stack->submit(spec);
    stack->run_until(stack->simulator().now() + Duration::hours(1));
    static const int kGpus[] = {1, 2, 1, 4, 8, 1, 2, 16};
    for (int i = 0; i < depth; ++i) {
        spec.gpus = kGpus[i % 8];
        spec.time_limit = Duration::hours(1 + (i * 7) % 24);
        (void)stack->submit(spec);
    }
    stack->run_until(stack->simulator().now() + Duration::hours(1));
    return stack;
}

/**
 * The tcloud reader's round on a deep queue: 8 status ETAs spread
 * evenly through range(0) queued jobs, all at one instant. Each
 * iteration moves the clock by 1 us first, so every round prices a new
 * stack state.
 */
void
BM_EstimatedStart(benchmark::State &state)
{
    const int depth = int(state.range(0));
    auto stack = deep_queue(depth);
    // Every queued job arrived at one instant, so id order is the
    // queue's arrival order.
    std::vector<cluster::JobId> pending;
    for (const workload::Job *job : stack->jobs()) {
        if (job->state() == workload::JobState::kPending)
            pending.push_back(job->id());
    }
    if (pending.size() != size_t(depth)) {
        state.SkipWithError("the queue did not build");
        return;
    }
    std::vector<cluster::JobId> targets;
    for (size_t i = 0; i < 8; ++i)
        targets.push_back(pending[i * (pending.size() - 1) / 7]);
    for (auto _ : state) {
        stack->run_until(stack->simulator().now() + Duration::micros(1));
        for (cluster::JobId id : targets) {
            auto eta = stack->estimated_start(id);
            benchmark::DoNotOptimize(eta);
        }
    }
    state.SetItemsProcessed(state.iterations() * int64_t(targets.size()));
}
BENCHMARK(BM_EstimatedStart)->Arg(64)->Arg(600)
    ->Unit(benchmark::kMicrosecond);

/**
 * The reference stack with ops on and the default 24 series and 9
 * rules: six short jobs, one per group, finish and are charged (six
 * group-share series beside the stack's 18), then 32 long jobs fill
 * the cluster and 16 more wait behind them.
 */
std::unique_ptr<core::TaccStack>
ops_stack()
{
    auto stack = std::make_unique<core::TaccStack>(bench::default_stack());
    workload::TaskSpec spec = trace_spec();
    spec.gpus = 8;
    for (int i = 0; i < 6; ++i) {
        spec.group = "group" + std::to_string(i);
        (void)stack->submit(spec);
    }
    stack->run_until(stack->simulator().now() + Duration::days(1));
    spec.iterations = 1'000'000'000;
    spec.time_limit = Duration::days(30);
    for (int i = 0; i < 48; ++i) {
        spec.group = "group" + std::to_string(i % 6);
        (void)stack->submit(spec);
    }
    stack->run_until(stack->simulator().now() + Duration::hours(1));
    return stack;
}

/**
 * Ops cost per sample instant when range(0) instants pass with no event
 * between them: one append for the whole run, as the stack's run loops
 * give it, with the recording of each full chunk of 64 instants
 * amortized over them (items = instants).
 */
void
BM_OpsQuietGap(benchmark::State &state)
{
    auto stack = ops_stack();
    ops::OpsCenter &ops = *stack->ops();
    if (ops.store().series_count() != 24 || ops.alerts().rule_count() != 9) {
        state.SkipWithError("expected 24 series and 9 rules");
        return;
    }
    const size_t k = size_t(state.range(0));
    const Duration period = ops.config().sample_period;
    TimePoint t = stack->simulator().now() + period;
    for (auto _ : state) {
        ops.append(t, k);
        benchmark::DoNotOptimize(&ops);
        benchmark::ClobberMemory();
        t += int64_t(k) * period;
    }
    state.SetItemsProcessed(state.iterations() * int64_t(k));
}
BENCHMARK(BM_OpsQuietGap)->Arg(29)->Unit(benchmark::kMicrosecond);

/**
 * The price of one appended instant with an event on each side (an
 * outside step, or an instant right before an event): its values are
 * read at the instant, and the recording of each full chunk of 64
 * instants is amortized over them.
 */
void
BM_OpsBusySample(benchmark::State &state)
{
    auto stack = ops_stack();
    ops::OpsCenter &ops = *stack->ops();
    const Duration period = ops.config().sample_period;
    TimePoint t = stack->simulator().now() + period;
    for (auto _ : state) {
        ops.append(t);
        benchmark::DoNotOptimize(&ops);
        benchmark::ClobberMemory();
        t += period;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpsBusySample)->Unit(benchmark::kMicrosecond);

/**
 * One energy-ledger advance with range(0) active segments (1 GPU each,
 * every fourth at a DVFS clock, 16 groups) on a 64-node cluster: the
 * walk the power source and every segment start and stop make.
 */
void
BM_PowerAdvance(benchmark::State &state)
{
    cluster::ClusterConfig config;
    config.topology.racks = 8;
    config.topology.nodes_per_rack = 8;
    const cluster::Cluster cl(config);
    power::PowerConfig power;
    power.enabled = true;
    power.policy = "dvfs";
    power::PowerManager pm(cl, power);
    const int segments = int(state.range(0));
    const int nodes = cl.node_count();
    TimePoint t = TimePoint::origin();
    for (int i = 0; i < segments; ++i) {
        cluster::Placement placement;
        cluster::PlacementSlice slice;
        slice.node = cluster::NodeId(i % nodes);
        slice.gpu_indices.push_back(i / nodes % 8);
        placement.slices.push_back(std::move(slice));
        pm.on_segment_start(cluster::JobId(i + 1),
                            "group" + std::to_string(i % 16), placement,
                            0.9, i % 4 == 0 ? 0.8 : 1.0, t);
    }
    for (auto _ : state) {
        t += Duration::seconds(1);
        pm.advance(t);
        benchmark::DoNotOptimize(pm.energy_kwh());
    }
    state.SetItemsProcessed(state.iterations() * segments);
}
BENCHMARK(BM_PowerAdvance)->Arg(64)->Arg(512);

/** One runtime prediction from a warm regress key (64 completions). */
void
BM_RuntimePredict(benchmark::State &state)
{
    predict::PredictConfig config;
    config.enabled = true;
    config.mode = predict::EstimatorMode::kRegress;
    predict::RuntimeModel model(config);
    workload::TaskSpec spec = trace_spec();
    auto profile = workload::ModelCatalog::instance().find(spec.model);
    for (int i = 0; i < 64; ++i) {
        spec.gpus = 1 << (i % 4);
        spec.iterations = 1000 + 250 * (i % 7);
        workload::Job job(cluster::JobId(i + 1), spec, profile.value(),
                          TimePoint::origin());
        (void)job.begin_provisioning(TimePoint::origin());
        (void)job.finish_provisioning(TimePoint::origin());
        const double iter_s = 0.5 + 0.1 * double(spec.gpus);
        (void)job.begin_segment(TimePoint::origin(), spec.gpus, iter_s);
        (void)job.complete(TimePoint::origin() +
                           job.remaining_runtime(iter_s));
        model.observe(job);
    }
    spec.gpus = 4;
    spec.iterations = 1800;
    const workload::Job queued(cluster::JobId(1000), spec, profile.value(),
                               TimePoint::origin());
    for (auto _ : state) {
        Duration bound = model.predict(queued);
        benchmark::DoNotOptimize(bound);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimePredict);

} // namespace

BENCHMARK_MAIN();
