/**
 * @file
 * Ops golden: the operations layer's whole output, pinned per scenario.
 *
 * Each scenario runs a full stack and folds into one FNV-1a digest every
 * series' raw, minute and hour contents (open buckets included), the
 * series names in id order, the alert incidents, the operator report
 * and the sample count. The digests in tests/goldens/ops_digests.txt
 * pin when and against what state every sample is taken: the
 * same-instant order of samples and events, samples flushed by
 * run_until slices, clock-reading sources and the final quiesce-instant
 * sample. A change that moves one is a behaviour change of the ops
 * layer and must say so.
 *
 * On a mismatch the test prints every scenario's digest in the golden
 * file's format.
 *
 * The same scenarios also pin that the digest does not depend on who
 * drives the run or reads the ops layer: the stack's run loops take a
 * quiet run of sample instants in one append, an outside step takes
 * one instant, readers record the pending chunk, and a change made from
 * outside between two steps shows in the next sample.
 */
#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/stack.h"
#include "driver/sweep.h"
#include "ops/ops_center.h"
#include "tcloud/client.h"
#include "workload/stream.h"
#include "workload/trace.h"

namespace tacc {
namespace {

const std::string kSourceDir = TACC_SOURCE_DIR;

void
fold_double(Fnv1a &h, double v)
{
    h.u64(std::bit_cast<uint64_t>(v));
}

/** Folds everything the ops layer of `stack` holds and reports. */
void
fold_ops(Fnv1a &h, const core::TaccStack &stack)
{
    const ops::OpsCenter *ops = stack.ops();
    ASSERT_NE(ops, nullptr);
    h.u64(ops->samples_taken());
    const ops::MetricStore &store = ops->store();
    h.u64(store.series_count());
    for (ops::SeriesId id = 0; size_t(id) < store.series_count(); ++id) {
        h.str(store.name_of(id));
        h.byte(uint8_t(store.kind_of(id)));
        for (const ops::Resolution res :
             {ops::Resolution::kRaw, ops::Resolution::kMinute,
              ops::Resolution::kHour}) {
            const auto points =
                store.range(id, TimePoint::origin(), TimePoint::max(), res);
            h.u64(points.size());
            for (const ops::RollupPoint &p : points) {
                h.i64(p.start.to_micros());
                fold_double(h, p.min);
                fold_double(h, p.max);
                fold_double(h, p.sum);
                fold_double(h, p.last);
                h.u64(p.count);
            }
        }
    }
    const auto &incidents = ops->alerts().incidents();
    h.u64(incidents.size());
    for (const ops::AlertIncident &incident : incidents) {
        h.str(incident.rule);
        h.byte(uint8_t(incident.severity));
        h.i64(incident.fired_at.to_micros());
        h.i64(incident.resolved_at.to_micros());
        fold_double(h, incident.peak);
    }
    h.str(stack.operator_report());
}

uint64_t
ops_digest(const core::TaccStack &stack)
{
    Fnv1a h;
    fold_ops(h, stack);
    return h.value();
}

/** A stack built the way run_scenario builds one, kept for inspection. */
struct Run {
    explicit Run(const core::ScenarioConfig &config)
        : stream(config.trace)
    {
        core::StackConfig stack_config = config.stack;
        stack_config.streaming = config.streaming;
        stack = std::make_unique<core::TaccStack>(std::move(stack_config));
        if (config.streaming)
            stack->submit_stream(stream, config.stream_window);
        else
            stack->submit_trace(workload::TraceGenerator(config.trace)
                                    .generate());
    }

    /** A stack of its own configuration, fed a fixed trace. */
    Run(const core::StackConfig &config,
        const std::vector<workload::SubmittedTask> &trace)
        : stream(workload::TraceConfig{})
    {
        stack = std::make_unique<core::TaccStack>(config);
        stack->submit_trace(trace);
    }

    workload::SyntheticWorkloadStream stream;
    std::unique_ptr<core::TaccStack> stack;
};

uint64_t
digest_to_completion(Run &run)
{
    EXPECT_TRUE(run.stack->run_to_completion());
    return ops_digest(*run.stack);
}

std::vector<driver::SweepScenario>
ci_grid()
{
    auto spec = driver::load_sweep_spec(kSourceDir +
                                        "/tests/goldens/ci_sweep.spec");
    EXPECT_TRUE(spec.is_ok()) << spec.status().str();
    return spec.is_ok() ? driver::expand_sweep(spec.value())
                        : std::vector<driver::SweepScenario>{};
}

/** Power-capped, serving, regress-prediction crisis configuration. */
core::ScenarioConfig
crisis_config(core::ScenarioConfig config)
{
    auto &stack_config = config.stack;
    stack_config.scheduler = "backfill-easy";
    Status status = driver::apply_fault_mode("storm", &stack_config);
    if (status.is_ok())
        status = driver::apply_power_mode(60000, "dvfs", &stack_config);
    if (status.is_ok())
        status = driver::apply_serve_mode("robust", 3.0, &stack_config);
    if (status.is_ok())
        status = driver::apply_estimator_mode("regress", 1.0, &stack_config);
    EXPECT_TRUE(status.is_ok()) << status.str();
    config.trace.num_jobs = 150;
    config.trace.mean_interarrival_s = 90.0 / 1.4;
    return config;
}

/**
 * The crisis run advanced by run_until in 600 s slices with tcloud
 * status and report calls between slices, then drained.
 */
uint64_t
sliced_crisis_digest(Run &run)
{
    core::TaccStack &stack = *run.stack;
    tcloud::Client client;
    EXPECT_TRUE(client.add_cluster(stack.config().cluster.name, &stack)
                    .is_ok());
    Fnv1a h;
    const TimePoint until = TimePoint::origin() + Duration::hours(4);
    for (TimePoint t = TimePoint::origin() + Duration::seconds(600);
         t < until; t += Duration::seconds(600)) {
        stack.run_until(t);
        for (const auto *job : stack.jobs()) {
            if (job->id() % 7 != 0)
                continue;
            EXPECT_TRUE(
                client.status({stack.config().cluster.name, job->id()})
                    .is_ok());
        }
        auto report = client.operator_report();
        EXPECT_TRUE(report.is_ok());
        if (report.is_ok())
            h.str(report.value());
    }
    EXPECT_TRUE(stack.run_to_completion());
    fold_ops(h, stack);
    return h.value();
}

workload::TaskSpec
tie_spec(int i)
{
    workload::TaskSpec s;
    s.name = "tie" + std::to_string(i);
    s.user = i % 3 == 0 ? "alice" : "bob";
    s.group = i % 2 == 0 ? "lab" : "vision";
    s.model = "resnet50";
    const int gpus[5] = {1, 2, 4, 8, 16};
    s.gpus = gpus[i % 5];
    s.iterations = 40000 + 17000 * (i % 9);
    return s;
}

/**
 * Arrivals on exact multiples of the 30 s sample period (two at some
 * instants) under a scheduler whose 5-minute tick also lands on sample
 * instants: every same-instant order of sample and event shows.
 */
std::unique_ptr<Run>
tie_run()
{
    core::StackConfig config;
    config.cluster.topology.racks = 1;
    config.cluster.topology.nodes_per_rack = 4;
    config.cluster.node.gpu_count = 8;
    config.scheduler = "las";
    config.placement = "pack";
    std::vector<workload::SubmittedTask> trace;
    for (int i = 0; i < 48; ++i) {
        const int64_t slot = 1 + i - i / 3; // every third shares a slot
        trace.push_back({TimePoint::origin() + Duration::seconds(30 * slot),
                         tie_spec(i)});
    }
    return std::make_unique<Run>(config, trace);
}

/** One golden scenario: its name and a fresh stack, ready to run. */
struct Scenario {
    std::string name;
    std::function<std::unique_ptr<Run>()> make;
};

std::vector<Scenario>
golden_scenarios()
{
    std::vector<Scenario> out;
    const auto grid = ci_grid();
    EXPECT_EQ(grid.size(), 64u);
    if (grid.size() != 64u)
        return out;
    auto from = [](core::ScenarioConfig config) {
        return [config] { return std::make_unique<Run>(config); };
    };
    // Four fault-free points, then four storm points.
    for (const size_t i : {0, 9, 18, 27, 36, 45, 54, 63})
        out.push_back({"grid/" + grid[i].name, from(grid[i].config)});

    core::ScenarioConfig period45 = grid[5].config;
    period45.stack.ops.sample_period = Duration::seconds(45);
    out.push_back({"period45/" + grid[5].name, from(period45)});

    core::ScenarioConfig streaming = grid[40].config;
    streaming.streaming = true;
    streaming.trace.num_jobs = 200;
    out.push_back({"streaming/" + grid[40].name, from(streaming)});

    core::ScenarioConfig batch = streaming;
    batch.streaming = false;
    out.push_back({"batch/" + grid[40].name, from(batch)});

    out.push_back({"sliced-crisis", from(crisis_config(grid[0].config))});
    out.push_back({"ties-on-30s", tie_run});
    return out;
}

std::map<std::string, uint64_t>
compute_digests()
{
    std::map<std::string, uint64_t> out;
    for (const Scenario &scenario : golden_scenarios()) {
        auto run = scenario.make();
        out[scenario.name] = scenario.name == "sliced-crisis"
                                 ? sliced_crisis_digest(*run)
                                 : digest_to_completion(*run);
    }
    return out;
}

std::map<std::string, std::string>
read_golden(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, digest;
        fields >> name >> digest;
        out[name] = digest;
    }
    return out;
}

TEST(OpsGolden, EveryScenarioMatchesRecordedDigest)
{
    const auto golden =
        read_golden(kSourceDir + "/tests/goldens/ops_digests.txt");
    const auto digests = compute_digests();
    std::string actual;
    for (const auto &[name, digest] : digests)
        actual += name + " " + Fnv1a::hex(digest) + "\n";
    EXPECT_EQ(golden.size(), digests.size()) << "actual digests:\n"
                                             << actual;
    for (const auto &[name, digest] : digests) {
        auto it = golden.find(name);
        ASSERT_NE(it, golden.end()) << name << " missing; actual digests:\n"
                                    << actual;
        EXPECT_EQ(it->second, Fnv1a::hex(digest))
            << name << "; actual digests:\n"
            << actual;
    }
}

// Each golden scenario folds to one ops digest whoever drives it: the
// stack's run_to_completion, its run_until in slices of 7 s, 45 s and
// 1 h up to the instant the run quiesces (then run_to_completion),
// outside simulator().step() calls (then run_to_completion), with or
// without reads of the ops layer between them, or outside steps mixed
// with run_until slices. The run loops take a quiet run of sample
// instants in one append, an outside step takes one instant; every
// instant joins one pending chunk, recorded when full or read.
TEST(OpsGolden, EveryDriverFoldsToTheSameDigest)
{
    for (const Scenario &scenario : golden_scenarios()) {
        SCOPED_TRACE(scenario.name);
        auto reference = scenario.make();
        ASSERT_TRUE(reference->stack->run_to_completion());
        const TimePoint quiesced = reference->stack->simulator().now();
        const uint64_t want = ops_digest(*reference->stack);
        for (const Duration slice :
             {Duration::seconds(7), Duration::seconds(45), Duration::hours(1)}) {
            auto run = scenario.make();
            for (TimePoint t = TimePoint::origin() + slice; t < quiesced;
                 t += slice)
                run->stack->run_until(t);
            ASSERT_TRUE(run->stack->run_to_completion());
            EXPECT_EQ(ops_digest(*run->stack), want)
                << "run_until slices of " << slice.str();
        }
        auto stepped = scenario.make();
        core::TaccStack &stack = *stepped->stack;
        while (!stack.quiescent() && stack.simulator().step()) {
        }
        ASSERT_TRUE(stack.run_to_completion());
        EXPECT_EQ(ops_digest(stack), want) << "outside steps";

        // Readers record the pending chunk: reading the store, the
        // alerts or the operator report every `every` outside steps
        // (never, once per chunk of 64, or across chunk boundaries)
        // changes nothing.
        for (const uint64_t every : {1, 7, 64, 65}) {
            auto read = scenario.make();
            core::TaccStack &s = *read->stack;
            uint64_t steps = 0;
            size_t seen = 0;
            while (!s.quiescent() && s.simulator().step()) {
                if (++steps % every != 0)
                    continue;
                switch (steps / every % 3) {
                  case 0: seen += s.ops()->store().series_count(); break;
                  case 1: seen += s.ops()->alerts().incidents().size(); break;
                  default: seen += s.operator_report().size(); break;
                }
            }
            EXPECT_GT(seen, 0u);
            ASSERT_TRUE(s.run_to_completion());
            EXPECT_EQ(ops_digest(s), want)
                << "outside steps, a read every " << every;
        }

        // Outside steps mixed with run_until slices: the instants an
        // outside step takes one by one and the quiet runs a slice
        // takes share chunks.
        auto mixed = scenario.make();
        core::TaccStack &m = *mixed->stack;
        for (int round = 0; !m.quiescent(); ++round) {
            for (int i = 0;
                 i < 1 + round % 5 && !m.quiescent() && m.simulator().step();
                 ++i) {
            }
            const TimePoint t = m.simulator().now() +
                                Duration::seconds(90 + 600 * (round % 3));
            if (t >= quiesced)
                break;
            m.run_until(t);
        }
        ASSERT_TRUE(m.run_to_completion());
        EXPECT_EQ(ops_digest(m), want) << "outside steps and run_until";
    }
}

/**
 * A 32-GPU stack three 8-GPU jobs hold for days, with one job of a
 * group capped at 0 GPUs waiting, stepped from outside until the step
 * just taken was a sample instant with at least three more before the
 * next event.
 */
std::unique_ptr<core::TaccStack>
quiet_gap_stack()
{
    core::StackConfig config;
    config.cluster.topology.racks = 1;
    config.cluster.topology.nodes_per_rack = 4;
    config.cluster.node.gpu_count = 8;
    config.scheduler = "fifo";
    config.group_quotas["capped"] = 0;
    auto stack = std::make_unique<core::TaccStack>(config);
    workload::TaskSpec spec = tie_spec(0);
    spec.gpus = 8;
    spec.iterations = 1'000'000'000;
    spec.time_limit = Duration::days(30);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(stack->submit(spec).is_ok());
    spec.group = "capped";
    EXPECT_TRUE(stack->submit(spec).is_ok());
    auto &sim = stack->simulator();
    const Duration period = stack->config().ops.sample_period;
    uint64_t samples = stack->ops()->samples_taken();
    while (sim.step()) {
        const bool sampled = stack->ops()->samples_taken() > samples;
        samples = stack->ops()->samples_taken();
        if (sampled && sim.now() > TimePoint::origin() + Duration::hours(1) &&
            sim.next_event_time() > sim.now() + 4 * period)
            break;
    }
    EXPECT_EQ(stack->running_count(), 3u);
    EXPECT_EQ(stack->pending_count(), 1u);
    return stack;
}

// A change made from outside between two outside steps inside a quiet
// gap — submit, kill, cordon_node, drain_node, a quota change — shows in
// the very next sample: an outside step takes its own instant only, so
// no value was read ahead of the change.
TEST(OpsGolden, OutsideChangeInAQuietGapShowsInTheNextSample)
{
    const std::vector<std::string> changes = {"submit", "kill", "cordon",
                                              "drain", "quota"};
    for (const std::string &change : changes) {
        SCOPED_TRACE(change);
        auto stack = quiet_gap_stack();
        auto &sim = stack->simulator();
        const ops::OpsCenter &ops = *stack->ops();
        const TimePoint due = sim.now() + ops.config().sample_period;
        if (change == "submit") {
            workload::TaskSpec spec = tie_spec(1);
            spec.gpus = 8;
            spec.iterations = 1'000'000'000;
            spec.time_limit = Duration::days(30);
            ASSERT_TRUE(stack->submit(spec).is_ok());
        } else if (change == "kill") {
            ASSERT_TRUE(stack->kill(1).is_ok());
        } else if (change == "cordon") {
            ASSERT_TRUE(stack->cordon_node(3).is_ok());
        } else if (change == "drain") {
            ASSERT_TRUE(stack->drain_node(0).is_ok());
        } else {
            stack->set_group_quota("capped", 8);
        }
        const uint64_t before = ops.samples_taken();
        while (ops.samples_taken() == before && sim.now() <= due &&
               sim.step()) {
        }
        ASSERT_EQ(ops.samples_taken(), before + 1);
        ASSERT_EQ(sim.now(), due);

        const cluster::Cluster &cluster = stack->cluster();
        const double total = double(cluster.total_gpus());
        const std::vector<std::pair<const char *, double>> expected = {
            {ops::series::kQueueDepth, double(stack->pending_count())},
            {ops::series::kRunningJobs, double(stack->running_count())},
            {ops::series::kGpuUtil, double(cluster.used_gpus()) / total},
            {ops::series::kSchedulableCapacity,
             double(cluster.schedulable_total_gpus()) / total},
        };
        const ops::MetricStore &store = ops.store();
        for (const auto &[name, value] : expected) {
            const auto latest = store.latest(store.find(name));
            ASSERT_TRUE(latest.has_value()) << name;
            EXPECT_EQ(latest->t, due) << name;
            EXPECT_EQ(latest->v, value) << name;
        }
    }
}

} // namespace
} // namespace tacc
