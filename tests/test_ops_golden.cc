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
 */
#include <gtest/gtest.h>

#include <bit>
#include <fstream>
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

    workload::SyntheticWorkloadStream stream;
    std::unique_ptr<core::TaccStack> stack;
};

uint64_t
digest_to_completion(const core::ScenarioConfig &config)
{
    Run run(config);
    EXPECT_TRUE(run.stack->run_to_completion(config.max_events));
    Fnv1a h;
    fold_ops(h, *run.stack);
    return h.value();
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

/**
 * Power-capped, serving, regress-prediction crisis run, advanced by
 * run_until in 600 s slices with tcloud status and report calls between
 * slices, then drained.
 */
uint64_t
sliced_crisis_digest(core::ScenarioConfig config)
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

    Run run(config);
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
    EXPECT_TRUE(stack.run_to_completion(config.max_events));
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
uint64_t
tie_digest()
{
    core::StackConfig config;
    config.cluster.topology.racks = 1;
    config.cluster.topology.nodes_per_rack = 4;
    config.cluster.node.gpu_count = 8;
    config.scheduler = "las";
    config.placement = "pack";
    core::TaccStack stack(config);
    std::vector<workload::SubmittedTask> trace;
    for (int i = 0; i < 48; ++i) {
        const int64_t slot = 1 + i - i / 3; // every third shares a slot
        trace.push_back({TimePoint::origin() + Duration::seconds(30 * slot),
                         tie_spec(i)});
    }
    stack.submit_trace(trace);
    EXPECT_TRUE(stack.run_to_completion());
    Fnv1a h;
    fold_ops(h, stack);
    return h.value();
}

std::map<std::string, uint64_t>
compute_digests()
{
    std::map<std::string, uint64_t> out;
    const auto grid = ci_grid();
    EXPECT_EQ(grid.size(), 64u);
    if (grid.size() != 64u)
        return out;
    // Four fault-free points, then four storm points.
    for (const size_t i : {0, 9, 18, 27, 36, 45, 54, 63})
        out["grid/" + grid[i].name] = digest_to_completion(grid[i].config);

    core::ScenarioConfig period45 = grid[5].config;
    period45.stack.ops.sample_period = Duration::seconds(45);
    out["period45/" + grid[5].name] = digest_to_completion(period45);

    core::ScenarioConfig streaming = grid[40].config;
    streaming.streaming = true;
    streaming.trace.num_jobs = 200;
    out["streaming/" + grid[40].name] = digest_to_completion(streaming);

    core::ScenarioConfig batch = streaming;
    batch.streaming = false;
    out["batch/" + grid[40].name] = digest_to_completion(batch);

    out["sliced-crisis"] = sliced_crisis_digest(grid[0].config);
    out["ties-on-30s"] = tie_digest();
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

} // namespace
} // namespace tacc
