/**
 * @file
 * View-consistency property test for the job table and the scheduler's
 * incrementally kept views.
 *
 * Seeded random scenarios step the stack one event at a time and call
 * TaccStack::check_views() after every event: the pending, running,
 * held-GPU and free views must equal their rebuild from the JobTable and
 * the Cluster throughout fault storms, operator drain/cordon, random
 * kills, pipelines, preemptive and elastic policies, EASY and
 * conservative backfill, serving, a power cap, in batch and streaming
 * mode.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/stack.h"
#include "driver/sweep.h"
#include "workload/model.h"
#include "workload/stream.h"
#include "workload/trace.h"

namespace tacc::core {
namespace {

using namespace time_literals;
using workload::JobState;

struct ViewCase {
    const char *name;
    const char *scheduler;
    const char *faults = "none";
    bool serve = false;
    double power_cap_w = 0;
    double frac_elastic = 0;
    bool streaming = false;
};

// gtest would otherwise print the case as its raw bytes (pointers
// among them), and those bytes end up in the listed test names.
void
PrintTo(const ViewCase &c, std::ostream *os)
{
    *os << c.name;
}

std::string
case_name(const ::testing::TestParamInfo<ViewCase> &info)
{
    return info.param.name;
}

StackConfig
view_config(const ViewCase &c, uint64_t seed)
{
    StackConfig config;
    config.cluster.topology.racks = 2;
    config.cluster.topology.nodes_per_rack = 4;
    config.cluster.node.gpu_count = 8;
    config.scheduler = c.scheduler;
    config.placement = "topology";
    config.seed = seed;
    config.streaming = c.streaming;
    EXPECT_TRUE(driver::apply_fault_mode(c.faults, &config).is_ok());
    if (c.serve) {
        EXPECT_TRUE(driver::apply_serve_mode("robust", 2.0, &config).is_ok());
        config.serve.request_rate_hz = 2.0;
        config.serve.horizon_s = 1800.0;
    }
    if (c.power_cap_w > 0) {
        EXPECT_TRUE(
            driver::apply_power_mode(c.power_cap_w, "admission", &config)
                .is_ok());
    }
    return config;
}

workload::TraceConfig
view_trace(const ViewCase &c, uint64_t seed)
{
    workload::TraceConfig trace;
    trace.num_jobs = 120;
    trace.seed = seed;
    trace.mean_interarrival_s = 45.0; // overloaded: the queue builds up
    trace.frac_elastic = c.frac_elastic;
    trace.gpu_demand_pmf = {{1, 0.5}, {2, 0.2}, {4, 0.15}, {8, 0.1},
                            {16, 0.05}};
    return trace;
}

workload::TaskSpec
pipeline_stage(const std::string &name, int gpus)
{
    workload::TaskSpec s;
    s.name = name;
    s.user = "pipe";
    s.group = "pipeline";
    s.gpus = gpus;
    s.model = "resnet50";
    s.iterations = 2000;
    return s;
}

class ViewConsistency
    : public ::testing::TestWithParam<ViewCase>
{
};

TEST_P(ViewConsistency, ViewsMatchTheirRebuildAfterEveryEvent)
{
    const ViewCase &c = GetParam();
    // What the seeds exercised, so the scenario keeps covering its mode.
    uint64_t faults = 0, deferrals = 0, requests = 0;
    for (uint64_t seed : {3u, 17u}) {
        const workload::TraceConfig trace = view_trace(c, seed);
        workload::SyntheticWorkloadStream stream(trace);
        TaccStack stack(view_config(c, seed));
        if (c.streaming)
            stack.submit_stream(stream, 16);
        else
            stack.submit_trace(workload::TraceGenerator(trace).generate());
        // Pipelines exercise held jobs and the kill cascade.
        for (int p = 0; p < 3; ++p) {
            auto prep = stack.submit(pipeline_stage("prep", 1));
            ASSERT_TRUE(prep.is_ok());
            auto train =
                stack.submit(pipeline_stage("train", 4), {prep.value()});
            ASSERT_TRUE(train.is_ok());
            ASSERT_TRUE(stack
                            .submit(pipeline_stage("eval", 1),
                                    {train.value(), prep.value()})
                            .is_ok());
        }
        ASSERT_TRUE(stack.check_views().is_ok());

        Rng rng(seed * 977 + 1);
        const int nodes = stack.cluster().node_count();
        uint64_t events = 0;
        while (!stack.quiescent() && events < 400'000) {
            if (!stack.simulator().step()) {
                // No event left while work waits: the random verbs below
                // have cordoned or drained every node it fits on. Lift
                // the holds, as an operator would, and go on.
                const auto &health = stack.cluster().health();
                ASSERT_GT(health.count(cluster::NodeHealth::kCordoned) +
                              health.count(cluster::NodeHealth::kDraining),
                          0)
                    << c.name;
                for (int node = 0; node < nodes; ++node)
                    (void)stack.uncordon_node(node);
                ASSERT_TRUE(stack.check_views().is_ok()) << c.name;
                ASSERT_GT(stack.simulator().pending(), 0u) << c.name;
                continue;
            }
            ++events;
            if (events % 97 == 0) {
                // Operator verbs; refusals (wrong state) are fine.
                const int node = int(rng.uniform_int(0, nodes - 1));
                switch (rng.uniform_int(0, 2)) {
                  case 0: (void)stack.cordon_node(node); break;
                  case 1: (void)stack.drain_node(node); break;
                  default: (void)stack.uncordon_node(node); break;
                }
            }
            if (events % 211 == 0) {
                const auto live = stack.jobs();
                if (!live.empty()) {
                    const size_t pick = size_t(
                        rng.uniform_int(0, int64_t(live.size()) - 1));
                    if (!live[pick]->terminal()) {
                        ASSERT_TRUE(stack.kill(live[pick]->id()).is_ok());
                    }
                }
            }
            const Status views = stack.check_views();
            ASSERT_TRUE(views.is_ok())
                << c.name << " seed " << seed << " event " << events
                << ": " << views.str();
        }
        // Return every node so the backlog can drain.
        for (int n = 0; n < nodes; ++n)
            (void)stack.uncordon_node(n);
        ASSERT_TRUE(stack.run_to_completion()) << c.name;
        ASSERT_TRUE(stack.check_views().is_ok()) << c.name;
        if (c.streaming) {
            EXPECT_TRUE(stack.jobs().empty()) << c.name;
        }
        faults += stack.metrics().node_faults() +
                  stack.metrics().segment_failures();
        deferrals += stack.power() ? stack.power()->deferrals() : 0;
        requests += stack.serve_plane()
                        ? stack.serve_plane()->counters().requests
                        : 0;
    }
    EXPECT_EQ(faults > 0, std::string(c.faults) != "none") << c.name;
    EXPECT_EQ(deferrals > 0, c.power_cap_w > 0) << c.name;
    EXPECT_EQ(requests > 0, c.serve) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ViewConsistency,
    ::testing::Values(
        ViewCase{"fifo_batch", "fifo"},
        ViewCase{"fairshare_storm", "fairshare", "storm"},
        ViewCase{"fairshare_storm_streaming", "fairshare", "storm", false,
                 0, 0, true},
        ViewCase{"qos_preempt", "qos-preempt", "segfault"},
        ViewCase{"las", "las"},
        ViewCase{"gang", "gang"},
        ViewCase{"elastic", "elastic", "none", false, 0, 0.4},
        ViewCase{"elastic_streaming", "elastic", "storm", false, 0, 0.4,
                 true},
        ViewCase{"backfill_easy_storm", "backfill-easy", "storm"},
        ViewCase{"backfill_cons", "backfill-cons"},
        ViewCase{"serve_streaming", "fairshare", "none", true, 0, 0, true},
        ViewCase{"serve_storm", "backfill-easy", "storm", true},
        ViewCase{"power_cap", "fairshare", "none", false, 20000.0},
        ViewCase{"power_cap_streaming", "backfill-easy", "storm", false,
                 20000.0, 0, true}),
    case_name);

TEST(JobTable, KilledProvisioningChildLeavesNoLiveRecord)
{
    // A child killed while provisioning, with its parent still running:
    // once the parent finishes and the run drains, streaming mode must
    // hold no live record (the kill leaves no dependency bookkeeping
    // behind, and the parent's completion skips the retired child).
    StackConfig config;
    config.cluster.topology.racks = 1;
    config.cluster.topology.nodes_per_rack = 2;
    config.cluster.node.gpu_count = 8;
    config.streaming = true;
    TaccStack stack(config);
    workload::TaskSpec long_parent = pipeline_stage("parent", 2);
    long_parent.iterations = 10'000'000;
    auto parent = stack.submit(long_parent);
    ASSERT_TRUE(parent.is_ok());
    stack.run_until(TimePoint::origin() + 10_min);
    ASSERT_NE(stack.find_job(parent.value()), nullptr);
    ASSERT_EQ(stack.find_job(parent.value())->state(), JobState::kRunning);

    auto child = stack.submit(pipeline_stage("child", 1), {parent.value()});
    ASSERT_TRUE(child.is_ok());
    ASSERT_EQ(stack.find_job(child.value())->state(),
              JobState::kProvisioning);
    ASSERT_TRUE(stack.kill(child.value()).is_ok());
    EXPECT_EQ(stack.find_job(child.value()), nullptr); // retired
    ASSERT_TRUE(stack.check_views().is_ok());

    ASSERT_TRUE(stack.run_to_completion());
    ASSERT_TRUE(stack.check_views().is_ok());
    EXPECT_TRUE(stack.jobs().empty());
    EXPECT_EQ(stack.metrics().completed_count(), 1u);
}

TEST(JobTable, RecyclesRetiredChunksAndKeepsRecordsInPlace)
{
    JobTable table;
    compiler::TaskInstruction instruction;
    instruction.spec = pipeline_stage("t", 1);
    auto model = workload::ModelCatalog::instance().find("resnet50");
    ASSERT_TRUE(model.is_ok());
    const auto add = [&](cluster::JobId id) {
        return &table.emplace(id, model.value(), TimePoint::origin(),
                              instruction)
                    .job;
    };
    const size_t n = 5 * JobTable::kChunkIds;
    std::vector<const workload::Job *> addresses;
    for (cluster::JobId id = 1; id <= n; ++id)
        addresses.push_back(add(id));
    // One long-lived job pins its chunk; every other id retires.
    const cluster::JobId pinned = 2 * JobTable::kChunkIds + 5;
    for (cluster::JobId id = 1; id <= n; ++id) {
        if (id != pinned)
            table.retire(id);
    }
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(&table.find(pinned)->job, addresses[pinned - 1]);
    EXPECT_EQ(table.find(1), nullptr);
    EXPECT_EQ(table.find(n), nullptr);
    EXPECT_EQ(table.find(n + 1), nullptr);
    // New ids reuse the recycled chunks; the pinned record stays put.
    for (cluster::JobId id = n + 1; id <= n + JobTable::kChunkIds; ++id)
        ASSERT_EQ(add(id)->id(), id);
    EXPECT_EQ(&table.find(pinned)->job, addresses[pinned - 1]);
    EXPECT_EQ(table.size(), 1 + JobTable::kChunkIds);
    std::vector<cluster::JobId> seen;
    table.for_each([&](const JobEntry &e) { seen.push_back(e.job.id()); });
    ASSERT_EQ(seen.size(), table.size());
    EXPECT_EQ(seen.front(), pinned);
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

} // namespace
} // namespace tacc::core
