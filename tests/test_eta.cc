/**
 * @file
 * Exactness of TaccStack::estimated_start's per-state table.
 *
 * The stack answers ETA queries from one arrival-order walk per stack
 * state (extended lazily, keyed by the views' version, the clock, the
 * free GPUs and the estimator's observations). The reference below is
 * the walk every query used to repeat: a fresh capacity profile from
 * the running view, then the pending view in arrival order, each job
 * priced by the active estimator. Seeded scenarios query every queued
 * and provisioning job (and a few running ones) at fixed cadences, in
 * random order and twice, step event by event through stretches with
 * reads after each event, and between two reads at the same
 * instant apply each operator or client verb that changes a walk input
 * without a simulator event: submit, kill of a pending and of a
 * running job, drain, cordon/uncordon and a quota change. Every answer
 * must equal the reference's, and most must come from a table.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/stack.h"
#include "driver/sweep.h"
#include "sched/capacity_profile.h"
#include "workload/trace.h"

namespace tacc::core {
namespace {

using namespace time_literals;
using workload::JobState;

/** The arrival-order walk estimated_start answered every query with
 *  before the per-state table; nullopt where it had no estimate. */
std::optional<TimePoint>
reference_eta(TaccStack &stack, cluster::JobId id)
{
    const workload::Job *job = stack.find_job(id);
    if (job == nullptr || job->terminal())
        return std::nullopt;
    if (job->state() == JobState::kRunning)
        return job->segment_start();
    const auto pending = stack.views().pending();
    const bool queued = std::binary_search(pending.begin(), pending.end(),
                                           job, sched::arrives_before);
    if (!queued && job->state() != JobState::kProvisioning)
        return std::nullopt; // held or in requeue backoff
    sched::CapacityProfile profile(stack.simulator().now(),
                                   stack.cluster().free_gpus());
    for (const sched::RunningInfo &r : stack.views().running())
        profile.add_release(r.expected_end, r.job->running_gpus());
    for (const workload::Job *ahead : pending) {
        const Duration bound = stack.active_estimator().predict(*ahead);
        const TimePoint fit =
            profile.earliest_fit(ahead->spec().gpus, bound);
        if (ahead == job)
            return fit;
        profile.reserve(fit, bound, ahead->spec().gpus);
    }
    return profile.earliest_fit(job->spec().gpus,
                                stack.active_estimator().predict(*job));
}

struct EtaCase {
    const char *name;
    const char *scheduler;
    /** The overload-crisis shape: storm faults, DVFS power cap, robust
     *  serving and the regress estimator. */
    bool crisis = false;
    double frac_elastic = 0;
};

void
PrintTo(const EtaCase &c, std::ostream *os)
{
    *os << c.name;
}

std::string
case_name(const ::testing::TestParamInfo<EtaCase> &info)
{
    return info.param.name;
}

StackConfig
eta_config(const EtaCase &c, uint64_t seed)
{
    StackConfig config;
    config.cluster.topology.racks = 2;
    config.cluster.topology.nodes_per_rack = 4;
    config.cluster.node.gpu_count = 8;
    config.scheduler = c.scheduler;
    config.seed = seed;
    config.emit_monitor_logs = false;
    if (c.crisis) {
        EXPECT_TRUE(driver::apply_fault_mode("storm", &config).is_ok());
        EXPECT_TRUE(
            driver::apply_power_mode(15000.0, "dvfs", &config).is_ok());
        EXPECT_TRUE(
            driver::apply_serve_mode("robust", 3.0, &config).is_ok());
        config.serve.request_rate_hz = 2.0;
        config.serve.horizon_s = 3600.0;
        EXPECT_TRUE(
            driver::apply_estimator_mode("regress", 1.0, &config).is_ok());
    }
    return config;
}

workload::TraceConfig
eta_trace(const EtaCase &c, uint64_t seed)
{
    workload::TraceConfig trace;
    trace.num_jobs = 160;
    trace.seed = seed;
    trace.mean_interarrival_s = 60.0; // overloaded: the queue builds up
    trace.frac_elastic = c.frac_elastic;
    trace.gpu_demand_pmf = {{1, 0.5}, {2, 0.2}, {4, 0.15}, {8, 0.1},
                            {16, 0.05}};
    return trace;
}

workload::TaskSpec
walk_in(Rng &rng, int n)
{
    workload::TaskSpec s;
    s.name = "walk-in-" + std::to_string(n);
    s.user = "walker";
    s.group = n % 2 == 0 ? "walk-a" : "walk-b";
    s.model = "resnet50";
    s.gpus = int(rng.uniform_int(1, 8));
    s.iterations = rng.uniform_int(500, 20000);
    return s;
}

/** Queries the stack and the reference side by side and keeps count. */
class EtaProbe
{
  public:
    explicit EtaProbe(TaccStack &stack) : stack_(stack) {}

    /** One answer; the stack's must equal the reference's. */
    std::optional<TimePoint>
    ask(cluster::JobId id)
    {
        const auto eta = stack_.estimated_start(id);
        const auto want = reference_eta(stack_, id);
        ++queries_;
        EXPECT_EQ(eta.is_ok(), want.has_value()) << "job " << id;
        if (eta.is_ok() && want.has_value()) {
            EXPECT_EQ(eta.value(), *want) << "job " << id;
            return *want;
        }
        return std::nullopt;
    }

    /** Every job the reader would ask about: queued, provisioning and
     *  (a few) running ones, shuffled. */
    std::vector<cluster::JobId>
    targets(Rng &rng) const
    {
        std::vector<cluster::JobId> ids;
        size_t running = 0;
        for (const workload::Job *job : stack_.jobs()) {
            const bool live = job->state() == JobState::kPending ||
                              job->state() == JobState::kProvisioning;
            if (live || (job->state() == JobState::kRunning &&
                         running++ < 4))
                ids.push_back(job->id());
        }
        for (size_t i = ids.size(); i > 1; --i)
            std::swap(ids[i - 1],
                      ids[size_t(rng.uniform_int(0, int64_t(i) - 1))]);
        return ids;
    }

    uint64_t queries() const { return queries_; }

  private:
    TaccStack &stack_;
    uint64_t queries_ = 0;
};

class EtaTable : public ::testing::TestWithParam<EtaCase>
{
};

TEST_P(EtaTable, EveryAnswerMatchesTheArrivalOrderWalk)
{
    const EtaCase &c = GetParam();
    for (uint64_t seed : {5u, 23u}) {
        TaccStack stack(eta_config(c, seed));
        stack.submit_trace(
            workload::TraceGenerator(eta_trace(c, seed)).generate());
        EtaProbe probe(stack);
        Rng rng(seed * 131 + 7);
        const int nodes = stack.cluster().node_count();
        int walk_ins = 0;
        size_t deepest = 0;
        uint64_t moved = 0;

        const auto pick = [&](size_t n) {
            return size_t(rng.uniform_int(0, int64_t(n) - 1));
        };
        // The verbs that change a walk input without a simulator event;
        // refusals (wrong state) are fine.
        const auto mutate = [&](int verb) {
            const auto pending = stack.views().pending();
            const auto running = stack.views().running();
            const int node = int(rng.uniform_int(0, nodes - 1));
            switch (verb) {
              case 0:
                ASSERT_TRUE(stack.submit(walk_in(rng, walk_ins++)).is_ok());
                break;
              case 1:
                if (!pending.empty()) {
                    ASSERT_TRUE(
                        stack.kill(pending[pick(pending.size())]->id())
                            .is_ok());
                }
                break;
              case 2:
                if (!running.empty()) {
                    ASSERT_TRUE(
                        stack.kill(running[pick(running.size())].job->id())
                            .is_ok());
                }
                break;
              case 3: (void)stack.drain_node(node); break;
              case 4: (void)stack.cordon_node(node); break;
              case 5: (void)stack.uncordon_node(node); break;
              default:
                stack.set_group_quota(rng.bernoulli(0.5) ? "walk-a"
                                                         : "walk-b",
                                      int(rng.uniform_int(-1, 16)));
                break;
            }
        };

        const TimePoint end = TimePoint::origin() + 6_h;
        for (int slice = 0; stack.simulator().now() < end; ++slice) {
            stack.run_until(stack.simulator().now() + 10_min);
            // Every target twice, each time in a random order.
            deepest = std::max(deepest, stack.pending_count());
            for (int round = 0; round < 2; ++round) {
                for (cluster::JobId id : probe.targets(rng))
                    probe.ask(id);
            }
            std::vector<cluster::JobId> ids;
            // Each verb once, with reads on both sides of it.
            for (int verb = 0; verb < 7; ++verb) {
                ids = probe.targets(rng);
                if (ids.size() > 12)
                    ids.resize(12);
                std::vector<std::optional<TimePoint>> before;
                for (cluster::JobId id : ids)
                    before.push_back(probe.ask(id));
                mutate(verb);
                for (size_t i = 0; i < ids.size(); ++i)
                    moved += probe.ask(ids[i]) != before[i];
            }
            if (slice % 6 == 0) {
                // Event by event, with reads after each one.
                for (int step = 0; step < 40 && stack.simulator().step();
                     ++step) {
                    ids = probe.targets(rng);
                    if (ids.size() > 3)
                        ids.resize(3);
                    for (cluster::JobId id : ids)
                        probe.ask(id);
                }
            }
            // Keep capacity in service so the backlog moves.
            if (slice % 3 == 2) {
                for (int n = 0; n < nodes; ++n)
                    (void)stack.uncordon_node(n);
            }
            ASSERT_FALSE(::testing::Test::HasFailure())
                << c.name << " seed " << seed << " slice " << slice;
        }
        for (int n = 0; n < nodes; ++n)
            (void)stack.uncordon_node(n);
        stack.set_group_quota("walk-a", -1);
        stack.set_group_quota("walk-b", -1);
        ASSERT_TRUE(stack.run_to_completion()) << c.name;

        // The scenario built a real queue, the verbs moved answers, and
        // the table (not a fresh walk) served most queries.
        EXPECT_GE(deepest, 20u) << c.name << " seed " << seed;
        EXPECT_GT(moved, 0u) << c.name << " seed " << seed;
        EXPECT_LT(stack.eta_walks() * 4, probe.queries())
            << c.name << " seed " << seed << ": " << stack.eta_walks()
            << " walks for " << probe.queries() << " queries";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, EtaTable,
    ::testing::Values(EtaCase{"crisis", "backfill-easy", true},
                      EtaCase{"fifo", "fifo"},
                      EtaCase{"qos_preempt", "qos-preempt"},
                      EtaCase{"elastic", "elastic", false, 0.4}),
    case_name);

} // namespace
} // namespace tacc::core
