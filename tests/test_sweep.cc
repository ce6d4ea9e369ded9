/**
 * @file
 * Sweep driver tests: spec parsing, grid expansion, preemption-cost
 * modes, digest stability across worker counts (the determinism
 * contract the CI gate enforces), and golden-file comparison.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.h"
#include "driver/digest.h"
#include "driver/runner.h"
#include "driver/sweep.h"

namespace tacc::driver {
namespace {

/** A grid small enough to simulate inside a unit test. */
SweepSpec
tiny_spec()
{
    SweepSpec spec;
    spec.schedulers = {"fairshare", "fifo-skip"};
    spec.placements = {"topology"};
    spec.preempt_modes = {"graceful"};
    spec.loads = {1.0};
    spec.seeds = {1, 2};
    spec.base.trace.num_jobs = 12;
    spec.base.trace.mean_interarrival_s = 120.0;
    spec.base.stack.cluster.topology.racks = 2;
    spec.base.stack.cluster.topology.nodes_per_rack = 4;
    spec.base.stack.emit_monitor_logs = false;
    return spec;
}

TEST(SweepSpecParse, ParsesAxesAndBaseKnobs)
{
    const std::string text = R"(# comment line
schedulers: fairshare, fifo-skip
placements: topology,pack
preempt_modes: graceful,free
loads: 1.0, 1.6
seeds: 1,2,3

jobs: 25
interarrival_s: 75
racks: 2
nodes_per_rack: 4
gpus_per_node: 8
oversubscription: 2.0
)";
    auto parsed = parse_sweep_spec(text);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().str();
    const SweepSpec &spec = parsed.value();
    EXPECT_EQ(spec.schedulers,
              (std::vector<std::string>{"fairshare", "fifo-skip"}));
    EXPECT_EQ(spec.placements,
              (std::vector<std::string>{"topology", "pack"}));
    EXPECT_EQ(spec.preempt_modes,
              (std::vector<std::string>{"graceful", "free"}));
    EXPECT_EQ(spec.loads, (std::vector<double>{1.0, 1.6}));
    EXPECT_EQ(spec.seeds, (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_EQ(spec.grid_size(), 2u * 2u * 2u * 2u * 3u);
    EXPECT_EQ(spec.base.trace.num_jobs, 25);
    EXPECT_DOUBLE_EQ(spec.base.trace.mean_interarrival_s, 75.0);
    EXPECT_EQ(spec.base.stack.cluster.topology.racks, 2);
    EXPECT_EQ(spec.base.stack.cluster.topology.nodes_per_rack, 4);
}

TEST(SweepSpecParse, RejectsUnknownKey)
{
    auto spec = parse_sweep_spec("schedulers: fairshare\nbogus_knob: 3\n");
    EXPECT_FALSE(spec.is_ok());
    EXPECT_NE(spec.status().message().find("bogus_knob"),
              std::string::npos);
}

TEST(SweepSpecParse, RejectsUnknownScheduler)
{
    auto spec = parse_sweep_spec("schedulers: no-such-policy\n");
    EXPECT_FALSE(spec.is_ok());
}

// Unsigned fields take no sign, so "-1" cannot wrap to 2^64 - 1 (a
// scenario named .../s18446744073709551615) and "+7" is refused as
// it is on the command line.
TEST(SweepSpecParse, UnsignedFieldsTakeNoSign)
{
    for (const char *text :
         {"seeds: -1\n", "seeds: 1,+7\n", "seeds: 18446744073709551616\n",
          "max_events: -1\n", "max_events: +7\n", "stream_window: -1\n",
          "stream_window: +7\n"}) {
        SCOPED_TRACE(text);
        const auto spec = parse_sweep_spec(text);
        ASSERT_FALSE(spec.is_ok());
        EXPECT_NE(spec.status().message().find("line 1: bad value for"),
                  std::string::npos)
            << spec.status().str();
    }
    const auto edges = parse_sweep_spec("seeds: 0,18446744073709551615\n");
    ASSERT_TRUE(edges.is_ok()) << edges.status().str();
    EXPECT_EQ(edges.value().seeds,
              (std::vector<uint64_t>{0, 18446744073709551615ULL}));
}

TEST(SweepSpecParse, RejectsUnknownPreemptMode)
{
    auto spec = parse_sweep_spec("preempt_modes: yolo\n");
    EXPECT_FALSE(spec.is_ok());
}

TEST(SweepExpand, CanonicalOrderAndNames)
{
    SweepSpec spec = tiny_spec();
    auto scenarios = expand_sweep(spec);
    ASSERT_EQ(scenarios.size(), spec.grid_size());
    // Seeds iterate innermost, schedulers outermost.
    EXPECT_EQ(scenarios[0].name, "fairshare/topology/graceful/x1/s1");
    EXPECT_EQ(scenarios[1].name, "fairshare/topology/graceful/x1/s2");
    EXPECT_EQ(scenarios[2].name, "fifo-skip/topology/graceful/x1/s1");
    EXPECT_EQ(scenarios[3].name, "fifo-skip/topology/graceful/x1/s2");
    EXPECT_EQ(scenarios[0].config.stack.scheduler, "fairshare");
    EXPECT_EQ(scenarios[2].config.stack.scheduler, "fifo-skip");
    EXPECT_EQ(scenarios[1].config.trace.seed, 2u);
    EXPECT_EQ(scenarios[1].config.stack.seed, 2u);
}

TEST(SweepExpand, LoadScalesInterarrival)
{
    SweepSpec spec = tiny_spec();
    spec.schedulers = {"fairshare"};
    spec.seeds = {1};
    spec.loads = {1.0, 2.0};
    auto scenarios = expand_sweep(spec);
    ASSERT_EQ(scenarios.size(), 2u);
    EXPECT_DOUBLE_EQ(scenarios[0].config.trace.mean_interarrival_s, 120.0);
    EXPECT_DOUBLE_EQ(scenarios[1].config.trace.mean_interarrival_s, 60.0);
    EXPECT_EQ(scenarios[1].name, "fairshare/topology/graceful/x2/s1");
}

TEST(SweepPreemptModes, MapToExecCosts)
{
    core::StackConfig graceful, free_mode, costly, checkpoint;
    ASSERT_TRUE(apply_preempt_mode("graceful", &graceful).is_ok());
    ASSERT_TRUE(apply_preempt_mode("free", &free_mode).is_ok());
    ASSERT_TRUE(apply_preempt_mode("costly", &costly).is_ok());
    ASSERT_TRUE(apply_preempt_mode("checkpoint", &checkpoint).is_ok());
    EXPECT_DOUBLE_EQ(free_mode.exec.restart_overhead_s, 0.0);
    EXPECT_GT(costly.exec.restart_overhead_s,
              graceful.exec.restart_overhead_s);
    EXPECT_GT(checkpoint.exec.checkpoint_interval_s, 0.0);
    EXPECT_FALSE(apply_preempt_mode("bogus", &graceful).is_ok());
}

TEST(SweepDeterminism, DigestsIdenticalAcrossWorkerCounts)
{
    const SweepSpec spec = tiny_spec();
    const SweepSummary serial = run_sweep(spec, 1);
    const SweepSummary parallel = run_sweep(spec, 8);
    ASSERT_EQ(serial.runs.size(), spec.grid_size());
    ASSERT_EQ(parallel.runs.size(), spec.grid_size());
    // The golden-file rendering must be byte-identical: worker count is
    // throughput, never semantics.
    EXPECT_EQ(digests_text(serial), digests_text(parallel));
    for (size_t i = 0; i < serial.runs.size(); ++i) {
        EXPECT_EQ(serial.runs[i].scenario.name,
                  parallel.runs[i].scenario.name);
        EXPECT_EQ(serial.runs[i].digest, parallel.runs[i].digest);
        EXPECT_EQ(serial.runs[i].result.completed,
                  parallel.runs[i].result.completed);
    }
}

TEST(SweepDeterminism, DigestSensitiveToPolicyAndSeed)
{
    const SweepSpec spec = tiny_spec();
    const SweepSummary summary = run_sweep(spec, 2);
    ASSERT_EQ(summary.runs.size(), 4u);
    // fairshare/s1 vs fifo-skip/s1 and fairshare/s1 vs fairshare/s2
    // must all differ — otherwise the digest is not discriminating.
    EXPECT_NE(summary.runs[0].digest, summary.runs[2].digest);
    EXPECT_NE(summary.runs[0].digest, summary.runs[1].digest);
}

TEST(SweepGoldens, RoundTripAndDriftDetection)
{
    SweepSpec spec = tiny_spec();
    spec.schedulers = {"fairshare"};
    spec.seeds = {1, 2};
    const SweepSummary summary = run_sweep(spec, 2);

    const std::string golden = digests_text(summary);
    EXPECT_NE(golden.find("# tacc_sweep digests v1"), std::string::npos);
    auto check = check_digests(summary, golden);
    EXPECT_TRUE(check.ok) << check.report;

    // Flip one digest: must be reported as drift, by name.
    std::string drifted = golden;
    const auto pos = drifted.find(Fnv1a::hex(summary.runs[0].digest));
    ASSERT_NE(pos, std::string::npos);
    drifted[pos] = drifted[pos] == 'f' ? '0' : 'f';
    check = check_digests(summary, drifted);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.report.find(summary.runs[0].scenario.name),
              std::string::npos);

    // A golden missing one run must fail, as must one with an extra run.
    std::string missing = golden;
    missing.erase(missing.find(summary.runs[0].scenario.name),
                  missing.find('\n', missing.find(
                      summary.runs[0].scenario.name)) + 1 -
                      missing.find(summary.runs[0].scenario.name));
    check = check_digests(summary, missing);
    EXPECT_FALSE(check.ok);

    std::string extra = golden + "phantom/run/x1/s9 0123456789abcdef\n";
    check = check_digests(summary, extra);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.report.find("phantom"), std::string::npos);
}

TEST(SweepSummaryJson, ContainsRunsAndStableKeys)
{
    SweepSpec spec = tiny_spec();
    spec.schedulers = {"fairshare"};
    spec.seeds = {1};
    const SweepSummary summary = run_sweep(spec, 1);
    const std::string json = summary_to_json(summary);
    EXPECT_NE(json.find("\"workers\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"fairshare/topology/graceful/x1/s1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"digest\": \""), std::string::npos);
    EXPECT_NE(json.find("\"completed\""), std::string::npos);
    EXPECT_NE(json.find("\"utilization\""), std::string::npos);
}

TEST(SweepDigest, PlacementDigestFoldedIntoRecords)
{
    // Runs with different placement policies over the same trace must
    // produce different digests even if timing happened to coincide —
    // the per-job placement fingerprint guarantees it. Sanity-check that
    // records carry a non-zero placement digest for started jobs.
    SweepSpec spec = tiny_spec();
    spec.schedulers = {"fairshare"};
    spec.seeds = {1};
    const SweepSummary summary = run_sweep(spec, 1);
    ASSERT_EQ(summary.runs.size(), 1u);
    int started_with_digest = 0;
    for (const auto &r : summary.runs[0].result.records) {
        if (r.started && r.placement_digest != 0)
            ++started_with_digest;
    }
    EXPECT_GT(started_with_digest, 0);
}

} // namespace
} // namespace tacc::driver
