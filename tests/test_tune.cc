/**
 * @file
 * Auto-tuner unit tests: the ParamSpace registry and its config
 * accessors, objective scalarization and validation, the tune-spec
 * dialect (hard errors with line numbers), workload mixes, the
 * optimizer factory, and a tiny end-to-end run whose winning preset
 * must load back through the deployment dialect.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "tune/objective.h"
#include "tune/optimizer.h"
#include "tune/param_space.h"
#include "tune/tuner.h"

namespace tacc::tune {
namespace {

/** A scenario small enough to simulate inside a unit test. */
TuneSpec
tiny_spec()
{
    TuneSpec spec;
    spec.base.trace.num_jobs = 12;
    spec.base.trace.mean_interarrival_s = 120.0;
    spec.base.stack.cluster.topology.racks = 2;
    spec.base.stack.cluster.topology.nodes_per_rack = 4;
    spec.base.stack.emit_monitor_logs = false;
    spec.space =
        ParamSpace::subset({"w_age", "w_qos", "backfill_depth"}).value();
    spec.search.chains = 2;
    spec.budget = 6;
    return spec;
}

TEST(ParamSpace, RegistryIsStableAndBounded)
{
    const auto &dims = ParamSpace::registry();
    ASSERT_GE(dims.size(), 9u);
    for (const auto &d : dims) {
        EXPECT_LT(d.lo, d.hi) << d.name;
        EXPECT_NE(d.get, nullptr) << d.name;
        EXPECT_NE(d.set, nullptr) << d.name;
    }
    // The multifactor weights lead, in scheduler order.
    EXPECT_EQ(dims[0].name, "w_age");
    EXPECT_EQ(ParamSpace::all().size(), dims.size());
}

TEST(ParamSpace, SubsetKeepsRequestedOrderAndRejectsUnknown)
{
    auto sub = ParamSpace::subset({"backfill_depth", "w_qos"});
    ASSERT_TRUE(sub.is_ok()) << sub.status().str();
    EXPECT_EQ(sub.value().names_csv(), "backfill_depth,w_qos");

    auto bad = ParamSpace::subset({"w_qos", "warp_factor"});
    ASSERT_FALSE(bad.is_ok());
    EXPECT_NE(bad.status().message().find("warp_factor"),
              std::string::npos);
}

TEST(ParamSpace, ApplyExtractRoundTrip)
{
    ParamSpace space =
        ParamSpace::subset({"w_age", "backfill_depth"}).value();
    core::StackConfig config;
    space.apply({0.75, 17}, &config);
    EXPECT_EQ(space.extract(config), (std::vector<double>{0.75, 17}));
}

TEST(ParamSpace, ClampProjectsIntoBoundsAndSnapsIntegers)
{
    ParamSpace space =
        ParamSpace::subset({"w_age", "backfill_depth"}).value();
    const std::vector<double> clamped = space.clamp({-3.0, 7.4});
    EXPECT_EQ(clamped[0], space.dims()[0].lo);
    EXPECT_EQ(clamped[1], 7.0); // integer dim snaps
    EXPECT_TRUE(space.in_bounds(clamped));
    EXPECT_FALSE(space.in_bounds({0.5, 7.4})); // non-integer rejected
    EXPECT_FALSE(space.in_bounds({2.0, 7.0})); // above hi
}

TEST(Objective, ValidateRejectsBadWeights)
{
    ObjectiveWeights w;
    EXPECT_TRUE(validate_weights(w).is_ok());
    w.w_energy = -0.1;
    EXPECT_FALSE(validate_weights(w).is_ok());
    w = ObjectiveWeights{};
    w.jct_ref_s = 0;
    EXPECT_FALSE(validate_weights(w).is_ok());
}

TEST(Objective, ScalarizeMatchesHandComputation)
{
    ObjectiveWeights w;
    w.w_mean_jct = 1.0;
    w.w_p99_jct = 0.5;
    w.w_fairness = 2.0;
    w.w_energy = 1.0;
    w.w_slo = 4.0;
    w.jct_ref_s = 1000.0;
    w.energy_ref_kwh = 10.0;
    core::ObjectiveInputs in;
    in.mean_jct_s = 500.0;
    in.p99_jct_s = 2000.0;
    in.fairness = 0.8;
    in.energy_kwh = 5.0;
    in.slo_miss_rate = 0.25;
    // 0.5 + 0.5*2 + 2*0.2 + 1*0.5 + 4*0.25 = 3.4
    EXPECT_NEAR(scalarize(in, w), 3.4, 1e-12);
    // A perfect run scores zero.
    EXPECT_EQ(scalarize(core::ObjectiveInputs{}, w), 0.0);
}

TEST(TuneSpecParse, ParsesSearchAndWorkloadKeys)
{
    auto parsed = parse_tune_spec(R"(# comment
optimizer: genetic
budget: 12
seed: 9
params: w_qos,backfill_depth
ga_population: 6
w_energy: 0.5
mixes: train-heavy,infer-fault
eval_seeds: 3,4
jobs: 20
racks: 2
nodes_per_rack: 4
)");
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().str();
    const TuneSpec &spec = parsed.value();
    EXPECT_EQ(spec.optimizer, "genetic");
    EXPECT_EQ(spec.budget, 12);
    EXPECT_EQ(spec.search.seed, 9u);
    EXPECT_EQ(spec.search.population, 6);
    EXPECT_EQ(spec.space.names_csv(), "w_qos,backfill_depth");
    EXPECT_EQ(spec.weights.w_energy, 0.5);
    EXPECT_EQ(spec.mixes,
              (std::vector<std::string>{"train-heavy", "infer-fault"}));
    EXPECT_EQ(spec.eval_seeds, (std::vector<uint64_t>{3, 4}));
    EXPECT_EQ(spec.base.trace.num_jobs, 20);
}

// Unsigned fields take no sign, so "-1" cannot wrap to 2^64 - 1 and
// "+7" is refused as it is on the command line; max_events and
// stream_window come from driver::apply_scenario_key.
TEST(TuneSpecParse, UnsignedFieldsTakeNoSign)
{
    for (const char *text :
         {"seed: -1\n", "seed: +7\n", "eval_seeds: 1,-1\n",
          "eval_seeds: +7\n", "max_events: -1\n", "stream_window: +7\n"}) {
        SCOPED_TRACE(text);
        const auto spec = parse_tune_spec(text);
        ASSERT_FALSE(spec.is_ok());
        EXPECT_NE(spec.status().message().find("line 1: bad value for"),
                  std::string::npos)
            << spec.status().str();
    }
    const auto ok = parse_tune_spec(
        "seed: 18446744073709551615\neval_seeds: 0,3\nstream_window: 7\n");
    ASSERT_TRUE(ok.is_ok()) << ok.status().str();
    EXPECT_EQ(ok.value().search.seed, 18446744073709551615ULL);
    EXPECT_EQ(ok.value().eval_seeds, (std::vector<uint64_t>{0, 3}));
    EXPECT_EQ(ok.value().base.stream_window, 7u);
}

TEST(TuneSpecParse, HardErrorsCarryLineNumbers)
{
    auto unknown = parse_tune_spec("budget: 10\nwarp_drive: 9\n");
    ASSERT_FALSE(unknown.is_ok());
    EXPECT_NE(unknown.status().message().find("line 2:"),
              std::string::npos);

    auto malformed = parse_tune_spec("optimizer: sa\nno colon here\n");
    ASSERT_FALSE(malformed.is_ok());
    EXPECT_NE(malformed.status().message().find("line 2:"),
              std::string::npos);

    auto range = parse_tune_spec("budget: 0\n");
    ASSERT_FALSE(range.is_ok());
    EXPECT_NE(range.status().message().find("line 1:"),
              std::string::npos);

    EXPECT_FALSE(parse_tune_spec("mixes: bogus-mix\n").is_ok());
    EXPECT_FALSE(parse_tune_spec("params: warp_factor\n").is_ok());
    EXPECT_FALSE(parse_tune_spec("optimizer: hillclimb\n").is_ok());
    EXPECT_FALSE(parse_tune_spec("w_mean_jct: -1\n").is_ok());
    EXPECT_FALSE(parse_tune_spec("ga_population: 1\n").is_ok());
    EXPECT_FALSE(parse_tune_spec("sa_cooling: 1.5\n").is_ok());
}

TEST(TuneMixes, KnownMixesApplyUnknownRejected)
{
    for (const std::string &mix : mix_names()) {
        core::ScenarioConfig config;
        EXPECT_TRUE(apply_mix(mix, &config).is_ok()) << mix;
    }
    core::ScenarioConfig config;
    const double base_interactive = config.trace.frac_interactive;
    ASSERT_TRUE(apply_mix("infer-heavy", &config).is_ok());
    EXPECT_GT(config.trace.frac_interactive, base_interactive);
    EXPECT_FALSE(apply_mix("bogus", &config).is_ok());
}

TEST(OptimizerFactory, RejectsUnknownEnginePadsAndClampsStart)
{
    ParamSpace space =
        ParamSpace::subset({"w_age", "backfill_depth"}).value();
    OptimizerConfig cfg;
    EXPECT_FALSE(make_optimizer("hillclimb", space, cfg).is_ok());

    // A short, out-of-bounds start is normalized: the first proposal of
    // chain 0 (the anchor) must be in bounds.
    cfg.start = {42.0};
    auto sa = make_optimizer("sa", space, cfg);
    ASSERT_TRUE(sa.is_ok()) << sa.status().str();
    const auto batch = sa.value()->propose(1);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_TRUE(space.in_bounds(batch[0].values));
}

TEST(TuneRun, TinySearchNeverWorseThanDefaultAndPresetLoads)
{
    const TuneSpec spec = tiny_spec();
    auto result = run_tune(spec, 2);
    ASSERT_TRUE(result.is_ok()) << result.status().str();
    const TuneResult &r = result.value();
    EXPECT_EQ(r.trajectory.size(), size_t(spec.budget));
    EXPECT_LE(r.best_objective, r.default_objective);
    EXPECT_TRUE(spec.space.in_bounds(r.best_values));
    for (const auto &step : r.trajectory)
        EXPECT_TRUE(spec.space.in_bounds(step.values)) << step.step;

    // The preset is a loadable deployment file and a render fixed
    // point: parsing and re-rendering reproduces the config section.
    const std::string preset = best_config_text(spec, r);
    auto loaded = core::parse_stack_config(preset);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().str();
    const std::string rendered =
        core::stack_config_to_text(loaded.value());
    auto reloaded = core::parse_stack_config(rendered);
    ASSERT_TRUE(reloaded.is_ok()) << reloaded.status().str();
    EXPECT_EQ(core::stack_config_to_text(reloaded.value()), rendered);
}

TEST(TuneRun, LoadTuneSpecReadsFilesAndReportsMissing)
{
    const std::string path = ::testing::TempDir() + "/tacc_tiny.tune";
    {
        std::ofstream out(path);
        out << "optimizer: sa\nbudget: 5\nparams: w_qos\njobs: 10\n";
    }
    auto spec = load_tune_spec(path);
    ASSERT_TRUE(spec.is_ok()) << spec.status().str();
    EXPECT_EQ(spec.value().budget, 5);
    EXPECT_FALSE(load_tune_spec("/nonexistent/x.tune").is_ok());
}

} // namespace
} // namespace tacc::tune
