/**
 * @file
 * The one reader behind every `key: value` input: the number grammar, the
 * line loop, the checked-in inputs parsed in place, and one table of
 * malformed tokens across the deployment, sweep, tune and task-spec
 * dialects (also the seed corpus for an input fuzzer).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/config_io.h"
#include "driver/sweep.h"
#include "tune/tuner.h"
#include "workload/task_spec.h"

namespace tacc {
namespace {

TEST(NumberGrammar, AcceptsWholeDecimalTokensInRange)
{
    int i = 0;
    EXPECT_TRUE(parse_number("42", 0, 100, &i));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parse_number("-1", -1, 10, &i));
    EXPECT_EQ(i, -1);
    EXPECT_TRUE(parse_number("007", 0, 10, &i));
    EXPECT_EQ(i, 7);
    uint64_t u = 0;
    EXPECT_TRUE(parse_number("18446744073709551615", 0, UINT64_MAX, &u));
    EXPECT_EQ(u, UINT64_MAX);
    int64_t l = 0;
    EXPECT_TRUE(parse_number("-9223372036854775808", INT64_MIN, INT64_MAX,
                             &l));
    EXPECT_EQ(l, INT64_MIN);
    double d = 0;
    EXPECT_TRUE(parse_number("1.5e3", 0.0, 1e4, &d));
    EXPECT_EQ(d, 1500.0);
    EXPECT_TRUE(parse_number("-0.25", -1.0, 0.0, &d));
    EXPECT_EQ(d, -0.25);
    EXPECT_TRUE(parse_number(".5", 0.0, 1.0, &d));
    EXPECT_EQ(d, 0.5);
    EXPECT_TRUE(parse_number("0.1", kAboveZero, 1.0, &d));
    EXPECT_EQ(d, 0.1); // the same double strtod gives
}

TEST(NumberGrammar, RejectsEverythingElseAndLeavesTheFieldAlone)
{
    double d = 7;
    for (const char *token :
         {"", " 1", "1 ", "+1", "0x10", "0x1p3", "1e", "abc", "2x", "nan",
          "-nan", "inf", "-inf", "infinity", "1e999", "-1e999", "1,5"}) {
        SCOPED_TRACE(token);
        EXPECT_FALSE(parse_number(token, -DBL_MAX, DBL_MAX, &d));
    }
    EXPECT_EQ(d, 7.0);
    int i = 7;
    for (const char *token :
         {"4294967296", "2147483648", "-2147483649", "1.5", "1e3", "+2",
          "0x10"}) {
        SCOPED_TRACE(token);
        EXPECT_FALSE(parse_number(token, INT_MIN, INT_MAX, &i));
    }
    EXPECT_EQ(i, 7);
    uint64_t u = 7;
    EXPECT_FALSE(parse_number("-1", 0, UINT64_MAX, &u));
    EXPECT_FALSE(parse_number("-0", 0, UINT64_MAX, &u));
    EXPECT_FALSE(parse_number("18446744073709551616", 0, UINT64_MAX, &u));
    EXPECT_EQ(u, 7u);
    // The bounds are inclusive; kAboveZero and nextafter make them open.
    EXPECT_FALSE(parse_number("0", kAboveZero, DBL_MAX, &d));
    EXPECT_FALSE(parse_number("1", 0.0, std::nextafter(1.0, 0.0), &d));
    EXPECT_FALSE(parse_number("11", 0, 10, &i));
}

TEST(KvLines, SkipsBlanksAndCommentsAndNumbersEveryError)
{
    std::vector<std::string> seen;
    auto collect = [&](const std::string &key, const std::string &value) {
        seen.push_back(key + "=" + value);
        return key == "bad" ? bad_value(key, value) : Status::ok();
    };
    EXPECT_TRUE(for_each_kv_line("\n# c: x\n  a :  1 \r\n\tb:x:y\n", collect)
                    .is_ok());
    EXPECT_EQ(seen, (std::vector<std::string>{"a=1", "b=x:y"}));

    const Status bad = for_each_kv_line("a: 1\n\nbad: 2x\nc: 3\n", collect);
    EXPECT_EQ(bad.message(), "line 3: bad value for bad: 2x");
    EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
    const Status malformed = for_each_kv_line("a: 1\nno colon\n", collect);
    EXPECT_EQ(malformed.message(), "line 2: malformed line: no colon");
}

TEST(KvLines, ReadTextFileReportsAMissingFile)
{
    const auto missing = read_text_file("/nonexistent/dir/file.spec");
    ASSERT_FALSE(missing.is_ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ---- Checked-in inputs, parsed where they live -------------------------

std::vector<std::filesystem::path>
checked_in(const std::string &dir, const std::string &ext)
{
    std::vector<std::filesystem::path> out;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::path(TACC_SOURCE_DIR) / dir)) {
        if (entry.path().extension() == ext)
            out.push_back(entry.path());
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(CheckedInInputs, PresetsRoundTripThroughTheRenderer)
{
    const auto presets = checked_in("presets", ".conf");
    ASSERT_FALSE(presets.empty());
    for (const auto &path : presets) {
        SCOPED_TRACE(path.string());
        const auto text = read_text_file(path.string());
        ASSERT_TRUE(text.is_ok()) << text.status().str();
        const auto config = core::parse_stack_config(text.value());
        ASSERT_TRUE(config.is_ok()) << config.status().str();
        // The renderer writes every key and no comments.
        std::string body;
        for (const auto &line : split(text.value(), '\n')) {
            if (!line.empty() && line[0] != '#')
                body += line + "\n";
        }
        EXPECT_EQ(core::stack_config_to_text(config.value()), body);
    }
}

TEST(CheckedInInputs, TuneAndSweepSpecsParse)
{
    std::vector<std::filesystem::path> tune = checked_in("presets", ".tune");
    std::vector<std::filesystem::path> sweep = {
        std::filesystem::path(TACC_SOURCE_DIR) /
            "tests/fixtures/one_scenario.spec",
        std::filesystem::path(TACC_SOURCE_DIR) / "perfbench/ci_sweep.spec"};
    for (const auto &path : checked_in("tests/goldens", ".spec")) {
        (path.filename().string().find("tune") != std::string::npos ? tune
                                                                     : sweep)
            .push_back(path);
    }
    ASSERT_GE(tune.size(), 3u);
    ASSERT_GE(sweep.size(), 6u);
    for (const auto &path : tune) {
        const auto spec = tune::load_tune_spec(path.string());
        EXPECT_TRUE(spec.is_ok()) << path << ": " << spec.status().str();
    }
    for (const auto &path : sweep) {
        const auto spec = driver::load_sweep_spec(path.string());
        ASSERT_TRUE(spec.is_ok()) << path << ": " << spec.status().str();
        EXPECT_GE(spec.value().grid_size(), 1u) << path;
    }
}

// ---- One table of malformed tokens ---------------------------------------

enum class Kind {
    kDouble,   ///< any finite double
    kInt,      ///< an int field
    kInt64,    ///< an int64 field
    kUnsigned, ///< a uint64 field: no sign at all
};

/** A numeric key of one dialect; `value` wraps the token ("%" marks it)
 *  for list and tuple keys. */
struct NumericKey {
    constexpr NumericKey(const char *dialect, const char *key, Kind kind,
                         const char *value = "%")
        : dialect(dialect), key(key), kind(kind), value(value)
    {
    }
    const char *dialect;
    const char *key;
    Kind kind;
    const char *value;
};

const NumericKey kNumericKeys[] = {
    // Deployment config (core/config_io).
    {"config", "racks", Kind::kInt},
    {"config", "nodes_per_rack", Kind::kInt},
    {"config", "gpus_per_node", Kind::kInt},
    {"config", "gpu", Kind::kDouble, "A100,%,80"},
    {"config", "gpu", Kind::kDouble, "A100,312,%"},
    {"config", "rack_override", Kind::kInt, "%,V100,125,32,4"},
    {"config", "rack_override", Kind::kDouble, "2,V100,%,32,4"},
    {"config", "rack_override", Kind::kDouble, "2,V100,125,%,4"},
    {"config", "rack_override", Kind::kInt, "2,V100,125,32,%"},
    {"config", "oversubscription", Kind::kDouble},
    {"config", "nic_gbps", Kind::kDouble},
    {"config", "nvlink_gbps", Kind::kDouble},
    {"config", "w_age", Kind::kDouble},
    {"config", "w_fairshare", Kind::kDouble},
    {"config", "w_qos", Kind::kDouble},
    {"config", "w_size", Kind::kDouble},
    {"config", "backfill_depth", Kind::kInt},
    {"config", "gang_quantum_s", Kind::kDouble},
    {"config", "las_threshold_gpu_s", Kind::kDouble},
    {"config", "preempt_cost_gpu_s", Kind::kDouble},
    {"config", "usage_half_life_h", Kind::kDouble},
    {"config", "quota", Kind::kInt, "lab,%"},
    {"config", "default_quota", Kind::kInt},
    {"config", "mtbf_hours", Kind::kDouble},
    {"config", "persistent_failure_prob", Kind::kDouble},
    {"config", "checkpoint_interval_s", Kind::kDouble},
    {"config", "checkpoint_cost_s", Kind::kDouble},
    {"config", "restart_overhead_s", Kind::kDouble},
    {"config", "power_cluster_cap_w", Kind::kDouble},
    {"config", "power_rack_cap_w", Kind::kDouble},
    {"config", "power_pdu_cap_w", Kind::kDouble},
    {"config", "power_racks_per_pdu", Kind::kInt},
    {"config", "power_host_idle_w", Kind::kDouble},
    {"config", "power_gpu_w", Kind::kDouble, "%,400"},
    {"config", "power_gpu_w", Kind::kDouble, "60,%"},
    {"config", "power_gpu_w", Kind::kDouble, "H100,%,700"},
    {"config", "power_gpu_w", Kind::kDouble, "H100,70,%"},
    {"config", "power_dvfs_exponent", Kind::kDouble},
    {"config", "power_min_clock", Kind::kDouble},
    {"config", "predict_decay", Kind::kDouble},
    {"config", "predict_sample_floor", Kind::kInt},
    {"config", "predict_safety_min", Kind::kDouble},
    {"config", "predict_safety_max", Kind::kDouble},
    {"config", "predict_bias", Kind::kDouble},
    {"config", "predict_forecast_alpha", Kind::kDouble},
    {"config", "predict_forecast_beta", Kind::kDouble},
    {"config", "seed", Kind::kUnsigned},
    // Sweep spec (driver/sweep), its own keys and the shared scenario
    // keys.
    {"sweep", "loads", Kind::kDouble},
    {"sweep", "loads", Kind::kDouble, "0.5,%"},
    {"sweep", "seeds", Kind::kUnsigned, "1,%"},
    {"sweep", "power_caps", Kind::kDouble, "0,%"},
    {"sweep", "mispredict_bias", Kind::kDouble},
    {"sweep", "bursts", Kind::kDouble},
    {"sweep", "serve_rate_hz", Kind::kDouble},
    {"sweep", "serve_horizon_s", Kind::kDouble},
    {"sweep", "node_mtbf_hours", Kind::kDouble},
    {"sweep", "jobs", Kind::kInt},
    {"sweep", "interarrival_s", Kind::kDouble},
    {"sweep", "frac_interactive", Kind::kDouble},
    {"sweep", "frac_best_effort", Kind::kDouble},
    {"sweep", "frac_deadline", Kind::kDouble},
    {"sweep", "frac_elastic", Kind::kDouble},
    {"sweep", "racks", Kind::kInt},
    {"sweep", "nodes_per_rack", Kind::kInt},
    {"sweep", "gpus_per_node", Kind::kInt},
    {"sweep", "oversubscription", Kind::kDouble},
    {"sweep", "max_events", Kind::kUnsigned},
    {"sweep", "stream_window", Kind::kUnsigned},
    // Tune spec (tune/tuner), its own keys and some shared ones.
    {"tune", "budget", Kind::kInt},
    {"tune", "seed", Kind::kUnsigned},
    {"tune", "sa_chains", Kind::kInt},
    {"tune", "sa_init_temp", Kind::kDouble},
    {"tune", "sa_cooling", Kind::kDouble},
    {"tune", "sa_step", Kind::kDouble},
    {"tune", "ga_population", Kind::kInt},
    {"tune", "ga_elites", Kind::kInt},
    {"tune", "ga_tournament", Kind::kInt},
    {"tune", "ga_mutation", Kind::kDouble},
    {"tune", "w_mean_jct", Kind::kDouble},
    {"tune", "w_p99_jct", Kind::kDouble},
    {"tune", "w_fairness", Kind::kDouble},
    {"tune", "w_energy", Kind::kDouble},
    {"tune", "w_slo", Kind::kDouble},
    {"tune", "jct_ref_s", Kind::kDouble},
    {"tune", "energy_ref_kwh", Kind::kDouble},
    {"tune", "eval_seeds", Kind::kUnsigned, "1,%"},
    {"tune", "power_cap_w", Kind::kDouble},
    {"tune", "jobs", Kind::kInt},
    {"tune", "oversubscription", Kind::kDouble},
    {"tune", "max_events", Kind::kUnsigned},
    {"tune", "stream_window", Kind::kUnsigned},
    // Task spec (workload/task_spec).
    {"task", "gpus", Kind::kInt},
    {"task", "gpus_per_node_limit", Kind::kInt},
    {"task", "cpu_cores_per_gpu", Kind::kInt},
    {"task", "memory_gb_per_gpu", Kind::kDouble},
    {"task", "time_limit_s", Kind::kInt64},
    {"task", "deadline_s", Kind::kInt64},
    {"task", "iterations", Kind::kInt64},
    {"task", "artifact", Kind::kUnsigned, "code,%,1"},
    {"task", "artifact", Kind::kUnsigned, "code,1000,%"},
    {"task", "min_gpus", Kind::kInt},
    {"task", "max_gpus", Kind::kInt},
};

/** The bad tokens for a field kind. */
std::vector<std::string>
bad_tokens(Kind kind)
{
    std::vector<std::string> tokens = {"",    "abc", "2x",    "nan",
                                       "inf", "+2",  "1e999"};
    switch (kind) {
      case Kind::kDouble: tokens.push_back("-inf"); break;
      case Kind::kInt: tokens.push_back("4294967296"); break;
      case Kind::kInt64: tokens.push_back("9223372036854775808"); break;
      case Kind::kUnsigned: tokens.push_back("-1"); break;
    }
    return tokens;
}

Status
parse_in(const std::string &dialect, const std::string &text)
{
    if (dialect == "config")
        return core::parse_stack_config(text).status();
    if (dialect == "sweep")
        return driver::parse_sweep_spec(text).status();
    if (dialect == "tune")
        return tune::parse_tune_spec(text).status();
    return workload::TaskSpec::parse(text).status();
}

/** Feeds every table row of `dialect` each bad token of its kind on line 2
 *  and returns how many cases ran. */
size_t
expect_rejected(const std::string &dialect)
{
    size_t cases = 0;
    for (const NumericKey &k : kNumericKeys) {
        if (k.dialect != dialect)
            continue;
        for (const std::string &token : bad_tokens(k.kind)) {
            std::string value = k.value;
            value.replace(value.find('%'), 1, token);
            const std::string line = std::string(k.key) + ": " + value;
            SCOPED_TRACE(dialect + " | " + line);
            const Status s = parse_in(dialect, "# bad on line 2\n" + line);
            EXPECT_FALSE(s.is_ok());
            EXPECT_NE(s.message().find("line 2:"), std::string::npos)
                << s.str();
            EXPECT_NE(s.message().find(std::string("bad value for ") + k.key),
                      std::string::npos)
                << s.str();
            ++cases;
        }
    }
    return cases;
}

// One test per dialect, all over the one table; the first three keep the
// names of the per-dialect non-finite checks they absorbed.

TEST(ConfigIo, RejectsNonFiniteNumbers)
{
    EXPECT_EQ(expect_rejected("config"), 8 * 47u);
}

TEST(SweepSpecParse, RejectsNonFiniteNumbers)
{
    EXPECT_EQ(expect_rejected("sweep"), 8 * 21u);
}

TEST(TuneSpecParse, RejectsNonFiniteNumbers)
{
    EXPECT_EQ(expect_rejected("tune"), 8 * 23u);
}

TEST(InputDialects, RejectsMalformedNumbersWithLineAndKey)
{
    EXPECT_EQ(expect_rejected("task"), 8 * 11u);
    // Every row belongs to one of the four dialects above.
    EXPECT_EQ(47u + 21 + 23 + 11, std::size(kNumericKeys));
}

} // namespace
} // namespace tacc
