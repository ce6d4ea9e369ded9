/**
 * @file
 * Tests for the deployment-config dialect.
 */
#include <gtest/gtest.h>

#include "core/config_io.h"

namespace tacc::core {
namespace {

TEST(ConfigIo, EmptyTextGivesDefaults)
{
    auto config = parse_stack_config("");
    ASSERT_TRUE(config.is_ok());
    EXPECT_EQ(config.value().scheduler, "fairshare");
    EXPECT_EQ(config.value().cluster.topology.racks, 4);
}

TEST(ConfigIo, ParsesFullDeployment)
{
    const char *text =
        "# campus deployment\n"
        "cluster: hkust\n"
        "racks: 3\n"
        "nodes_per_rack: 6\n"
        "gpus_per_node: 8\n"
        "gpu: A100,312,80\n"
        "rack_override: 2,V100,125,32,4\n"
        "oversubscription: 4\n"
        "nic_gbps: 200\n"
        "scheduler: backfill-pred\n"
        "placement: pack\n"
        "usage_half_life_h: 12\n"
        "quota: cv-lab,64\n"
        "quota: nlp-lab,96\n"
        "default_quota: 32\n"
        "avoid_gpu_mixing: true\n"
        "rdma: true\n"
        "innetwork: false\n"
        "failsafe: true\n"
        "spine_contention: false\n"
        "mtbf_hours: 1000\n"
        "persistent_failure_prob: 0.05\n"
        "checkpoint_interval_s: 600\n"
        "seed: 9\n";
    auto parsed = parse_stack_config(text);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().str();
    const StackConfig &c = parsed.value();
    EXPECT_EQ(c.cluster.name, "hkust");
    EXPECT_EQ(c.cluster.topology.racks, 3);
    EXPECT_EQ(c.cluster.topology.nodes_per_rack, 6);
    EXPECT_EQ(c.cluster.node.gpu.model, "A100");
    ASSERT_TRUE(c.cluster.rack_node_overrides.contains(2));
    EXPECT_EQ(c.cluster.rack_node_overrides.at(2).gpu.model, "V100");
    EXPECT_EQ(c.cluster.rack_node_overrides.at(2).gpu_count, 4);
    EXPECT_DOUBLE_EQ(c.cluster.topology.oversubscription, 4.0);
    EXPECT_DOUBLE_EQ(c.cluster.topology.nic_gbps, 200.0);
    EXPECT_DOUBLE_EQ(c.cluster.node.nic_gbps, 200.0);
    EXPECT_EQ(c.scheduler, "backfill-pred");
    EXPECT_EQ(c.placement, "pack");
    EXPECT_EQ(c.usage_half_life, Duration::hours(12));
    EXPECT_EQ(c.group_quotas.at("cv-lab"), 64);
    EXPECT_EQ(c.group_quotas.at("nlp-lab"), 96);
    EXPECT_EQ(c.default_group_quota, 32);
    EXPECT_TRUE(c.avoid_gpu_mixing);
    EXPECT_FALSE(c.exec.innetwork_available);
    EXPECT_FALSE(c.exec.model_spine_contention);
    EXPECT_DOUBLE_EQ(c.exec.failure.node_mtbf_hours, 1000.0);
    EXPECT_DOUBLE_EQ(c.exec.failure.persistent_prob, 0.05);
    EXPECT_DOUBLE_EQ(c.exec.checkpoint_interval_s, 600.0);
    EXPECT_EQ(c.seed, 9u);

    // The parsed config must boot a working stack.
    TaccStack stack(c);
    EXPECT_EQ(stack.cluster().total_gpus(), 2 * 6 * 8 + 6 * 4);
}

TEST(ConfigIo, RoundTrip)
{
    StackConfig config;
    config.cluster.name = "x";
    config.cluster.topology.racks = 2;
    config.scheduler = "las";
    config.group_quotas["g"] = 10;
    config.avoid_gpu_mixing = true;
    config.exec.checkpoint_interval_s = 300;
    cluster::NodeSpec old = config.cluster.node;
    old.gpu.model = "P100";
    old.gpu.tflops = 65;
    config.cluster.rack_node_overrides[1] = old;

    auto parsed = parse_stack_config(stack_config_to_text(config));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().str();
    EXPECT_EQ(stack_config_to_text(parsed.value()),
              stack_config_to_text(config));
}

TEST(ConfigIo, RejectsBadInput)
{
    EXPECT_FALSE(parse_stack_config("no colon").is_ok());
    EXPECT_FALSE(parse_stack_config("unknown_key: 1\n").is_ok());
    EXPECT_FALSE(parse_stack_config("racks: -1\n").is_ok());
    EXPECT_FALSE(parse_stack_config("racks: soup\n").is_ok());
    EXPECT_FALSE(parse_stack_config("gpu: A100,312\n").is_ok());
    EXPECT_FALSE(parse_stack_config("scheduler: bogus\n").is_ok());
    EXPECT_FALSE(parse_stack_config("placement: bogus\n").is_ok());
    EXPECT_FALSE(parse_stack_config("oversubscription: 0.5\n").is_ok());
    EXPECT_FALSE(
        parse_stack_config("persistent_failure_prob: 2\n").is_ok());
    EXPECT_FALSE(parse_stack_config("avoid_gpu_mixing: maybe\n").is_ok());
    EXPECT_FALSE(parse_stack_config("quota: justgroup\n").is_ok());
    EXPECT_FALSE(parse_stack_config("rack_override: 1,V100\n").is_ok());
    EXPECT_FALSE(parse_stack_config("usage_half_life_h: 0\n").is_ok());
}

// The tuple keys read every field with the shared number grammar and
// bound it: tflops > 0, memory_gb >= 0, gpu counts > 0, watts >= 0.
void
expect_tuple_rejected(const std::string &key, const std::string &value)
{
    const auto parsed = parse_stack_config(key + ": " + value + "\n");
    ASSERT_FALSE(parsed.is_ok()) << key << ": " << value;
    EXPECT_NE(parsed.status().message().find("line 1: bad value for " + key),
              std::string::npos)
        << parsed.status().str();
}

TEST(ConfigIo, GpuTupleFieldsAreNumbersInRange)
{
    auto ok = parse_stack_config("gpu: H100, 989.5 ,80\n");
    ASSERT_TRUE(ok.is_ok()) << ok.status().str();
    EXPECT_EQ(ok.value().cluster.node.gpu.model, "H100");
    EXPECT_EQ(ok.value().cluster.node.gpu.tflops, 989.5);
    EXPECT_EQ(ok.value().cluster.node.gpu.memory_gb, 80.0);
    EXPECT_TRUE(parse_stack_config("gpu: T4,65,0\n").is_ok());
    for (const char *value :
         {"A100,nan,80", "A100,312junk,-80", "A100,312,-80", "A100,0,80",
          "A100,-312,80", "A100,312,inf", "A100,+312,80", ",312,80",
          "A100,312,80,1"}) {
        expect_tuple_rejected("gpu", value);
    }
}

TEST(ConfigIo, RackOverrideTupleFieldsAreNumbersInRange)
{
    auto ok = parse_stack_config("rack_override: 0,V100,125,32,4\n");
    ASSERT_TRUE(ok.is_ok()) << ok.status().str();
    EXPECT_EQ(ok.value().cluster.rack_node_overrides.at(0).gpu_count, 4);
    for (const char *value :
         {"-1,V100,125,32,4", "1.5,V100,125,32,4", "1,V100,nan,32,4",
          "1,V100,0,32,4", "1,V100,125,-1,4", "1,V100,125,32,0",
          "1,V100,125,32,4x", "1,V100,125,32,4294967296",
          "+1,V100,125,32,4"}) {
        expect_tuple_rejected("rack_override", value);
    }
}

TEST(ConfigIo, QuotaTupleCapIsASignedInt)
{
    auto ok = parse_stack_config("quota: lab,64\nquota: free,-1\n");
    ASSERT_TRUE(ok.is_ok()) << ok.status().str();
    EXPECT_EQ(ok.value().group_quotas.at("lab"), 64);
    EXPECT_EQ(ok.value().group_quotas.at("free"), -1);
    for (const char *value : {"lab,nan", "lab,64x", "lab,6.4", "lab,+64",
                              "lab,2147483648", "lab,", ",64"}) {
        expect_tuple_rejected("quota", value);
    }
}

TEST(ConfigIo, PowerGpuWTupleWattsAreNonNegative)
{
    auto ok = parse_stack_config("power_gpu_w: 55,350\n"
                                 "power_gpu_w: H100,70,700\n");
    ASSERT_TRUE(ok.is_ok()) << ok.status().str();
    EXPECT_EQ(ok.value().power.default_gpu.idle_w, 55.0);
    EXPECT_EQ(ok.value().power.default_gpu.active_w, 350.0);
    EXPECT_EQ(ok.value().power.gpu_power.at("H100").active_w, 700.0);
    for (const char *value : {"nan,350", "55,inf", "-1,350", "55,-350",
                              "H100,70,nan", "H100,-70,700", "55",
                              "H100,70,700,1", "55,350x"}) {
        expect_tuple_rejected("power_gpu_w", value);
    }
}

TEST(ConfigIo, ErrorsCarryLineNumbers)
{
    auto unknown = parse_stack_config("racks: 2\n\nwarp_drive: 9\n");
    ASSERT_FALSE(unknown.is_ok());
    EXPECT_NE(unknown.status().message().find("line 3:"),
              std::string::npos)
        << unknown.status().str();

    auto malformed = parse_stack_config("racks: 2\nno colon\n");
    ASSERT_FALSE(malformed.is_ok());
    EXPECT_NE(malformed.status().message().find("line 2:"),
              std::string::npos)
        << malformed.status().str();

    auto range = parse_stack_config("oversubscription: 0.5\n");
    ASSERT_FALSE(range.is_ok());
    EXPECT_NE(range.status().message().find("line 1:"),
              std::string::npos)
        << range.status().str();
}

} // namespace
} // namespace tacc::core
