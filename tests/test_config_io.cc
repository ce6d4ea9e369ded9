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

TEST(ConfigIo, RejectsNonFiniteNumbers)
{
    // NaN passes every range check, so it must be refused as a number.
    for (const char *text :
         {"oversubscription: nan\n", "nic_gbps: nan\n", "nic_gbps: inf\n",
          "w_age: nan\n", "mtbf_hours: -inf\n",
          "checkpoint_interval_s: nan\n"}) {
        SCOPED_TRACE(text);
        const auto parsed = parse_stack_config(text);
        ASSERT_FALSE(parsed.is_ok());
        EXPECT_NE(parsed.status().message().find("bad value for"),
                  std::string::npos)
            << parsed.status().str();
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
