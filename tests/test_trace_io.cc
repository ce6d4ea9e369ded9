/**
 * @file
 * Tests for trace CSV import/export.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <utility>

#include "common/strings.h"
#include "workload/stream.h"
#include "workload/trace_io.h"

namespace tacc::workload {
namespace {

std::vector<SubmittedTask>
sample_trace(int n = 50)
{
    TraceConfig config;
    config.num_jobs = n;
    config.seed = 77;
    config.frac_deadline = 0.3;
    config.frac_elastic = 0.3;
    return TraceGenerator(config).generate();
}

TEST(TraceIo, RoundTripsSchedulingFields)
{
    const auto original = sample_trace();
    auto parsed = trace_from_csv(trace_to_csv(original));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().str();
    ASSERT_EQ(parsed.value().size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
        const auto &a = original[i];
        const auto &b = parsed.value()[i];
        EXPECT_EQ(a.arrival, b.arrival);
        EXPECT_EQ(a.spec.name, b.spec.name);
        EXPECT_EQ(a.spec.user, b.spec.user);
        EXPECT_EQ(a.spec.group, b.spec.group);
        EXPECT_EQ(a.spec.gpus, b.spec.gpus);
        EXPECT_EQ(a.spec.gpu_model, b.spec.gpu_model);
        EXPECT_EQ(a.spec.qos, b.spec.qos);
        EXPECT_EQ(a.spec.preemptible, b.spec.preemptible);
        EXPECT_EQ(a.spec.model, b.spec.model);
        EXPECT_EQ(a.spec.iterations, b.spec.iterations);
        // Durations round to whole seconds in the wire format.
        EXPECT_NEAR(a.spec.time_limit.to_seconds(),
                    b.spec.time_limit.to_seconds(), 1.0);
        EXPECT_NEAR(a.spec.deadline.to_seconds(),
                    b.spec.deadline.to_seconds(), 1.0);
        EXPECT_EQ(a.spec.min_gpus, b.spec.min_gpus);
        EXPECT_EQ(a.spec.max_gpus, b.spec.max_gpus);
        // Artifacts are reconstructed, not transported.
        EXPECT_FALSE(b.spec.artifacts.empty());
    }
}

TEST(TraceIo, SecondRoundTripIsExact)
{
    const auto original = sample_trace(20);
    auto once = trace_from_csv(trace_to_csv(original));
    ASSERT_TRUE(once.is_ok());
    const std::string csv = trace_to_csv(once.value());
    auto twice = trace_from_csv(csv);
    ASSERT_TRUE(twice.is_ok());
    EXPECT_EQ(trace_to_csv(twice.value()), csv);
}

TEST(TraceIo, RejectsMalformedInput)
{
    EXPECT_FALSE(trace_from_csv("").is_ok());
    EXPECT_FALSE(trace_from_csv("not,a,header\n").is_ok());
    const auto csv = trace_to_csv(sample_trace(3));
    // Truncated row.
    EXPECT_FALSE(trace_from_csv(csv + "1.0,only,three\n").is_ok());
    // Non-numeric gpus.
    auto broken = csv;
    const auto pos = broken.find('\n', broken.find('\n') + 1);
    EXPECT_FALSE(
        trace_from_csv(csv + "9.0,j,u,g,soup,,batch,1,resnet50,10,60,0,0,0\n")
            .is_ok());
    (void)pos;
    // Unsorted arrivals.
    EXPECT_FALSE(
        trace_from_csv(csv + "0.0,j,u,g,1,,batch,1,resnet50,10,60,0,0,0\n")
            .is_ok());
    // Semantically invalid (gpus 0).
    EXPECT_FALSE(trace_from_csv(
                     std::string("arrival_s,name,user,group,gpus,gpu_model,"
                                 "qos,preemptible,model,iterations,"
                                 "time_limit_s,deadline_s,min_gpus,"
                                 "max_gpus\n") +
                     "1.0,j,u,g,0,,batch,1,resnet50,10,60,0,0,0\n")
                     .is_ok());
}

// Every other number goes through the shared grammar too: "4abc" and
// "8.5" are not 4 and 8 GPUs, "1e3" is not 1 iteration, and a time limit
// must fit Duration::seconds.
TEST(TraceIo, RejectsMalformedNumbers)
{
    const std::string header = std::string(trace_csv_header()) + "\n";
    const std::string good = "0,j,u,g,4,,batch,1,resnet50,10,60,0,0,0";
    ASSERT_TRUE(trace_from_csv(header + good + "\n").is_ok());
    const auto names = split(trace_csv_header(), ',');
    const std::pair<size_t, const char *> cases[] = {
        {4, "4abc"}, {4, "8.5"}, {4, "4294967297"}, {4, "+4"},
        {9, "1e3"}, {9, "10x"}, {10, "9223372036855"},
        {11, "-9223372036855"}, {12, "nan"}, {13, ""}};
    for (const auto &[field, token] : cases) {
        auto fields = split(good, ',');
        fields[field] = token;
        SCOPED_TRACE(join(fields, ","));
        const auto parsed = trace_from_csv(header + join(fields, ",") + "\n");
        ASSERT_FALSE(parsed.is_ok());
        EXPECT_NE(parsed.status().message().find("row 1: bad value for " +
                                                 names[field]),
                  std::string::npos)
            << parsed.status().str();
    }
}

// Arrivals the simulator cannot reach (before the origin, non-finite, or
// past the microsecond range) are rejected with a Status, both by the
// whole-file parser and by the streaming reader sharing its row parser.
TEST(TraceIo, RejectsUnreachableArrivals)
{
    const std::string row_tail = ",j,u,g,1,,batch,1,resnet50,10,60,0,0,0\n";
    const std::string path = ::testing::TempDir() + "/tacc_bad_arrival.csv";
    for (const char *arrival :
         {"-5", "-0.000001", "nan", "-nan", "inf", "-inf", "1e300",
          "9.3e12"}) {
        SCOPED_TRACE(arrival);
        const std::string csv =
            std::string(trace_csv_header()) + "\n" + arrival + row_tail;
        const auto parsed = trace_from_csv(csv);
        ASSERT_FALSE(parsed.is_ok());
        EXPECT_NE(parsed.status().str().find("bad arrival_s"),
                  std::string::npos)
            << parsed.status().str();

        FILE *file = std::fopen(path.c_str(), "w");
        ASSERT_NE(file, nullptr);
        std::fputs(csv.c_str(), file);
        std::fclose(file);
        FileTraceStream stream(path);
        std::vector<SubmittedTask> out;
        EXPECT_EQ(stream.pull(out, 8), 0u);
        EXPECT_TRUE(out.empty());
        EXPECT_NE(stream.status().str().find("bad arrival_s"),
                  std::string::npos)
            << stream.status().str();
    }
    std::remove(path.c_str());
    // The edges that stay valid: zero, and a large but representable time.
    const auto edges = trace_from_csv(std::string(trace_csv_header()) + "\n" +
                                      "0" + row_tail + "9.2e12" + row_tail);
    ASSERT_TRUE(edges.is_ok()) << edges.status().str();
    EXPECT_EQ(edges.value()[1].arrival.to_micros(), int64_t(9.2e18));
}

TEST(TraceIo, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/tacc_trace.csv";
    const auto original = sample_trace(10);
    ASSERT_TRUE(write_trace_file(path, original).is_ok());
    auto loaded = read_trace_file(path);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().str();
    EXPECT_EQ(loaded.value().size(), original.size());
    std::remove(path.c_str());
    EXPECT_FALSE(read_trace_file(path + ".does-not-exist").is_ok());
}

TEST(TraceIo, ImportedTraceRunsOnAStack)
{
    // The reconstructed artifacts must be acceptable to the compiler.
    const auto csv = trace_to_csv(sample_trace(5));
    auto parsed = trace_from_csv(csv);
    ASSERT_TRUE(parsed.is_ok());
    for (const auto &entry : parsed.value())
        EXPECT_TRUE(entry.spec.validate().is_ok());
}

} // namespace
} // namespace tacc::workload
