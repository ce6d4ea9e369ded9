/**
 * @file
 * T14 — Parallel sweep scaling and determinism (the driver subsystem).
 *
 * Runs the same 24-scenario policy grid serially (1 worker), in
 * parallel (min(8, hardware) workers) and oversubscribed (32 workers),
 * interleaved over several rounds, and reports the per-round wall-clock
 * ratio of serial to parallel — the controlled comparison on a shared
 * machine whose absolute throughput drifts between rounds. After every
 * run the digests are byte-compared: parallelism must be pure
 * throughput, never a behaviour change.
 *
 * Exit code enforces both floors: digests identical at every worker
 * count in every round, and a median speedup of at least 0.95x (0.50x
 * on a single hardware thread, where a speedup is impossible and only
 * pathological pool overhead is guarded against).
 *
 * TACC_BENCH_JOBS caps the per-scenario trace length (CI smoke);
 * TACC_BENCH_ROUNDS overrides the round count (default 3). --json FILE
 * writes the machine-readable verdicts bench-smoke asserts on.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "driver/runner.h"

using namespace tacc;

namespace {

driver::SweepSpec
scaling_spec()
{
    driver::SweepSpec spec;
    spec.base.stack = bench::default_stack();
    spec.base.trace = bench::default_trace(120, 42);
    spec.schedulers = {"fairshare", "fifo-skip", "backfill-easy"};
    spec.placements = {"topology", "pack"};
    spec.preempt_modes = {"graceful"};
    spec.loads = {1.0, 1.4};
    spec.seeds = {1, 2};
    return spec;
}

int
rounds_from_env()
{
    if (const char *env = std::getenv("TACC_BENCH_ROUNDS")) {
        const int n = std::atoi(env);
        if (n > 0 && n <= 100)
            return n;
    }
    return 3;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values.empty() ? 0.0 : values[values.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--json FILE]\n", argv[0]);
            return 2;
        }
    }

    const driver::SweepSpec spec = scaling_spec();
    const int hardware = ThreadPool::hardware_threads();
    const int parallel_workers = std::min(8, hardware);
    const int oversub_workers = 32;
    const int rounds = rounds_from_env();

    std::printf("T14: parallel sweep — %zu scenarios x %d jobs, "
                "1 vs %d vs %d workers, %d interleaved rounds\n",
                spec.grid_size(), spec.base.trace.num_jobs,
                parallel_workers, oversub_workers, rounds);

    TextTable table("T14: sweep scaling (interleaved rounds)");
    table.set_header({"round", "serial(s)", "parallel(s)", "oversub(s)",
                      "speedup", "digests"});

    std::vector<double> ratios, serial_ms, parallel_ms, oversub_ms;
    bool all_identical = true;
    std::string reference_digests;
    for (int round = 1; round <= rounds; ++round) {
        const auto serial = driver::run_sweep(spec, 1);
        const auto parallel = driver::run_sweep(spec, parallel_workers);
        const auto oversub = driver::run_sweep(spec, oversub_workers);

        const std::string serial_text = driver::digests_text(serial);
        if (reference_digests.empty())
            reference_digests = serial_text;
        // Round-to-round drift would be nondeterminism even at 1 worker.
        const bool identical =
            serial_text == reference_digests &&
            driver::digests_text(parallel) == reference_digests &&
            driver::digests_text(oversub) == reference_digests;
        all_identical = all_identical && identical;

        const double ratio = parallel.wall_ms > 0
                                 ? serial.wall_ms / parallel.wall_ms
                                 : 0.0;
        ratios.push_back(ratio);
        serial_ms.push_back(serial.wall_ms);
        parallel_ms.push_back(parallel.wall_ms);
        oversub_ms.push_back(oversub.wall_ms);
        table.add_row({std::to_string(round),
                       TextTable::fixed(serial.wall_ms / 1000.0, 2),
                       TextTable::fixed(parallel.wall_ms / 1000.0, 2),
                       TextTable::fixed(oversub.wall_ms / 1000.0, 2),
                       TextTable::fixed(ratio, 2),
                       identical ? "identical" : "DRIFT"});
    }

    const double speedup = median(ratios);
    const double efficiency = speedup / parallel_workers;
    const double floor = hardware >= 2 ? 0.95 : 0.50;
    const bool parallel_floor_ok = speedup >= floor;
    std::fputs(table.str().c_str(), stdout);
    std::printf("median speedup %.2fx at %d workers (efficiency %.2f, "
                "hardware_threads %d): floor %.2fx %s; digests %s\n",
                speedup, parallel_workers, efficiency, hardware, floor,
                parallel_floor_ok ? "met" : "VIOLATED",
                all_identical ? "identical at every worker count"
                              : "DRIFTED — determinism violation");

    if (!json_path.empty()) {
        std::ofstream out(json_path, std::ios::trunc);
        out << "{\n";
        out << "  \"scenarios\": " << spec.grid_size() << ",\n";
        out << "  \"workers\": " << parallel_workers << ",\n";
        out << "  \"oversubscribed_workers\": " << oversub_workers
            << ",\n";
        out << "  \"hardware_threads\": " << hardware << ",\n";
        out << "  \"rounds\": " << rounds << ",\n";
        out << strfmt("  \"serial_wall_ms\": %.3f,\n", median(serial_ms));
        out << strfmt("  \"parallel_wall_ms\": %.3f,\n",
                      median(parallel_ms));
        out << strfmt("  \"oversubscribed_wall_ms\": %.3f,\n",
                      median(oversub_ms));
        out << strfmt("  \"speedup\": %.3f,\n", speedup);
        out << strfmt("  \"parallel_efficiency\": %.3f,\n", efficiency);
        out << strfmt("  \"parallel_floor\": %.2f,\n", floor);
        out << "  \"parallel_floor_ok\": "
            << (parallel_floor_ok ? "true" : "false") << ",\n";
        out << "  \"digests_identical\": "
            << (all_identical ? "true" : "false") << "\n";
        out << "}\n";
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 2;
        }
    }
    return all_identical && parallel_floor_ok ? 0 : 1;
}
