/**
 * @file
 * capacity_planner — what-if sizing for a campus deployment.
 *
 * Sweeps cluster sizes (rack counts) against a reference workload and
 * reports queueing/utilization per size, then recommends the smallest
 * deployment meeting the wait-time SLO. This answers the operator's
 * recurring question: "how many racks do we need for next semester's
 * load?".
 *
 *   capacity_planner [jobs] [mean_interarrival_s] [target_mean_wait_min]
 *   capacity_planner --config deployment.txt [jobs] [ia_s] [target_min]
 *
 * With --config, the swept deployments inherit everything (scheduler,
 * hardware, failure policy) from the file except the rack count.
 */
#include <cfloat>
#include <climits>
#include <cstdio>
#include <cstring>

#include "common/strings.h"
#include "common/table.h"
#include "core/config_io.h"
#include "core/scenario.h"

using namespace tacc;

int
main(int argc, char **argv)
{
    core::StackConfig base;
    base.scheduler = "fairshare";
    base.placement = "topology";
    base.emit_monitor_logs = false;

    int arg = 1;
    if (arg + 1 < argc && std::strcmp(argv[arg], "--config") == 0) {
        auto text = read_text_file(argv[arg + 1]);
        auto parsed = text.is_ok() ? core::parse_stack_config(text.value())
                                   : StatusOr<core::StackConfig>(
                                         text.status());
        if (!parsed.is_ok()) {
            std::fprintf(stderr, "config: %s\n",
                         parsed.status().str().c_str());
            return 1;
        }
        base = parsed.value();
        base.emit_monitor_logs = false;
        arg += 2;
    }
    int jobs = 600;
    double interarrival = 90.0;
    double target_wait_min = 30.0;
    if ((arg < argc && !parse_number(argv[arg++], 1, INT_MAX, &jobs)) ||
        (arg < argc &&
         !parse_number(argv[arg++], kAboveZero, DBL_MAX, &interarrival)) ||
        (arg < argc &&
         !parse_number(argv[arg++], 0.0, DBL_MAX, &target_wait_min))) {
        std::fprintf(stderr,
                     "usage: capacity_planner [--config FILE] [jobs] "
                     "[mean_interarrival_s] [target_mean_wait_min]\n");
        return 2;
    }

    std::printf("workload: %d jobs, %.0f s mean inter-arrival; SLO: mean "
                "wait <= %.0f min\n\n",
                jobs, interarrival, target_wait_min);

    TextTable table("capacity sweep");
    table.set_header({"racks", "GPUs", "meanWait(m)", "p99Wait(m)",
                      "util", "meets SLO"});

    int recommended = -1;
    for (int racks = 1; racks <= 8; ++racks) {
        core::ScenarioConfig config;
        config.stack = base;
        config.stack.cluster.topology.racks = racks;
        config.trace.num_jobs = jobs;
        config.trace.seed = 7;
        config.trace.mean_interarrival_s = interarrival;
        const auto r = core::run_scenario(config);
        const bool meets = r.mean_wait_s / 60.0 <= target_wait_min &&
                           r.never_finished == 0;
        if (meets && recommended < 0)
            recommended = racks;
        table.add_row({TextTable::num(racks, 2),
                       TextTable::num(config.stack.cluster.total_gpus(),
                                      5),
                       TextTable::fixed(r.mean_wait_s / 60.0, 1),
                       TextTable::fixed(r.p99_wait_s / 60.0, 1),
                       TextTable::pct(r.arrival_window_utilization),
                       meets ? "yes" : "no"});
        // Past the SLO with headroom: later rows change little.
        if (meets && r.mean_wait_s / 60.0 < target_wait_min / 8.0)
            break;
    }
    std::fputs(table.str().c_str(), stdout);

    if (recommended > 0) {
        std::printf("\nrecommendation: %d rack(s) of %d nodes\n",
                    recommended, base.cluster.topology.nodes_per_rack);
    } else {
        std::printf("\nno swept size met the SLO; grow beyond 8 racks or "
                    "relax the target\n");
    }
    return 0;
}
