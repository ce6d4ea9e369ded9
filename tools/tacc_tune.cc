/**
 * @file
 * tacc_tune — search-based policy auto-tuning CLI.
 *
 * Loads a tune spec (search engine + objective weights + workload
 * mixes), runs the optimizer against the deterministic sweep-backed
 * evaluator, and reports the winning configuration. The trajectory and
 * the winner are a pure function of (spec, seed, budget) at any --jobs
 * value, so CI pins them as goldens exactly like sweep digests.
 *
 *   tacc_tune [options]
 *     --spec FILE        tune spec (default tests/goldens/ci_tune.spec)
 *     --budget N         override the spec's candidate budget
 *     --seed N           override the spec's search seed
 *     --jobs N           concurrent simulations (0 = hardware, default 1)
 *     --out FILE         write the deterministic JSON trajectory
 *     --preset FILE      write the winner as a loadable preset (see
 *                        config_io; tcloud `open` and the sweep
 *                        dialect's `preset:` key consume it)
 *     --golden FILE      golden best-config file
 *                        (default tests/goldens/tune_best.txt)
 *     --check-golden     compare the winner against the golden; exit 1
 *                        on drift
 *     --update-golden    rewrite the golden file from this run
 *     --list-params      print the tunable-dimension registry and exit
 *     --streaming        force streaming (million-job) retention for
 *                        every evaluation, overriding the spec
 *     --quiet            suppress the trajectory table
 *
 * Golden workflow: after an intentional behaviour change, run
 *   tacc_tune --update-golden
 * from the repo root and commit the refreshed best-config file.
 */
#include <climits>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "common/hash.h"
#include "common/strings.h"
#include "common/table.h"
#include "tune/tuner.h"

using namespace tacc;

namespace {

struct Options {
    std::string spec_path = "tests/goldens/ci_tune.spec";
    std::string out_path;
    std::string preset_path;
    std::string golden_path = "tests/goldens/tune_best.txt";
    int budget = 0; ///< 0 = spec value
    int jobs = 1;
    bool have_seed = false;
    uint64_t seed = 0;
    bool check_golden = false;
    bool update_golden = false;
    bool list_params = false;
    bool streaming = false;
    bool quiet = false;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--spec FILE] [--budget N] [--seed N] "
                 "[--jobs N] [--out FILE]\n"
                 "       [--preset FILE] [--golden FILE] "
                 "[--check-golden] [--update-golden]\n"
                 "       [--list-params] [--streaming] [--quiet]\n",
                 argv0);
    return 2;
}

bool
write_file(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc);
    out << content;
    return bool(out);
}

void
print_trajectory(const tune::TuneSpec &spec,
                 const tune::TuneResult &result)
{
    TextTable table("tune");
    table.set_header({"step", "chain", "objective", "accepted", "cached",
                      "best", "params"});
    for (const auto &step : result.trajectory) {
        table.add_row({
            TextTable::num(double(step.step), 4),
            TextTable::num(double(step.chain), 3),
            TextTable::fixed(step.objective, 4),
            step.accepted ? "yes" : "no",
            step.cache_hit ? "yes" : "no",
            step.is_best ? "*" : "",
            spec.space.describe(step.values),
        });
    }
    std::printf("%s", table.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--spec") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.spec_path = v;
        } else if (arg == "--budget") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            if (!parse_number(v, 1, INT_MAX, &opt.budget))
                return usage(argv[0]);
        } else if (arg == "--seed") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            if (!parse_number(v, 0, UINT64_MAX, &opt.seed))
                return usage(argv[0]);
            opt.have_seed = true;
        } else if (arg == "--jobs") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            if (!parse_number(v, 0, INT_MAX, &opt.jobs))
                return usage(argv[0]);
        } else if (arg == "--out") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.out_path = v;
        } else if (arg == "--preset") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.preset_path = v;
        } else if (arg == "--golden") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.golden_path = v;
        } else if (arg == "--check-golden") {
            opt.check_golden = true;
        } else if (arg == "--update-golden") {
            opt.update_golden = true;
        } else if (arg == "--list-params") {
            opt.list_params = true;
        } else if (arg == "--streaming") {
            opt.streaming = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else {
            return usage(argv[0]);
        }
    }

    if (opt.list_params) {
        TextTable table("params");
        table.set_header({"name", "lo", "hi", "type", "what"});
        for (const auto &dim : tune::ParamSpace::registry()) {
            table.add_row({dim.name, TextTable::num(dim.lo, 7),
                           TextTable::num(dim.hi, 7),
                           dim.integer ? "int" : "real", dim.doc});
        }
        std::printf("%s", table.str().c_str());
        return 0;
    }

    auto spec_or = tune::load_tune_spec(opt.spec_path);
    if (!spec_or.is_ok()) {
        std::fprintf(stderr, "tacc_tune: %s\n",
                     spec_or.status().str().c_str());
        return 2;
    }
    tune::TuneSpec &spec = spec_or.value();
    if (opt.budget > 0)
        spec.budget = opt.budget;
    if (opt.have_seed)
        spec.search.seed = opt.seed;
    if (opt.streaming)
        spec.base.streaming = true;

    auto result_or = [&]() -> StatusOr<tune::TuneResult> {
        try {
            return tune::run_tune(spec, opt.jobs);
        } catch (const std::exception &e) {
            // A scenario's failure (bad_alloc, ...) or a pool worker
            // that could not start.
            return Status::internal(e.what());
        }
    }();
    if (!result_or.is_ok()) {
        std::fprintf(stderr, "tacc_tune: %s\n",
                     result_or.status().str().c_str());
        return 2;
    }
    const tune::TuneResult &result = result_or.value();

    if (!opt.quiet)
        print_trajectory(spec, result);
    std::printf("default objective %.6f  best %.6f (step %d)  "
                "digest %s\n",
                result.default_objective, result.best_objective,
                result.best_step,
                Fnv1a::hex(result.best_digest).c_str());
    std::printf("%zu candidate(s), %zu simulation(s), %zu cache hit(s), "
                "%d worker(s), %.1f ms wall\n",
                result.trajectory.size(), result.scenario_runs,
                result.cache_hits, result.workers, result.wall_ms);

    const std::string best_text = tune::best_config_text(spec, result);
    if (!opt.out_path.empty() &&
        !write_file(opt.out_path,
                    tune::trajectory_to_json(spec, result))) {
        std::fprintf(stderr, "tacc_tune: cannot write %s\n",
                     opt.out_path.c_str());
        return 2;
    }
    if (!opt.preset_path.empty() &&
        !write_file(opt.preset_path, best_text)) {
        std::fprintf(stderr, "tacc_tune: cannot write %s\n",
                     opt.preset_path.c_str());
        return 2;
    }

    if (opt.update_golden) {
        if (!write_file(opt.golden_path, best_text)) {
            std::fprintf(stderr, "tacc_tune: cannot write %s\n",
                         opt.golden_path.c_str());
            return 2;
        }
        std::printf("updated golden: %s\n", opt.golden_path.c_str());
    }

    if (opt.check_golden) {
        const auto golden = read_text_file(opt.golden_path);
        if (!golden.is_ok()) {
            std::fprintf(stderr,
                         "tacc_tune: cannot read golden %s "
                         "(run --update-golden first)\n",
                         opt.golden_path.c_str());
            return 2;
        }
        if (golden.value() != best_text) {
            std::fprintf(stderr,
                         "GOLDEN TUNE MISMATCH (%s)\n"
                         "--- golden ---\n%s--- actual ---\n%s",
                         opt.golden_path.c_str(), golden.value().c_str(),
                         best_text.c_str());
            return 1;
        }
        std::printf("golden OK (%s)\n", opt.golden_path.c_str());
    }
    return 0;
}
