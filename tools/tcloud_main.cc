/**
 * @file
 * tcloud — the TACC task-management CLI.
 *
 * A scriptable shell over the tcloud client library, bound to two
 * embedded simulated clusters ("campus", a 256-GPU deployment, and
 * "lab", a small 32-GPU one). Commands mirror the deployed tool:
 *
 *   clusters              list cluster profiles
 *   use <name>            switch the default cluster
 *   submit <file>         submit a task schema file
 *   demo [n]              submit n generated campus jobs (default 10)
 *   run <seconds>         advance simulated time
 *   drain                 run until everything finishes
 *   ps                    list jobs on the default cluster
 *   status <id>           one job's status
 *   logs <id>             aggregated distributed logs
 *   kill <id>             kill a job
 *   report                operator summary (telemetry, alerts, usage)
 *   accounting <group>    the group's per-period billing statements
 *   cordon <node>         hold a node (no new placements)
 *   drain <node>          evacuate a node for maintenance
 *   uncordon <node>       return a cordoned/drained node to service
 *   health                per-state node counts + fault totals
 *   power                 draw vs caps, throttling, deferrals
 *   energy                cluster/baseline/per-group kWh ledger
 *   serve demo [mode] [hz]  open a serve-enabled clone of the default
 *                         cluster ("robust" or "baseline" protections)
 *   serve status          replica pool, goodput, shed/retry/breakers
 *   help | quit
 *
 * Example:  printf 'demo 20\ndrain\nps\nreport\n' | ./build/tools/tcloud
 */
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/strings.h"
#include "core/config_io.h"
#include "common/table.h"
#include "core/stack.h"
#include "driver/sweep.h"
#include "tcloud/client.h"
#include "workload/trace.h"
#include "workload/trace_io.h"

using namespace tacc;

namespace {

/** Largest `demo` batch and `run` step the shell accepts. */
constexpr int kMaxDemoJobs = 100000;
constexpr double kMaxRunSeconds = 1e9; // ~32 years of simulated time

/**
 * Reads an optional numeric argument: `fallback` when it is absent,
 * nullopt when it is not a number in [0, max] (see parse_number).
 */
std::optional<double>
read_number(std::istream &is, double fallback, double max)
{
    std::string token;
    double v = fallback;
    if (is >> token && !parse_number(token, 0.0, max, &v))
        return std::nullopt;
    return v;
}

core::StackConfig
campus_config()
{
    core::StackConfig config;
    config.cluster.name = "campus";
    config.cluster.topology.racks = 4;
    config.cluster.topology.nodes_per_rack = 8;
    config.scheduler = "fairshare";
    config.placement = "topology";
    return config;
}

core::StackConfig
lab_config()
{
    core::StackConfig config;
    config.cluster.name = "lab";
    config.cluster.topology.racks = 1;
    config.cluster.topology.nodes_per_rack = 4;
    config.scheduler = "fifo-skip";
    return config;
}

/** The CLI session: cluster profiles, one client, a demo-trace cursor. */
class Shell
{
  public:
    Shell()
    {
        add("campus", campus_config());
        add("lab", lab_config());
    }

    int
    repl(std::istream &in, bool interactive)
    {
        std::string line;
        if (interactive)
            std::fputs("tcloud> ", stdout);
        while (std::getline(in, line)) {
            if (!dispatch(line))
                return 0;
            if (interactive)
                std::fputs("tcloud> ", stdout);
        }
        return 0;
    }

  private:
    void
    add(const std::string &name, core::StackConfig config)
    {
        stacks_[name] = std::make_unique<core::TaccStack>(config);
        client_.add_cluster(name, stacks_[name].get());
    }

    core::TaccStack &
    stack()
    {
        return *stacks_.at(client_.default_cluster());
    }

    /** @return false to exit the REPL. */
    bool
    dispatch(const std::string &line)
    {
        std::istringstream is(line);
        std::string cmd;
        is >> cmd;
        if (cmd.empty())
            return true;
        if (cmd == "quit" || cmd == "exit")
            return false;
        if (cmd == "help") {
            help();
        } else if (cmd == "clusters") {
            for (const auto &name : client_.cluster_names()) {
                std::printf("%s%s\n", name.c_str(),
                            name == client_.default_cluster() ? " *" : "");
            }
        } else if (cmd == "use") {
            std::string name;
            is >> name;
            auto s = client_.set_default_cluster(name);
            std::printf("%s\n", s.is_ok() ? "ok" : s.str().c_str());
        } else if (cmd == "submit") {
            std::string path;
            is >> path;
            submit_file(path);
        } else if (cmd == "open") {
            std::string path, name;
            is >> path >> name;
            open_cluster(path, name);
        } else if (cmd == "replay") {
            std::string path;
            is >> path;
            replay(path);
        } else if (cmd == "demo") {
            const auto n = read_number(is, 10, kMaxDemoJobs);
            if (!n || *n != std::floor(*n)) {
                std::printf("usage: demo [n]  (n: whole number, 0..%d)\n",
                            kMaxDemoJobs);
                return true;
            }
            demo(int(*n));
        } else if (cmd == "run") {
            const auto seconds = read_number(is, 60, kMaxRunSeconds);
            if (!seconds) {
                std::printf("usage: run <seconds>  (finite, 0..%.0f)\n",
                            kMaxRunSeconds);
                return true;
            }
            stack().run_until(stack().simulator().now() +
                              Duration::from_seconds(*seconds));
            std::printf("now %s\n",
                        stack().simulator().now().str().c_str());
        } else if (cmd == "drain") {
            // `drain <node>` evacuates one node; bare `drain` keeps the
            // historical meaning: run the simulation to completion.
            int node = -1;
            if (is >> node) {
                auto s = client_.drain_node(node);
                std::printf("%s\n", s.str().c_str());
            } else {
                stack().run_to_completion();
                std::printf("drained at %s\n",
                            stack().simulator().now().str().c_str());
            }
        } else if (cmd == "cordon") {
            int node = -1;
            is >> node;
            auto s = client_.cordon(node);
            std::printf("%s\n", s.str().c_str());
        } else if (cmd == "uncordon") {
            int node = -1;
            is >> node;
            auto s = client_.uncordon(node);
            std::printf("%s\n", s.str().c_str());
        } else if (cmd == "health") {
            auto text = client_.health();
            std::fputs(text.is_ok() ? text.value().c_str()
                                    : (text.status().str() + "\n").c_str(),
                       stdout);
        } else if (cmd == "power") {
            auto text = client_.power();
            std::fputs(text.is_ok() ? text.value().c_str()
                                    : (text.status().str() + "\n").c_str(),
                       stdout);
        } else if (cmd == "energy") {
            auto text = client_.energy();
            std::fputs(text.is_ok() ? text.value().c_str()
                                    : (text.status().str() + "\n").c_str(),
                       stdout);
        } else if (cmd == "ps") {
            ps();
        } else if (cmd == "status") {
            cluster::JobId id = 0;
            is >> id;
            auto s = client_.status({client_.default_cluster(), id});
            std::printf("%s\n", s.is_ok() ? s.value().summary.c_str()
                                          : s.status().str().c_str());
        } else if (cmd == "logs") {
            cluster::JobId id = 0;
            is >> id;
            auto logs = client_.logs({client_.default_cluster(), id});
            if (!logs.is_ok()) {
                std::printf("%s\n", logs.status().str().c_str());
            } else {
                for (const auto &entry : logs.value())
                    std::printf("%s\n", entry.c_str());
            }
        } else if (cmd == "kill") {
            cluster::JobId id = 0;
            is >> id;
            auto s = client_.kill({client_.default_cluster(), id});
            std::printf("%s\n", s.str().c_str());
        } else if (cmd == "report") {
            auto text = client_.operator_report();
            std::fputs(text.is_ok() ? text.value().c_str()
                                    : (text.status().str() + "\n").c_str(),
                       stdout);
        } else if (cmd == "serve") {
            std::string verb;
            is >> verb;
            serve(verb, is);
        } else if (cmd == "accounting") {
            std::string group;
            is >> group;
            auto text = client_.accounting(group);
            std::fputs(text.is_ok() ? text.value().c_str()
                                    : (text.status().str() + "\n").c_str(),
                       stdout);
        } else {
            std::printf("unknown command '%s' (try: help)\n", cmd.c_str());
        }
        return true;
    }

    void
    help()
    {
        std::fputs(
            "clusters | use <name> | open <cfg> <name> | submit <file> "
            "| replay <csv> |\ndemo [n] | run <s> | drain [node] | ps | "
            "status <id> | logs <id> | kill <id> |\nreport | "
            "accounting <group> | cordon <node> | uncordon <node> | "
            "health | power | energy |\nserve demo [robust|baseline] "
            "[rate_hz] | serve status | quit\n",
            stdout);
    }

    /**
     * `serve demo [mode] [rate_hz]` clones the default cluster's config
     * with the request-serving plane enabled (the plane is wired at
     * stack construction, so it needs a fresh profile), registers it as
     * "<cluster>-serve" and makes it default; `serve status` prints the
     * default cluster's serving report.
     */
    void
    serve(const std::string &verb, std::istream &is)
    {
        if (verb == "status") {
            std::fputs(stack().serving_report().c_str(), stdout);
            return;
        }
        if (verb != "demo") {
            std::printf(
                "usage: serve demo [robust|baseline] [rate_hz] | "
                "serve status\n");
            return;
        }
        std::string mode = "robust";
        is >> mode;
        const auto rate_hz = read_number(is, 40.0, 1e6);
        if (!rate_hz) {
            std::printf("usage: serve demo [robust|baseline] [rate_hz]  "
                        "(rate_hz: 0..1000000)\n");
            return;
        }
        core::StackConfig config = stack().config();
        config.serve.request_rate_hz = *rate_hz;
        auto s = driver::apply_serve_mode(mode, 1.0, &config);
        if (!s.is_ok()) {
            std::printf("%s\n", s.str().c_str());
            return;
        }
        const std::string name = client_.default_cluster() + "-serve";
        if (stacks_.contains(name)) {
            std::printf("profile '%s' already open\n", name.c_str());
            return;
        }
        config.cluster.name = name;
        add(name, config);
        client_.set_default_cluster(name);
        std::printf("opened serving cluster '%s' (%s, %.0f req/s over "
                    "%.0f s); try: run %.0f ; serve status\n",
                    name.c_str(), mode.c_str(),
                    config.serve.request_rate_hz,
                    config.serve.horizon_s, config.serve.horizon_s);
    }

    void
    open_cluster(const std::string &path, const std::string &name)
    {
        if (name.empty() || stacks_.contains(name)) {
            std::printf("usage: open <config-file> <new-profile-name>\n");
            return;
        }
        auto text = read_text_file(path);
        if (!text.is_ok()) {
            std::printf("%s\n", text.status().str().c_str());
            return;
        }
        auto parsed = core::parse_stack_config(text.value());
        if (!parsed.is_ok()) {
            std::printf("%s\n", parsed.status().str().c_str());
            return;
        }
        add(name, parsed.value());
        client_.set_default_cluster(name);
        std::printf("opened cluster '%s' (%d GPUs), now default\n",
                    name.c_str(),
                    stacks_[name]->cluster().total_gpus());
    }

    void
    replay(const std::string &path)
    {
        auto trace = workload::read_trace_file(path);
        if (!trace.is_ok()) {
            std::printf("%s\n", trace.status().str().c_str());
            return;
        }
        // Arrivals are relative to t=0; shift to "now".
        const TimePoint now = stack().simulator().now();
        auto shifted = trace.value();
        for (auto &entry : shifted)
            entry.arrival = now + (entry.arrival - TimePoint::origin());
        stack().submit_trace(shifted);
        std::printf("replaying %zu task(s) from %s\n", shifted.size(),
                    path.c_str());
    }

    void
    submit_file(const std::string &path)
    {
        auto text = read_text_file(path);
        if (!text.is_ok()) {
            std::printf("%s\n", text.status().str().c_str());
            return;
        }
        auto handle = client_.submit_text(text.value());
        if (handle.is_ok()) {
            std::printf("submitted job %llu to %s\n",
                        (unsigned long long)handle.value().job,
                        handle.value().cluster.c_str());
        } else {
            std::printf("%s\n", handle.status().str().c_str());
        }
    }

    void
    demo(int n)
    {
        workload::TraceConfig trace;
        trace.num_jobs = n;
        trace.seed = demo_seed_++;
        trace.mean_interarrival_s = 1.0; // submit "now"-ish
        int ok = 0;
        for (auto &entry : workload::TraceGenerator(trace).generate()) {
            if (entry.spec.gpus > stack().cluster().total_gpus())
                entry.spec.gpus = stack().cluster().total_gpus();
            ok += client_.submit(entry.spec).is_ok();
        }
        std::printf("submitted %d demo job(s)\n", ok);
    }

    void
    ps()
    {
        TextTable table;
        table.set_header(
            {"id", "name", "user", "gpus", "state", "progress"});
        for (const auto *job : stack().jobs()) {
            table.add_row({std::to_string(job->id()), job->spec().name,
                           job->spec().user,
                           std::to_string(job->spec().gpus),
                           workload::job_state_name(job->state()),
                           TextTable::pct(job->estimated_progress(
                                              stack().simulator().now()),
                                          0)});
        }
        std::fputs(table.str().c_str(), stdout);
    }

    std::map<std::string, std::unique_ptr<core::TaccStack>> stacks_;
    tcloud::Client client_;
    uint64_t demo_seed_ = 1;
};

} // namespace

int
main(int argc, char **argv)
{
    Shell shell;
    // `tcloud -c "cmd; cmd"` runs a one-liner script.
    if (argc == 3 && std::string(argv[1]) == "-c") {
        std::string script(argv[2]);
        for (auto &c : script) {
            if (c == ';')
                c = '\n';
        }
        std::istringstream in(script);
        return shell.repl(in, false);
    }
    return shell.repl(std::cin, false);
}
