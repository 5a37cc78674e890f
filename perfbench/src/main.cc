/**
 * @file
 * harmonia_perfbench — the repository benchmark.
 *
 *   harmonia_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                      [--root DIR] [--trace-dir DIR]
 *   harmonia_perfbench --emit-reference campaign|oracle [--root DIR]
 *
 * With --trace 0 a run measures one workload with tracing off and
 * reports the end-to-end metrics. With --trace 1 it runs the traced
 * layer suite (see perfbench/README.md) and reports every per-layer
 * metric plus the tracing overhead. Either way it prints a table of
 * metric, value, unit and sample count, then one JSON line:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Exit status: 0 when every output check passed, 1 when one failed,
 * 2 on a usage or set-up error (no JSON line then).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hh"
#include "harmonia/device.hh"
#include "layers.hh"
#include "offline.hh"

using namespace perfbench;

namespace
{

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"campaign_hd7970",
                                                   "oracle_ga100"};
    return names;
}

bool
isWorkload(const std::string &name)
{
    for (const std::string &w : workloadNames())
        if (w == name)
            return true;
    return false;
}

Report
runWorkload(const RunOptions &opts)
{
    return opts.workload == "campaign_hd7970" ? runCampaignWorkload(opts)
                                              : runOracleWorkload(opts);
}

void
printReport(const std::string &workload, const Report &report)
{
    std::printf("workload %s\n", workload.c_str());
    std::printf("%-44s %18s  %-6s %s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : report.metrics)
        std::printf("%-44s %18.6f  %-6s %zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    std::printf("error_ratio %.6g (%llu failed of %llu attempted)\n",
                report.attempted
                    ? static_cast<double>(report.failed) / report.attempted
                    : 0.0,
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const std::string &note : report.notes)
        std::printf("note: %s\n", note.c_str());
    for (const std::string &problem : report.problems)
        std::printf("CHECK FAILED: %s\n", problem.c_str());

    std::string json = "{\"correct\": ";
    json += report.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                fmt17(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "harmonia_perfbench: %s\nusage: harmonia_perfbench "
                 "--workload NAME --seed N --seconds S --trace 0|1 "
                 "[--root DIR] [--trace-dir DIR]\n"
                 "       harmonia_perfbench --emit-reference "
                 "campaign|oracle [--root DIR]\nworkloads:",
                 msg);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string emit;
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opts.workload = value;
            } else if (arg == "--seed") {
                opts.seed = std::stoull(value);
                haveSeed = true;
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(value);
                haveSeconds = opts.seconds > 0.0;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                opts.trace = value == "1";
            } else if (arg == "--root") {
                opts.root = value;
            } else if (arg == "--trace-dir") {
                opts.traceDir = value;
            } else if (arg == "--emit-reference") {
                emit = value;
            } else {
                return usage(("unknown option " + arg).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }

    try {
        if (!emit.empty()) {
            if (emit == "campaign") {
                const harmonia::Device d =
                    harmonia::Device::make("hd7970").value();
                std::cout << campaignReferenceText(
                    campaignPass(d.gpu(), seededSuite(1)));
            } else if (emit == "oracle") {
                const harmonia::Device d =
                    harmonia::Device::make("ampere-ga100").value();
                std::cout << oraclePass(d.gpu(), seededSuite(1)) << "\n";
            } else {
                return usage("--emit-reference takes campaign or oracle");
            }
            return 0;
        }
        if (!haveSeed || !haveSeconds)
            return usage("--seed and a positive --seconds are required");
        if (!isWorkload(opts.workload))
            return usage(("unknown workload '" + opts.workload + "'").c_str());

        const Report report = opts.trace ? runTraced(opts)
                                         : runWorkload(opts);
        printReport(opts.workload, report);
        return report.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "harmonia_perfbench: %s\n", e.what());
        return 2;
    }
}
