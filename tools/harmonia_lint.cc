/**
 * @file
 * harmonia_lint — static source-contract analyzer for this repo.
 *
 * Scans src/, include/, tools/, examples/, and tests/ and
 * enforces the contracts the dynamic suites can only catch after the
 * fact: determinism (no ambient randomness, no unordered-container
 * iteration order reaching outputs), FP-contract safety (every TU
 * including the SIMD shim carries the per-source -ffp-contract=off
 * flags in CMake), layering (facade-only tools/examples, no-throw
 * serving layer), and header hygiene. See docs/CHECKING.md, "Layer 0:
 * source contracts".
 *
 * Usage:
 *   harmonia_lint [--root DIR] [--rule ID]... [--baseline FILE]
 *                 [--no-baseline] [--json] [--list]
 *
 *   --root DIR      Repo root to scan (default: .).
 *   --rule ID       Run only the named rule (repeatable).
 *   --baseline F    Suppression file (default: <root>/lint-baseline.txt
 *                   when present).
 *   --no-baseline   Ignore the baseline; report everything as new.
 *   --json          Emit the harmonia.lint-report/1 JSON document.
 *   --list          Print the rule catalog and exit.
 *
 * Exit status: 0 clean (no non-baselined findings), 1 new findings,
 * 2 usage/configuration error. Output depends only on the tree, never
 * on scan order, so CI logs diff cleanly.
 */

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "harmonia/harmonia.hh"

using namespace harmonia;

namespace
{

struct CliOptions
{
    std::string root = ".";
    std::vector<std::string> ruleIds;
    std::string baselinePath; // empty: default discovery
    bool noBaseline = false;
    bool json = false;
    bool list = false;
};

[[noreturn]] void
usage(int status)
{
    std::cout << "usage: harmonia_lint [--root DIR] [--rule ID]... "
                 "[--baseline FILE] [--no-baseline] [--json] "
                 "[--list]\n";
    std::exit(status);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    auto strArg = [&](int &i, const std::string &flag) {
        if (i + 1 >= argc)
            fatal("harmonia_lint: ", flag, " needs a value");
        return std::string(argv[++i]);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root") {
            opt.root = strArg(i, arg);
        } else if (arg == "--rule") {
            opt.ruleIds.push_back(strArg(i, arg));
        } else if (arg == "--baseline") {
            opt.baselinePath = strArg(i, arg);
        } else if (arg == "--no-baseline") {
            opt.noBaseline = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::cerr << "harmonia_lint: unknown argument '" << arg
                      << "'\n";
            usage(2);
        }
    }
    return opt;
}

std::vector<const lint::LintRule *>
selectRules(const CliOptions &opt)
{
    const lint::RuleRegistry &registry = lint::RuleRegistry::instance();
    if (opt.ruleIds.empty())
        return registry.all();
    std::vector<const lint::LintRule *> rules;
    for (const std::string &id : opt.ruleIds) {
        const lint::LintRule *rule = registry.find(id);
        fatalIf(rule == nullptr, "harmonia_lint: unknown rule '", id,
                "' (see --list)");
        rules.push_back(rule);
    }
    return rules;
}

lint::Baseline
loadBaseline(const CliOptions &opt)
{
    if (opt.noBaseline)
        return {};
    if (!opt.baselinePath.empty())
        return lint::Baseline::load(opt.baselinePath);
    const std::filesystem::path fallback =
        std::filesystem::path(opt.root) / "lint-baseline.txt";
    if (std::filesystem::exists(fallback))
        return lint::Baseline::load(fallback.string());
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opt = parseArgs(argc, argv);

    if (opt.list) {
        TextTable table({"rule", "severity", "contract"});
        for (const lint::LintRule *rule :
             lint::RuleRegistry::instance().all()) {
            table.row()
                .cell(rule->id())
                .cell(lint::severityName(rule->severity()))
                .cell(rule->description());
        }
        table.print(std::cout, "Source-contract catalog");
        return 0;
    }

    try {
        const std::vector<const lint::LintRule *> rules =
            selectRules(opt);
        const lint::Project project = lint::scanProject(opt.root);
        std::vector<lint::Diagnostic> diagnostics =
            lint::runLint(project, rules);
        const lint::Baseline baseline = loadBaseline(opt);
        const size_t failing = baseline.apply(diagnostics);

        const lint::ReportInput report{project, rules, diagnostics,
                                       baseline};
        if (opt.json)
            lint::writeJsonReport(std::cout, report);
        else
            lint::writeTextReport(std::cout, report);
        return failing ? 1 : 0;
    } catch (const SimError &e) {
        std::cerr << "harmonia_lint: " << e.what() << '\n';
        return 2;
    }
}
