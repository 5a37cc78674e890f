#include "offline.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "harmonia/campaign.hh"
#include "harmonia/common/stats.hh"
#include "harmonia/core/campaign.hh"
#include "harmonia/core/governor_registry.hh"
#include "harmonia/core/oracle.hh"
#include "harmonia/core/runtime.hh"
#include "harmonia/core/training.hh"
#include "harmonia/device.hh"
#include "harmonia/workloads/suite.hh"

namespace perfbench
{

using namespace harmonia;

const std::vector<std::string> kCampaignSchemes = {
    "baseline", "cg", "harmonia", "oracle", "freq-only"};

namespace
{

/** Relative tolerance of the value checks: the golden test's. */
constexpr double kRelTol = 1e-12;

const char *kCampaignReference = "perfbench/reference/campaign_hd7970.csv";
const char *kOracleReference = "perfbench/reference/oracle_ga100.digest";
const char *kGoldenFile = "tests/golden/campaign_fig10_13.csv";

Scheme
schemeFor(const std::string &name)
{
    if (name == "baseline")
        return Scheme::Baseline;
    if (name == "cg")
        return Scheme::CgOnly;
    if (name == "harmonia")
        return Scheme::Harmonia;
    if (name == "oracle")
        return Scheme::Oracle;
    return Scheme::FreqOnly;
}

CampaignOptions
campaignOptions()
{
    CampaignOptions o;
    o.includeOracle = true;
    o.includeFreqOnly = true;
    o.jobs = 1;
    return o;
}

bool
close(double a, double b)
{
    return std::abs(a - b) <= kRelTol * std::max(std::abs(b), 1e-300);
}

/** Normalized-metric table from per-cell results (Campaign's math). */
CampaignTable
tableFrom(const std::vector<Application> &suite,
          const std::map<std::string, std::map<std::string, AppRunResult>>
              &results)
{
    CampaignTable t;
    std::map<std::string, std::vector<double>> ed2BySuite;
    for (const std::string &scheme : kCampaignSchemes) {
        for (const Application &app : suite) {
            const AppRunResult &r = results.at(scheme).at(app.name);
            const AppRunResult &b = results.at("baseline").at(app.name);
            const std::string key = scheme + "," + app.name;
            t.ed2[key] = r.ed2() / b.ed2();
            ed2BySuite[scheme].push_back(t.ed2[key]);
        }
    }
    t.harmoniaGainPct = 100.0 * (1.0 - geomean(ed2BySuite["harmonia"]));
    t.oracleGainPct = 100.0 * (1.0 - geomean(ed2BySuite["oracle"]));
    return t;
}

std::string
readFile(const std::string &path, bool &ok)
{
    std::ifstream in(path);
    ok = static_cast<bool>(in);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** "a,b,...,value" CSV rows keyed by every field but the last. */
std::map<std::string, double>
readKeyedCsv(const std::string &text)
{
    std::map<std::string, double> rows;
    std::istringstream in(text);
    std::string line;
    std::getline(in, line); // Header.
    while (std::getline(in, line)) {
        const size_t comma = line.rfind(',');
        if (line.empty() || comma == std::string::npos)
            continue;
        rows[line.substr(0, comma)] = std::stod(line.substr(comma + 1));
    }
    return rows;
}

} // namespace

std::vector<Application>
seededSuite(uint64_t seed)
{
    std::vector<Application> suite = standardSuite();
    SeededRng rng(seed);
    shuffle(suite, rng);
    return suite;
}

CampaignTable
campaignPass(const GpuDevice &device, const std::vector<Application> &suite)
{
    Campaign campaign(device, suite, campaignOptions());
    campaign.run();
    std::map<std::string, std::map<std::string, AppRunResult>> results;
    for (const std::string &scheme : kCampaignSchemes)
        for (const Application &app : suite)
            results[scheme][app.name] =
                campaign.result(schemeFor(scheme), app.name);
    return tableFrom(suite, results);
}

CampaignTable
tracedCampaignPass(const GpuDevice &device,
                   const std::vector<Application> &suite, Tracer &tracer)
{
    ScopedSpan pass(&tracer, "campaign.pass");
    std::unique_ptr<SensitivityPredictor> predictor;
    {
        ScopedSpan span(&tracer, "core.training");
        TrainingOptions training = campaignOptions().training;
        training.jobs = 1;
        predictor = std::make_unique<SensitivityPredictor>(
            trainPredictors(device, suite, training).predictor());
    }
    GovernorSpec spec;
    spec.device = &device;
    spec.predictor = predictor.get();
    spec.harmonia = campaignOptions().harmonia;

    std::map<std::string, std::map<std::string, AppRunResult>> results;
    const Runtime runtime(device);
    for (const std::string &scheme : kCampaignSchemes) {
        const std::string runName = "core.runtime." + scheme;
        for (const Application &app : suite) {
            std::unique_ptr<Governor> governor;
            {
                ScopedSpan span(&tracer, "core.governor.make");
                governor = makeGovernor(scheme, spec).value();
            }
            {
                TimedGovernor timed(*governor, tracer, scheme);
                ScopedSpan span(&tracer, runName);
                results[scheme][app.name] = runtime.run(app, timed);
            }
            // Releasing a governor frees its state (the oracle's
            // sweep memo), which Campaign pays too.
            ScopedSpan span(&tracer, "core.governor.release");
            governor.reset();
        }
    }
    ScopedSpan span(&tracer, "core.results");
    CampaignTable table = tableFrom(suite, results);
    results.clear();
    predictor.reset();
    return table;
}

std::string
checkCampaign(const CampaignTable &table, const std::string &root)
{
    bool ok = false;
    const std::string text = readFile(root + "/" + kCampaignReference, ok);
    if (!ok)
        return std::string("missing ") + kCampaignReference;
    const std::map<std::string, double> want = readKeyedCsv(text);
    if (want.size() != table.ed2.size())
        return std::string(kCampaignReference) + " has " +
               std::to_string(want.size()) + " rows, the pass " +
               std::to_string(table.ed2.size());
    for (const auto &[key, value] : table.ed2) {
        const auto it = want.find(key);
        if (it == want.end())
            return "campaign cell " + key + " not in reference";
        if (!close(value, it->second))
            return "campaign cell " + key + ": got " + fmt17(value) +
                   ", reference " + fmt17(it->second);
    }
    return "";
}

std::string
campaignReferenceText(const CampaignTable &table)
{
    std::string out = "scheme,app,normalized_ed2\n";
    for (const auto &[key, value] : table.ed2)
        out += key + "," + fmt17(value) + "\n";
    return out;
}

std::string
checkGoldenSubset(const GpuDevice &device, const std::string &root)
{
    bool ok = false;
    const std::string text = readFile(root + "/" + kGoldenFile, ok);
    if (!ok)
        return std::string("missing ") + kGoldenFile;
    const std::map<std::string, double> golden = readKeyedCsv(text);

    std::vector<Application> subset;
    for (const std::string name : {"MaxFlops", "CoMD", "BPT", "Graph500"})
        subset.push_back(Suite::standard().app(name).value());
    CampaignOptions o = campaignOptions();
    o.includeFreqOnly = false;
    Campaign campaign(device, subset, o);
    campaign.run();

    // Golden scheme labels (tests/test_golden_figures.cpp).
    const std::map<std::string, Scheme> labels = {
        {"CG", Scheme::CgOnly},
        {"Harmonia", Scheme::Harmonia},
        {"Oracle", Scheme::Oracle}};
    size_t matched = 0;
    for (const auto &[key, want] : golden) {
        std::istringstream fields(key);
        std::string figure, scheme, app;
        std::getline(fields, figure, ',');
        std::getline(fields, scheme, ',');
        std::getline(fields, app, ',');
        const auto label = labels.find(scheme);
        if (label == labels.end() ||
            (figure != "fig10" && figure != "fig13"))
            return "unknown golden row " + key;
        const double got = campaign.normalized(
            label->second, app,
            figure == "fig10" ? CampaignMetric::Ed2 : CampaignMetric::Time);
        if (!close(got, want))
            return "golden row " + key + ": got " + fmt17(got) +
                   ", golden " + fmt17(want);
        ++matched;
    }
    return matched == 24 ? ""
                         : "golden file has " + std::to_string(matched) +
                               " rows, expected 24";
}

std::string
oraclePass(const GpuDevice &device, const std::vector<Application> &suite,
           Tracer *tracer, size_t *sweepHits, size_t *sweepMisses)
{
    ScopedSpan pass(tracer, "oracle.pass");
    SweepOptions sweep;
    sweep.jobs = kOracleJobs;
    OracleGovernor oracle(device, OracleObjective::MinEd2, sweep);
    GovernorSpec spec;
    spec.device = &device;
    std::unique_ptr<Governor> baseline = makeGovernor("baseline", spec).value();

    std::unique_ptr<TimedGovernor> timedBaseline, timedOracle;
    if (tracer) {
        timedBaseline = std::make_unique<TimedGovernor>(*baseline, *tracer,
                                                        "baseline_ga100");
        timedOracle = std::make_unique<TimedGovernor>(oracle, *tracer,
                                                      "oracle_ga100");
    }
    Governor &baseGov = tracer ? *timedBaseline : *baseline;
    Governor &oracleGov =
        tracer ? static_cast<Governor &>(*timedOracle) : oracle;

    std::map<std::string, std::string> lines; // App -> digest line.
    const Runtime runtime(device);
    for (const Application &app : suite) {
        AppRunResult b, o;
        {
            ScopedSpan span(tracer, "core.runtime.baseline_ga100");
            b = runtime.run(app, baseGov);
        }
        {
            ScopedSpan span(tracer, "core.runtime.oracle_ga100");
            o = runtime.run(app, oracleGov);
        }
        // 12 significant digits: the golden test's tolerance, so the
        // digest ignores last-bit noise but not model drift.
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s %.12g %.12g %.12g %.12g",
                      app.name.c_str(), b.totalTime, b.cardEnergy,
                      o.totalTime, o.cardEnergy);
        std::string line = buf;
        for (const KernelTrace &k : o.trace) {
            std::snprintf(buf, sizeof buf, " %d/%d/%d", k.config.cuCount,
                          k.config.computeFreqMhz, k.config.memFreqMhz);
            line += buf;
        }
        lines[app.name] = line;
    }
    if (sweepHits)
        *sweepHits = oracle.sweep().cacheHits();
    if (sweepMisses)
        *sweepMisses = oracle.sweep().cacheMisses();
    uint64_t h = fnv1a("");
    for (const auto &[app, line] : lines)
        h = fnv1a(line + "\n", h);
    return hex64(h);
}

std::string
checkOracleDigest(const std::string &digest, const std::string &root)
{
    bool ok = false;
    std::string want = readFile(root + "/" + kOracleReference, ok);
    if (!ok)
        return std::string("missing ") + kOracleReference;
    want.erase(std::remove_if(want.begin(), want.end(),
                              [](unsigned char c) { return std::isspace(c); }),
               want.end());
    return digest == want ? ""
                          : "oracle_ga100 digest " + digest +
                                " != reference " + want;
}

namespace
{

/** Seconds for Device::make + standardSuite(). */
double
timeSetup(const std::string &device)
{
    const int64_t t0 = nowNs();
    Result<Device> dev = Device::make(device);
    std::vector<Application> suite = standardSuite();
    const int64_t t1 = nowNs();
    if (!dev.ok() || suite.empty())
        throw std::runtime_error("setup failed for " + device);
    return (t1 - t0) * 1e-9;
}

/**
 * The measured phase shared by both offline workloads: one unmeasured,
 * checked warm-up pass, then checked passes until opts.seconds have
 * passed (at least @p minPasses). @p pass runs one pass and returns its
 * check result. Set-up is timed once before the warm-up and once after
 * every pass: a pass leaves the caches as cold as a fresh start does,
 * and the samples see the host in the same states as the passes.
 */
void
measurePasses(const RunOptions &opts, const std::string &device,
              size_t minPasses, const std::function<std::string()> &pass,
              Report &report)
{
    std::vector<double> setup = {timeSetup(device)};
    report.check(pass());
    std::vector<double> passS;
    const int64_t start = nowNs();
    while (passS.size() < minPasses ||
           (nowNs() - start) * 1e-9 < opts.seconds) {
        const int64_t t0 = nowNs();
        const std::string problem = pass();
        passS.push_back((nowNs() - t0) * 1e-9);
        report.check(problem);
        setup.push_back(timeSetup(device));
    }
    report.add("setup_s", median(setup), "s", setup.size());
    report.add("pass_s_p50", median(passS), "s", passS.size());
    report.add("peak_rss_mb", peakRssMib(), "MiB", 1);
    char buf[120];
    std::snprintf(buf, sizeof buf, "pass p90 %.6f s over %zu passes",
                  percentile(passS, 90.0), passS.size());
    report.notes.push_back(buf);
}

} // namespace

Report
runCampaignWorkload(const RunOptions &opts)
{
    Report report;
    const Device device = Device::make("hd7970").value();
    const std::vector<Application> suite = seededSuite(opts.seed);
    report.check(checkGoldenSubset(device.gpu(), opts.root));
    CampaignTable last;
    measurePasses(
        opts, "hd7970", 1,
        [&] {
            last = campaignPass(device.gpu(), suite);
            return checkCampaign(last, opts.root);
        },
        report);
    report.notes.push_back("ed2_gain_pct " + fmt17(last.harmoniaGainPct) +
                           " (simulated)");
    report.notes.push_back(
        "oracle_gap_pts " +
        fmt17(last.oracleGainPct - last.harmoniaGainPct) + " (simulated)");
    return report;
}

Report
runOracleWorkload(const RunOptions &opts)
{
    Report report;
    const Device device = Device::make("ampere-ga100").value();
    const std::vector<Application> suite = seededSuite(opts.seed);
    // The warm-up pass also takes the memo's first-touch page faults.
    measurePasses(
        opts, "ampere-ga100", 3,
        [&] {
            return checkOracleDigest(oraclePass(device.gpu(), suite),
                                     opts.root);
        },
        report);
    report.notes.push_back(
        "cg, harmonia and freq-only are not run: they reject this part");
    return report;
}

} // namespace perfbench
