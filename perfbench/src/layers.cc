#include "layers.hh"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <tuple>

#include "harmonia/common/thread_pool.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/device.hh"
#include "harmonia/serve/protocol.hh"
#include "offline.hh"
#include "serve_load.hh"
#include "trace.hh"

namespace perfbench
{

using namespace harmonia;
using harmonia::serve::JsonValue;

namespace
{

/** (kernel, iteration) keys an offline pass runs, seeded sample;
 * they point into the suite they were drawn from. */
struct Key
{
    const KernelProfile *profile;
    int iteration;
};

std::vector<Key>
sampleKeys(const std::vector<Application> &suite, uint64_t seed,
           size_t count)
{
    std::vector<Key> keys;
    for (const Application &app : suite)
        for (int it = 0; it < app.iterations; ++it)
            for (const KernelProfile &k : app.kernels)
                keys.push_back(Key{&k, it});
    SeededRng rng(seed ^ 0x5eed);
    shuffle(keys, rng);
    keys.resize(std::min(count, keys.size()));
    return keys;
}

double
elapsedUs(int64_t t0)
{
    return (nowNs() - t0) * 1e-3;
}

/** Writes the spans of @p tracer to @p dir/@p file when dir is set. */
void
writeSpans(const Tracer &tracer, const std::string &dir,
           const std::string &file)
{
    if (dir.empty())
        return;
    std::filesystem::create_directories(dir);
    std::ofstream out(dir + "/" + file);
    tracer.writeJson(out);
}

/** Per-pass layer figures of one traced campaign pass. */
struct CampaignLayers
{
    double wallMs = 0.0;
    double trainingMs = 0.0;
    double coverage = 0.0; ///< Sum of layer self times / wall.
    std::map<std::string, double> runtimeMs, selfMs, decideUs, observeUs;
};

CampaignLayers
campaignLayers(const Tracer &t)
{
    CampaignLayers c;
    const std::vector<int64_t> self = t.selfTimes();
    c.wallMs = t.spans().front().durationNs() * 1e-6;
    c.trainingMs = totalNs(t, "core.training") * 1e-6;
    int64_t layered = 0;
    for (size_t i = 1; i < self.size(); ++i)
        layered += self[i];
    c.coverage = layered * 1e-6 / c.wallMs;
    for (const std::string &s : kCampaignSchemes) {
        const std::string decide = "core.governor.decide." + s;
        const std::string observe = "core.governor.observe." + s;
        c.runtimeMs[s] = totalNs(t, "core.runtime." + s) * 1e-6;
        c.selfMs[s] = selfNs(t, self, "core.runtime." + s) * 1e-6;
        c.decideUs[s] = totalNs(t, decide) * 1e-3 /
                        std::max<size_t>(1, spanCount(t, decide));
        c.observeUs[s] = totalNs(t, observe) * 1e-3 /
                         std::max<size_t>(1, spanCount(t, observe));
    }
    return c;
}

/** Campaign section: traced and untraced passes alternate. */
void
campaignSection(const RunOptions &opts, double budgetS, Report &report)
{
    const Device device = Device::make("hd7970").value();
    const std::vector<Application> suite = seededSuite(opts.seed);
    report.check(checkCampaign(campaignPass(device.gpu(), suite), opts.root));

    std::vector<CampaignLayers> passes;
    std::vector<double> untracedMs;
    CampaignTable table;
    const int64_t start = nowNs();
    while (passes.size() < 5 || (nowNs() - start) * 1e-9 < budgetS) {
        int64_t t0 = nowNs();
        report.check(
            checkCampaign(campaignPass(device.gpu(), suite), opts.root));
        untracedMs.push_back((nowNs() - t0) * 1e-6);

        Tracer tracer;
        table = tracedCampaignPass(device.gpu(), suite, tracer);
        report.check(checkCampaign(table, opts.root));
        const std::string tree = tracer.validate();
        report.check(tree.empty() ? "" : "campaign span tree: " + tree);
        passes.push_back(campaignLayers(tracer));
        const double cov = passes.back().coverage;
        report.check(cov >= kMinCoverage && cov <= 1.0 + 1e-9
                         ? ""
                         : "layer self times cover " +
                               std::to_string(100 * cov) +
                               "% of a campaign pass");
        if (passes.size() == 1)
            writeSpans(tracer, opts.traceDir,
                       "campaign_pass-seed" + std::to_string(opts.seed) +
                           ".json");
    }

    auto med = [&](auto get) {
        std::vector<double> v;
        for (const CampaignLayers &p : passes)
            v.push_back(get(p));
        return median(v);
    };
    const size_t n = passes.size();
    std::vector<double> tracedMs;
    for (const CampaignLayers &p : passes)
        tracedMs.push_back(p.wallMs);
    report.add("trace.overhead_pct",
               100.0 * (median(tracedMs) / median(untracedMs) - 1.0), "%", n);
    report.add("trace.coverage_pct",
               100.0 * med([](const CampaignLayers &p) { return p.coverage; }),
               "%", n);
    report.add("core.training_ms",
               med([](const CampaignLayers &p) { return p.trainingMs; }),
               "ms", n);
    for (const std::string &s : kCampaignSchemes) {
        report.add("core.runtime_ms." + s,
                   med([&](const CampaignLayers &p) {
                       return p.runtimeMs.at(s);
                   }),
                   "ms", n);
        report.add("core.runtime_self_ms." + s,
                   med([&](const CampaignLayers &p) {
                       return p.selfMs.at(s);
                   }),
                   "ms", n);
        report.add("core.governor.decide_us." + s,
                   med([&](const CampaignLayers &p) {
                       return p.decideUs.at(s);
                   }),
                   "us", n);
        report.add("core.governor.observe_us." + s,
                   med([&](const CampaignLayers &p) {
                       return p.observeUs.at(s);
                   }),
                   "us", n);
    }
    report.add("model.ed2_gain_pct", table.harmoniaGainPct, "%", 1);
    report.add("model.oracle_gap_pts",
               table.oracleGainPct - table.harmoniaGainPct, "pts", 1);
}

/** Oracle section: traced oracle_ga100 passes. */
void
oracleSection(const RunOptions &opts, Report &report)
{
    const Device device = Device::make("ampere-ga100").value();
    const std::vector<Application> suite = seededSuite(opts.seed);
    std::vector<double> runtimeMs, decideUs;
    size_t hits = 0, misses = 0;
    for (int pass = 0; pass < 2; ++pass) {
        Tracer tracer;
        const std::string digest =
            oraclePass(device.gpu(), suite, &tracer, &hits, &misses);
        report.check(checkOracleDigest(digest, opts.root));
        const std::string tree = tracer.validate();
        report.check(tree.empty() ? "" : "oracle span tree: " + tree);
        runtimeMs.push_back(totalNs(tracer, "core.runtime.oracle_ga100") *
                            1e-6);
        decideUs.push_back(
            totalNs(tracer, "core.governor.decide.oracle_ga100") * 1e-3 /
            std::max<size_t>(
                1, spanCount(tracer, "core.governor.decide.oracle_ga100")));
    }
    report.add("core.runtime_ms.oracle_ga100", median(runtimeMs), "ms",
               runtimeMs.size());
    report.add("core.governor.decide_us.oracle_ga100", median(decideUs),
               "us", decideUs.size());
    report.add("core.sweep.hit_ratio",
               hits + misses ? static_cast<double>(hits) / (hits + misses)
                             : 0.0,
               "ratio", hits + misses);
}

/** sim, timing and core.sweep probes on one device's keys. */
void
latticeSection(const std::string &device, const std::string &tag,
               size_t keyCount, bool withPool, bool withRun,
               const RunOptions &opts, Report &report)
{
    const Device dev = Device::make(device).value();
    const GpuDevice &gpu = dev.gpu();
    const std::vector<HardwareConfig> configs = gpu.space().allConfigs();
    const std::vector<HardwareConfig> one = {gpu.space().maxConfig()};
    const std::vector<Application> suite = seededSuite(opts.seed);
    const std::vector<Key> keys = sampleKeys(suite, opts.seed, keyCount);
    std::vector<KernelResult> out(configs.size());
    ThreadPool pool(kOracleJobs);
    SweepOptions so;
    so.jobs = 1;
    ConfigSweep sweep(gpu, so);

    std::vector<double> full, fixed, pooled, ratio, prepare, run, evalUs,
        overhead;
    for (int rep = 0; rep < 3; ++rep) {
        sweep.clearCache();
        for (const Key &k : keys) {
            const KernelPhase phase = k.profile->phase(k.iteration);
            int64_t t0 = nowNs();
            gpu.runLattice(*k.profile, phase, configs, out.data());
            const double fullUs = elapsedUs(t0);
            full.push_back(fullUs);

            t0 = nowNs();
            gpu.runLattice(*k.profile, phase, one, out.data());
            fixed.push_back(elapsedUs(t0));

            if (withPool) {
                t0 = nowNs();
                gpu.runLattice(*k.profile, phase, configs, out.data(), &pool);
                pooled.push_back(elapsedUs(t0));
                ratio.push_back(pooled.back() / fullUs);
            }

            t0 = nowNs();
            const PreparedKernel prep = gpu.engine().prepare(*k.profile, phase);
            prepare.push_back(elapsedUs(t0));
            (void)prep;

            if (withRun) {
                t0 = nowNs();
                const KernelResult r =
                    gpu.run(*k.profile, k.iteration, configs[rep]);
                run.push_back(elapsedUs(t0));
                (void)r;
            }

            t0 = nowNs();
            sweep.evaluate(*k.profile, k.iteration);
            evalUs.push_back(elapsedUs(t0));
            overhead.push_back(evalUs.back() - fullUs);
        }
    }
    const double fullMed = median(full), fixedMed = median(fixed);
    report.add("sim.lattice_us." + tag, fullMed, "us", full.size());
    report.add("sim.lattice_fixed_us." + tag, fixedMed, "us", fixed.size());
    report.add("sim.point_ns." + tag,
               1e3 * (fullMed - fixedMed) / static_cast<double>(configs.size()),
               "ns", full.size());
    if (withPool)
        report.add("sim.lattice_pool_ratio." + tag, median(ratio), "ratio",
                   ratio.size());
    if (withRun)
        report.add("sim.run_us." + tag, median(run), "us", run.size());
    report.add("timing.prepare_us." + tag, median(prepare), "us",
               prepare.size());
    report.add("core.sweep.evaluate_us." + tag, median(evalUs), "us",
               evalUs.size());
    report.add("core.sweep.overhead_us." + tag, median(overhead), "us",
               overhead.size());
}

double
counter(const JsonValue &root, std::initializer_list<const char *> path)
{
    const JsonValue *v = &root;
    for (const char *key : path) {
        v = v->isObject() ? v->find(key) : nullptr;
        if (!v)
            return 0.0;
    }
    return v->isNumber() ? static_cast<double>(v->asInt()) : 0.0;
}

/** Most rungs the traced run's rate ladder runs. */
constexpr int kLadderRungs = 6;

/** Serve section: a live low-rate then high-rate phase, the rate
 * ladder, then the serial replay. */
void
serveSection(const RunOptions &opts, double lowS, double highS,
             Report &report)
{
    std::vector<StreamRequest> epoch;
    std::vector<Outcome> epochOut, out;
    std::vector<int64_t> epochStart; // Phase start per request.
    auto append = [&](const std::vector<StreamRequest> &reqs,
                      int64_t startNs) {
        epoch.insert(epoch.end(), reqs.begin(), reqs.end());
        epochOut.insert(epochOut.end(), out.begin(), out.end());
        epochStart.insert(epochStart.end(), reqs.size(), startNs);
    };

    MixGenerator gen(opts.seed, 0);
    JsonValue stats;
    PhaseResult low, high;
    size_t lowBegin = 0, highBegin = 0, highEnd = 0;
    {
        // Set-up: Service, Server::start, the first ping reply and the
        // predictor training the first harmonia govern step triggers.
        const std::vector<StreamRequest> setup = gen.setup();
        const int64_t t0 = nowNs();
        LiveServer live;
        live.roundTrip(setup, out);
        report.add("serve.setup_ms", (nowNs() - t0) * 1e-6, "ms", 1);
        append(setup, 0);
        for (const double rate : {kLowRate, kHighRate}) {
            const std::vector<StreamRequest> warm =
                gen.phase(rate, rate == kLowRate ? 0.5 : 0.3);
            const PhaseResult w = live.openLoop(warm, out);
            append(warm, w.startNs);
            const std::vector<StreamRequest> reqs =
                gen.phase(rate, rate == kLowRate ? lowS : highS);
            (rate == kLowRate ? lowBegin : highBegin) = epoch.size();
            PhaseResult &res = rate == kLowRate ? low : high;
            res = live.openLoop(reqs, out);
            append(reqs, res.startNs);
        }
        highEnd = epoch.size();
        stats = live.stats();
    }

    report.add("serve.lat_p50_ms.low", low.p50(), "ms", low.latencyMs.size());
    report.add("serve.lat_p99_ms.low", low.p99(), "ms", low.latencyMs.size());
    report.add("serve.lat_p50_ms.high", high.p50(), "ms",
               high.latencyMs.size());
    report.add("serve.lat_p99_ms.high", high.p99(), "ms",
               high.latencyMs.size());

    RateLadder ladder(opts.seed, kLadderRungs, report);
    while (!ladder.done())
        ladder.step();
    report.add("serve.max_rate_rps", ladder.result(), "1/s",
               ladder.log().size());
    report.notes.insert(report.notes.end(), ladder.log().begin(),
                        ladder.log().end());

    std::vector<double> serviceUs;
    const uint64_t mismatches = replayMismatches(epoch, epochOut, &serviceUs);
    checkReplies(report, epoch, epochOut);
    for (uint64_t i = 0; i < mismatches; ++i)
        report.check("a live reply differs from the serial replay");

    // Spans: one per request (due to reply) under its phase, and one
    // per replayed processLine under the replay root.
    Tracer tracer;
    for (const auto &[name, begin, end] :
         {std::tuple{"serve.phase.low", lowBegin, highBegin},
          std::tuple{"serve.phase.high", highBegin, highEnd}}) {
        if (begin == end)
            continue;
        int64_t last = epochStart[begin];
        for (size_t i = begin; i < end; ++i)
            last = std::max(last, epochOut[i].doneNs);
        const int32_t root = tracer.record(name, epochStart[begin], last, -1);
        for (size_t i = begin; i < end; ++i) {
            if (epochOut[i].replied)
                tracer.record("serve.request",
                              epochStart[i] + epoch[i].dueNs,
                              epochOut[i].doneNs, root, epoch[i].id);
        }
    }
    // The replay ran back to back; lay its calls end to end.
    std::vector<int64_t> lineNs;
    int64_t replayNs = 0;
    for (const double us : serviceUs) {
        lineNs.push_back(static_cast<int64_t>(us * 1e3));
        replayNs += lineNs.back();
    }
    const int32_t replayRoot = tracer.record("serve.replay", 0, replayNs, -1);
    int64_t at = 0;
    for (size_t i = 0; i < epoch.size(); ++i) {
        tracer.record(std::string("serve.service.line.") +
                          className(epoch[i].cls),
                      at, at + lineNs[i], replayRoot, epoch[i].id);
        at += lineNs[i];
    }
    const std::string tree = tracer.validate();
    report.check(tree.empty() ? "" : "serve span tree: " + tree);
    writeSpans(tracer, opts.traceDir,
               "serve-seed" + std::to_string(opts.seed) + ".json");

    std::vector<std::vector<double>> byClass(kRequestClasses);
    for (size_t i = 0; i < epoch.size(); ++i)
        byClass[static_cast<size_t>(epoch[i].cls)].push_back(serviceUs[i]);
    for (int c = 0; c < kRequestClasses; ++c)
        report.add(std::string("serve.service.line_us.") +
                       className(static_cast<RequestClass>(c)),
                   median(byClass[static_cast<size_t>(c)]), "us",
                   byClass[static_cast<size_t>(c)].size());

    for (const auto &[name, begin, end] :
         {std::tuple{"serve.wait_ms_p50.low", lowBegin, highBegin},
          std::tuple{"serve.wait_ms_p50.high", highBegin, highEnd}}) {
        std::vector<double> wait;
        for (size_t i = begin; i < end; ++i)
            if (epochOut[i].replied)
                wait.push_back((epochOut[i].doneNs - epochStart[i] -
                                epoch[i].dueNs) *
                                   1e-6 -
                               serviceUs[i] * 1e-3);
        report.add(name, median(wait), "ms", wait.size());
    }
    report.add("serve.gen.late_ms_p99", percentile(high.lateMs, 99.0), "ms",
               high.lateMs.size());

    std::vector<double> parseUs;
    for (const StreamRequest &r : epoch) {
        const std::string body = r.line.substr(0, r.line.size() - 1);
        JsonValue id;
        const int64_t t0 = nowNs();
        const Result<serve::Request> req = serve::parseRequest(body, &id);
        parseUs.push_back(elapsedUs(t0));
        report.check(req.ok() ? "" : "generated request does not parse");
    }
    report.add("serve.protocol.parse_us", median(parseUs), "us",
               parseUs.size());

    // Mean batch size of the live high-rate phase by Little's law: the
    // requests that arrive while one is in the system.
    double meanLatencyS = 0.0;
    for (const double ms : high.latencyMs)
        meanLatencyS += ms * 1e-3 / high.latencyMs.size();
    const size_t batch = std::max<size_t>(
        1, static_cast<size_t>(std::lround(kHighRate * meanLatencyS)));
    {
        serve::ServiceOptions so;
        so.jobs = 1;
        serve::Service service(so);
        std::vector<double> batchUs;
        for (size_t i = highBegin; i + batch <= highEnd; i += batch) {
            std::vector<std::string> lines;
            for (size_t j = i; j < i + batch; ++j)
                lines.push_back(
                    epoch[j].line.substr(0, epoch[j].line.size() - 1));
            const int64_t t0 = nowNs();
            service.processBatch(lines);
            batchUs.push_back(elapsedUs(t0));
        }
        report.add("serve.service.batch_us", median(batchUs), "us",
                   batchUs.size());
        report.add("serve.service.batch_size", static_cast<double>(batch),
                   "count", 1);
    }

    const double evalRequests =
        counter(stats, {"metrics", "verbs", "evaluate", "requests"});
    const double runs = counter(stats, {"metrics", "batching", "lattice_runs"});
    const double coalesced =
        counter(stats, {"metrics", "batching", "coalesced_requests"});
    const double computed =
        counter(stats, {"metrics", "batching", "points_computed"});
    const double cached =
        counter(stats, {"metrics", "batching", "points_from_cache"});
    double sweepHits = 0.0, sweepMisses = 0.0;
    if (const JsonValue *active = stats.find("devices")
                                      ? stats.find("devices")->find("active")
                                      : nullptr) {
        for (const auto &[name, dev] : active->asObject()) {
            sweepHits += counter(dev, {"sweep_cache", "hits"});
            sweepMisses += counter(dev, {"sweep_cache", "misses"});
        }
    }
    report.add("serve.batching.coalesced_share",
               evalRequests > 0 ? coalesced / evalRequests : 0.0, "ratio",
               static_cast<size_t>(evalRequests));
    report.add("serve.batching.requests_per_run",
               runs > 0 ? evalRequests / runs : 0.0, "ratio",
               static_cast<size_t>(runs));
    report.add("serve.cache.point_hit_ratio",
               cached + computed > 0 ? cached / (cached + computed) : 0.0,
               "ratio", static_cast<size_t>(cached + computed));
    report.add("serve.cache.sweep_hit_ratio",
               sweepHits + sweepMisses > 0
                   ? sweepHits / (sweepHits + sweepMisses)
                   : 0.0,
               "ratio", static_cast<size_t>(sweepHits + sweepMisses));
    report.add("serve.transport.sheds",
               counter(stats, {"metrics", "transport", "backpressure_sheds"}),
               "count", 1);
}

} // namespace

Report
runTraced(const RunOptions &opts)
{
    Report report;
    const double s = opts.seconds;
    campaignSection(opts, 0.2 * s, report);
    oracleSection(opts, report);
    latticeSection("hd7970", "hd7970", 64, false, true, opts, report);
    latticeSection("ampere-ga100", "ga100", 16, true, false, opts, report);
    serveSection(opts, std::max(1.0, 0.15 * s), std::max(1.0, 0.15 * s),
                 report);
    return report;
}

} // namespace perfbench
