/**
 * @file
 * Determinism harness for the parallel sweep engine.
 *
 * Parallelizing the RNG-seeded model is only safe if results are
 * provably bit-identical to the serial path. These property tests pin
 * that down for every layer ported onto the sweep engine: oracle
 * search, sensitivity ground truth, training, and the full campaign,
 * each compared across 1, 2, and 8 worker threads with exact
 * (bitwise) double equality. Also covers the point store: hit
 * accounting, its (kernel, phase bytes) key, overlapping concurrent
 * slot fills, whole-lattice and subset fills against a serial
 * point-sink lattice, seeded (restored) slots, and the per-task RNG
 * substream scheme.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "harmonia/core/campaign.hh"
#include "harmonia/core/oracle.hh"
#include "harmonia/core/sensitivity.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/core/training.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;

namespace
{

const GpuDevice &
device()
{
    static GpuDevice dev;
    return dev;
}

/** Small seeded app subset; iterations trimmed to bound test cost. */
std::vector<Application>
miniSuite()
{
    std::vector<Application> suite = {makeComd(), makeBpt(),
                                      makeGraph500(), makeSpmv()};
    for (auto &app : suite)
        app.iterations = std::min(app.iterations, 3);
    return suite;
}

Campaign
runCampaign(int jobs)
{
    CampaignOptions options;
    options.includeOracle = true;
    options.includeFreqOnly = true;
    options.jobs = jobs;
    Campaign campaign(device(), miniSuite(), options);
    campaign.run();
    return campaign;
}

constexpr int kJobVariants[] = {2, 8};

} // namespace

TEST(SweepDeterminism, OracleSearchIsThreadCountInvariant)
{
    const auto suite = miniSuite();
    ConfigSweep serial(device(), {.jobs = 1});
    for (int jobs : kJobVariants) {
        ConfigSweep parallel(device(), {.jobs = jobs});
        for (const auto &app : suite) {
            for (const auto &kernel : app.kernels) {
                for (OracleObjective obj :
                     {OracleObjective::MinEd2, OracleObjective::MaxPerf,
                      OracleObjective::MinEnergy}) {
                    EXPECT_EQ(
                        bestConfigIndex(serial.configs(),
                                        serial.evaluate(kernel, 0), obj),
                        bestConfigIndex(parallel.configs(),
                                        parallel.evaluate(kernel, 0),
                                        obj))
                        << kernel.id() << " jobs=" << jobs;
                }
            }
        }
    }
}

TEST(SweepDeterminism, SweepEvaluationBitIdenticalToDirectRuns)
{
    // Every stored record is the served projection of the reference
    // run() at its configuration, bit for bit, on every device.
    const KernelProfile kernel = makeGraph500().kernels.front();
    for (const std::string &name : deviceNames()) {
        const GpuDevice dev = makeDevice(name).value();
        ConfigSweep sweep(dev, {.jobs = 8});
        const std::vector<PointResult> &results = sweep.evaluate(kernel, 1);
        const std::vector<HardwareConfig> &configs = sweep.configs();
        ASSERT_EQ(results.size(), configs.size());
        const size_t stride = configs.size() / 40 + 1;
        for (size_t i = 0; i < configs.size(); i += stride) {
            const PointResult direct = dev.run(kernel, 1, configs[i]).point();
            EXPECT_EQ(std::memcmp(&results[i], &direct, sizeof direct), 0)
                << name << " slot " << i;
        }
    }
}

TEST(SweepDeterminism, SuiteSensitivitySweepIsThreadCountInvariant)
{
    const auto suite = miniSuite();
    const auto serial = measureSuiteSensitivities(device(), suite, 2, 1);
    ASSERT_FALSE(serial.empty());
    for (int jobs : kJobVariants) {
        const auto parallel =
            measureSuiteSensitivities(device(), suite, 2, jobs);
        ASSERT_EQ(serial.size(), parallel.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].kernelId, parallel[i].kernelId);
            EXPECT_EQ(serial[i].iteration, parallel[i].iteration);
            EXPECT_EQ(serial[i].sensitivity.cuCount,
                      parallel[i].sensitivity.cuCount);
            EXPECT_EQ(serial[i].sensitivity.computeFreq,
                      parallel[i].sensitivity.computeFreq);
            EXPECT_EQ(serial[i].sensitivity.memBandwidth,
                      parallel[i].sensitivity.memBandwidth);
        }
    }
}

TEST(SweepDeterminism, TrainingSetIsThreadCountInvariant)
{
    const auto suite = miniSuite();
    TrainingOptions serialOpt;
    serialOpt.iterationsPerKernel = 2;
    const auto serial =
        collectTrainingSamples(device(), suite, serialOpt);
    ASSERT_GE(serial.size(), 10u);
    for (int jobs : kJobVariants) {
        TrainingOptions opt = serialOpt;
        opt.jobs = jobs;
        const auto parallel = collectTrainingSamples(device(), suite, opt);
        ASSERT_EQ(serial.size(), parallel.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].kernelId, parallel[i].kernelId);
            EXPECT_EQ(serial[i].iteration, parallel[i].iteration);
            EXPECT_EQ(serial[i].bandwidthSens, parallel[i].bandwidthSens);
            EXPECT_EQ(serial[i].computeSens, parallel[i].computeSens);
        }
    }
}

TEST(SweepDeterminism, CampaignMetricsAreThreadCountInvariant)
{
    const Campaign serial = runCampaign(1);
    for (int jobs : kJobVariants) {
        const Campaign parallel = runCampaign(jobs);
        for (Scheme scheme : serial.schemes()) {
            for (const auto &app : serial.appNames()) {
                for (CampaignMetric metric :
                     {CampaignMetric::Ed2, CampaignMetric::Energy,
                      CampaignMetric::Power, CampaignMetric::Time}) {
                    // Bitwise equality: parallel evaluation must not
                    // perturb a single ULP anywhere.
                    EXPECT_EQ(serial.metric(scheme, app, metric),
                              parallel.metric(scheme, app, metric))
                        << schemeName(scheme) << "/" << app
                        << " jobs=" << jobs;
                }
                // Oracle picks, residencies and traces feed figures
                // 14-16; spot-check the trace configs too.
                const AppRunResult &a = serial.result(scheme, app);
                const AppRunResult &b = parallel.result(scheme, app);
                ASSERT_EQ(a.trace.size(), b.trace.size());
                for (size_t i = 0; i < a.trace.size(); i += 7)
                    EXPECT_EQ(a.trace[i].config, b.trace[i].config);
            }
        }
    }
}

TEST(SweepDeterminism, CacheHitAccountingOnRepeatedRuns)
{
    const auto suite = miniSuite();
    const KernelProfile &kernel = suite.front().kernels.front();
    ConfigSweep sweep(device(), {.jobs = 4});
    EXPECT_EQ(sweep.cacheHits(), 0u);
    EXPECT_EQ(sweep.cacheMisses(), 0u);

    sweep.evaluate(kernel, 0);
    EXPECT_EQ(sweep.cacheMisses(), 1u);
    EXPECT_EQ(sweep.cacheHits(), 0u);
    EXPECT_EQ(sweep.cacheEntries(), 1u);

    // Repeated run: served from the memo, hit count reported.
    sweep.evaluate(kernel, 0);
    sweep.evaluate(kernel, 0);
    EXPECT_EQ(sweep.cacheMisses(), 1u);
    EXPECT_EQ(sweep.cacheHits(), 2u);

    // A different kernel is a fresh miss.
    sweep.evaluate(suite.front().kernels[1], 0);
    EXPECT_EQ(sweep.cacheMisses(), 2u);
    EXPECT_EQ(sweep.cacheEntries(), 2u);

    sweep.clearCache();
    EXPECT_EQ(sweep.cacheEntries(), 0u);
    EXPECT_EQ(sweep.cacheMisses(), 2u); // Statistics survive clears.

    // The oracle's governor-level decision cache stops the repeated
    // search; its lattices are reduced from a reused buffer and never
    // land in its sweep's memo.
    OracleGovernor oracle(device());
    oracle.decide(kernel, 0);
    oracle.decide(kernel, 0);
    EXPECT_EQ(oracle.searches(), 1u);
    EXPECT_EQ(oracle.sweep().cacheEntries(), 0u);
}

TEST(SweepDeterminism, OverlappingSlotFillsMatchASerialLattice)
{
    // Four pool threads fill overlapping half-lattice slices of one
    // invocation, then a full evaluate() completes it. Whichever fill
    // claims a slot computes it, exactly once, and the stored lattice
    // must equal a serial canonical run bit for bit.
    const auto suite = miniSuite();
    const KernelProfile &kernel = suite[1].kernels.front();
    ConfigSweep sweep(device(), {.jobs = 4});
    const size_t n = sweep.configs().size();

    std::vector<KernelResult> serial(n);
    device().runLattice(kernel, kernel.phase(1), sweep.configs(),
                        serial.data());

    constexpr size_t kFills = 4;
    std::vector<std::vector<size_t>> slices(kFills);
    for (size_t t = 0; t < kFills; ++t)
        for (size_t i = 0; i < n / 2; ++i)
            slices[t].push_back((t * n / 8 + 3 * i) % n);
    std::vector<ConfigSweep::FillCounts> counts(kFills);
    sweep.pool().parallelFor(kFills, 1, [&](size_t t) {
        sweep.fill(kernel, 1, slices[t], &counts[t]);
    });

    size_t computed = 0;
    for (size_t t = 0; t < kFills; ++t) {
        EXPECT_EQ(counts[t].computed + counts[t].cached,
                  slices[t].size());
        EXPECT_EQ(counts[t].restored, 0u);
        computed += counts[t].computed;
    }
    EXPECT_LE(computed, n);
    EXPECT_EQ(sweep.cacheHits() + sweep.cacheMisses(), kFills);

    const std::vector<PointResult> &full = sweep.evaluate(kernel, 1);
    EXPECT_EQ(sweep.cacheEntries(), 1u);
    ASSERT_EQ(full.size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(full[i].time(), serial[i].time()) << i;
        EXPECT_EQ(full[i].powerW, serial[i].power.total()) << i;
        EXPECT_EQ(full[i].cardEnergy, serial[i].cardEnergy) << i;
        EXPECT_EQ(full[i].gpuEnergy, serial[i].gpuEnergy) << i;
        EXPECT_EQ(full[i].memEnergy, serial[i].memEnergy) << i;
    }
}

TEST(SweepDeterminism, StoreFillsMatchASerialPointLattice)
{
    // On ampere-ga100, a fresh evaluate() runs the whole lattice
    // straight into the store, while a subset fill() and the evaluate()
    // that completes the same key both run their missing points
    // through a scratch. Both stored lattices must equal a serial
    // point-sink lattice byte for byte.
    const GpuDevice dev = makeDevice("ampere-ga100").value();
    const KernelProfile kernel = makeGraph500().kernels.front();
    ConfigSweep fresh(dev, {.jobs = 4});
    ConfigSweep completed(dev, {.jobs = 4});
    const size_t n = fresh.configs().size();

    std::vector<PointResult> serial(n);
    dev.runLattice(kernel, kernel.phase(1), fresh.configs(),
                   serial.data());

    std::vector<size_t> subset;
    for (size_t i = 0; i < n / 3; ++i)
        subset.push_back((11 * i) % n);
    ConfigSweep::FillCounts counts;
    completed.fill(kernel, 1, subset, &counts);
    EXPECT_EQ(counts.computed, subset.size());

    for (const ConfigSweep *sweep : {&fresh, &completed}) {
        const std::vector<PointResult> &full = sweep->evaluate(kernel, 1);
        ASSERT_EQ(full.size(), n);
        EXPECT_EQ(std::memcmp(full.data(), serial.data(),
                              n * sizeof(PointResult)),
                  0)
            << (sweep == &fresh ? "fresh" : "completed");
    }
    EXPECT_EQ(fresh.cacheMisses(), 1u);
    EXPECT_EQ(completed.cacheMisses(), 2u);
}

TEST(SweepDeterminism, IterationsOfOnePhaseShareOneLattice)
{
    // CoMD never changes phase: iteration 7 is iteration 0's lattice.
    const KernelProfile kernel = makeComd().kernels.front();
    ConfigSweep sweep(device(), {.jobs = 2});
    const std::vector<PointResult> &first = sweep.evaluate(kernel, 0);
    const std::vector<PointResult> &second = sweep.evaluate(kernel, 7);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(sweep.cacheEntries(), 1u);
    EXPECT_EQ(sweep.cacheMisses(), 1u);
    EXPECT_EQ(sweep.cacheHits(), 1u);
}

TEST(SweepDeterminism, DistinctPhasesGetDistinctLattices)
{
    // Graph500's frontier gives iterations 0 and 1 different phases.
    const KernelProfile kernel = makeGraph500().kernels.front();
    ConfigSweep sweep(device(), {.jobs = 2});
    sweep.evaluate(kernel, 1);
    sweep.evaluate(kernel, 0);
    sweep.evaluate(kernel, 8); // Iteration 0's phase again.
    EXPECT_EQ(sweep.cacheEntries(), 2u);
    EXPECT_EQ(sweep.cacheMisses(), 2u);
    EXPECT_EQ(sweep.cacheHits(), 1u);

    // The walk orders a kernel's lattices by the smallest iteration
    // that reached each, not by phase bytes.
    std::vector<int> iterations;
    sweep.forEachEntry([&](const std::string &id, int iteration,
                           const ConfigSweep::Lattice &) {
        EXPECT_EQ(id, kernel.id());
        iterations.push_back(iteration);
    });
    EXPECT_EQ(iterations, (std::vector<int>{0, 1}));
}

TEST(SweepDeterminism, KeysComparePhaseBytesNotValues)
{
    // 0.0 == -0.0, but the key is the phase's bytes: a phase function
    // that flips only the sign of a zero field makes two lattices.
    KernelProfile kernel = makeComd().kernels.front();
    kernel.basePhase.branchDivergence = 0.0;
    kernel.phaseFn = [](const KernelPhase &base, int iteration) {
        KernelPhase p = base;
        p.branchDivergence = iteration % 2 ? -0.0 : 0.0;
        return p;
    };
    ASSERT_EQ(kernel.phase(0).branchDivergence,
              kernel.phase(1).branchDivergence);
    ConfigSweep sweep(device(), {.jobs = 1});
    sweep.fill(kernel, 0, {0, 1});
    sweep.fill(kernel, 1, {0, 1});
    sweep.fill(kernel, 2, {0, 1});
    EXPECT_EQ(sweep.cacheEntries(), 2u);
    EXPECT_EQ(sweep.cacheMisses(), 2u);
    EXPECT_EQ(sweep.cacheHits(), 1u);
}

TEST(SweepDeterminism, OverlappingFillsThroughIterationsOfOnePhase)
{
    // Four pool threads fill overlapping half-lattice slices, each
    // naming a different iteration of one phase-invariant kernel:
    // they all land in one lattice, which must equal a serial
    // canonical run bit for bit.
    const KernelProfile kernel = makeBpt().kernels.front();
    ConfigSweep sweep(device(), {.jobs = 4});
    const size_t n = sweep.configs().size();

    std::vector<KernelResult> serial(n);
    device().runLattice(kernel, kernel.phase(0), sweep.configs(),
                        serial.data());

    constexpr size_t kFills = 4;
    std::vector<std::vector<size_t>> slices(kFills);
    for (size_t t = 0; t < kFills; ++t)
        for (size_t i = 0; i < n / 2; ++i)
            slices[t].push_back((t * n / 8 + 5 * i) % n);
    std::vector<ConfigSweep::FillCounts> counts(kFills);
    sweep.pool().parallelFor(kFills, 1, [&](size_t t) {
        sweep.fill(kernel, static_cast<int>(3 * t + 2), slices[t],
                   &counts[t]);
    });
    size_t computed = 0;
    for (size_t t = 0; t < kFills; ++t) {
        EXPECT_EQ(counts[t].computed + counts[t].cached,
                  slices[t].size());
        computed += counts[t].computed;
    }
    EXPECT_LE(computed, n);

    const std::vector<PointResult> &full = sweep.evaluate(kernel, 20);
    EXPECT_EQ(sweep.cacheEntries(), 1u);
    ASSERT_EQ(full.size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(full[i].time(), serial[i].time()) << i;
        EXPECT_EQ(full[i].powerW, serial[i].power.total()) << i;
        EXPECT_EQ(full[i].cardEnergy, serial[i].cardEnergy) << i;
        EXPECT_EQ(full[i].gpuEnergy, serial[i].gpuEnergy) << i;
        EXPECT_EQ(full[i].memEnergy, serial[i].memEnergy) << i;
    }
    // The lattice remembers the smallest iteration that reached it.
    sweep.forEachEntry([&](const std::string &, int iteration,
                           const ConfigSweep::Lattice &) {
        EXPECT_EQ(iteration, 2);
    });
}

TEST(SweepDeterminism, SeededSlotsAreServedNotRecomputed)
{
    const auto suite = miniSuite();
    const KernelProfile &kernel = suite.front().kernels.front();
    ConfigSweep sweep(device(), {.jobs = 1});
    const std::vector<PointResult> reference =
        ConfigSweep(device(), {.jobs = 1}).evaluate(kernel, 0);

    // Restore three points, then ask for two of them plus one more.
    sweep.seed(kernel, 0, {0, 5, 9},
               {reference[0], reference[5], reference[9]});
    ConfigSweep::FillCounts counts;
    sweep.fill(kernel, 0, {5, 9, 9, 7}, &counts);
    EXPECT_EQ(counts.restored, 3u); // 5, 9 and the repeated 9.
    EXPECT_EQ(counts.computed, 1u);
    EXPECT_EQ(counts.cached, 0u);
    EXPECT_EQ(sweep.cacheMisses(), 1u);

    // The full lattice now computes only the slots still absent.
    const auto &full = sweep.evaluate(kernel, 0);
    EXPECT_EQ(sweep.cacheMisses(), 2u);
    for (size_t i = 0; i < full.size(); ++i)
        EXPECT_EQ(full[i].ed2(), reference[i].ed2()) << i;

    size_t restored = 0;
    sweep.forEachEntry([&](const std::string &id, int iteration,
                           const ConfigSweep::Lattice &lattice) {
        EXPECT_EQ(id, kernel.id());
        EXPECT_EQ(iteration, 0);
        for (const ConfigSweep::Slot slot : lattice.slots) {
            EXPECT_NE(slot, ConfigSweep::Slot::Absent);
            restored += slot == ConfigSweep::Slot::Restored;
        }
    });
    EXPECT_EQ(restored, 3u);

    // A complete lattice is a hit, whatever mix of slots it holds.
    sweep.evaluate(kernel, 0);
    EXPECT_EQ(sweep.cacheHits(), 1u);
}

TEST(SweepDeterminism, RngSubstreamsAreIndexDeterministic)
{
    // Same (seed, index) -> identical stream, regardless of creation
    // order; different indices -> decorrelated streams.
    Rng a = sweepSubstream(42, 7);
    Rng c = sweepSubstream(42, 8);
    Rng b = sweepSubstream(42, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng a2 = sweepSubstream(42, 7);
    bool differs = false;
    for (int i = 0; i < 100; ++i)
        differs = differs || (a2.next() != c.next());
    EXPECT_TRUE(differs);
}
