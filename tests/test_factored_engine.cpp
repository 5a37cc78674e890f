/**
 * @file
 * Bitwise-equivalence harness for the factored lattice evaluator.
 *
 * The factored path (TimingEngine::prepare + buildAxisTables,
 * LatticeEvaluator, GpuDevice::runLattice) promises results *bitwise
 * identical* to the naive per-config path — not merely close.
 * These tests compare every double of every KernelResult at the bit
 * level across the full workload suite x the 448-point lattice, plus
 * spot-check each axis table against direct model calls, and check the
 * factored bandwidth lattice (supply ceilings x concurrency fixed
 * points) slot by slot against the single-point reference on every
 * registered device, with directed zero-demand and saturation-boundary
 * phases.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "harmonia/common/error.hh"
#include "harmonia/common/thread_pool.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/sim/gpu_device.hh"
#include "sim/lattice_evaluator.hh"
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

/** Bit pattern of a double: distinguishes -0.0/0.0 and NaN payloads. */
uint64_t
bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

#define EXPECT_SAME_BITS(a, b)                                          \
    EXPECT_EQ(bits(a), bits(b)) << #a " differs from " #b " at " << ctx

void
expectSameCounters(const CounterSet &a, const CounterSet &b,
                   const std::string &ctx)
{
    EXPECT_SAME_BITS(a.valuBusy, b.valuBusy);
    EXPECT_SAME_BITS(a.valuUtilization, b.valuUtilization);
    EXPECT_SAME_BITS(a.memUnitBusy, b.memUnitBusy);
    EXPECT_SAME_BITS(a.memUnitStalled, b.memUnitStalled);
    EXPECT_SAME_BITS(a.writeUnitStalled, b.writeUnitStalled);
    EXPECT_SAME_BITS(a.l2CacheHit, b.l2CacheHit);
    EXPECT_SAME_BITS(a.icActivity, b.icActivity);
    EXPECT_SAME_BITS(a.normVgpr, b.normVgpr);
    EXPECT_SAME_BITS(a.normSgpr, b.normSgpr);
    EXPECT_SAME_BITS(a.valuInsts, b.valuInsts);
    EXPECT_SAME_BITS(a.vfetchInsts, b.vfetchInsts);
    EXPECT_SAME_BITS(a.vwriteInsts, b.vwriteInsts);
    EXPECT_SAME_BITS(a.offChipBytes, b.offChipBytes);
}

void
expectSameTiming(const KernelTiming &a, const KernelTiming &b,
                 const std::string &ctx)
{
    EXPECT_SAME_BITS(a.execTime, b.execTime);
    EXPECT_SAME_BITS(a.computeTime, b.computeTime);
    EXPECT_SAME_BITS(a.l2Time, b.l2Time);
    EXPECT_SAME_BITS(a.memTime, b.memTime);
    EXPECT_SAME_BITS(a.launchOverhead, b.launchOverhead);
    EXPECT_SAME_BITS(a.busyTime, b.busyTime);
    EXPECT_EQ(a.occupancy.wavesPerSimd, b.occupancy.wavesPerSimd) << ctx;
    EXPECT_EQ(a.occupancy.wavesPerCu, b.occupancy.wavesPerCu) << ctx;
    EXPECT_EQ(a.occupancy.workgroupsPerCu, b.occupancy.workgroupsPerCu)
        << ctx;
    EXPECT_SAME_BITS(a.occupancy.occupancy, b.occupancy.occupancy);
    EXPECT_EQ(a.occupancy.limiter, b.occupancy.limiter) << ctx;
    EXPECT_SAME_BITS(a.l2HitRate, b.l2HitRate);
    EXPECT_SAME_BITS(a.requestedBytes, b.requestedBytes);
    EXPECT_SAME_BITS(a.offChipBytes, b.offChipBytes);
    EXPECT_SAME_BITS(a.bandwidth.effectiveBps, b.bandwidth.effectiveBps);
    EXPECT_SAME_BITS(a.bandwidth.latency, b.bandwidth.latency);
    EXPECT_EQ(a.bandwidth.limiter, b.bandwidth.limiter) << ctx;
    expectSameCounters(a.counters, b.counters, ctx);
}

void
expectSameResult(const KernelResult &a, const KernelResult &b,
                 const std::string &ctx)
{
    expectSameTiming(a.timing, b.timing, ctx);
    EXPECT_SAME_BITS(a.power.gpu.cuDynamic, b.power.gpu.cuDynamic);
    EXPECT_SAME_BITS(a.power.gpu.uncoreDynamic,
                     b.power.gpu.uncoreDynamic);
    EXPECT_SAME_BITS(a.power.gpu.leakage, b.power.gpu.leakage);
    EXPECT_SAME_BITS(a.power.mem.background, b.power.mem.background);
    EXPECT_SAME_BITS(a.power.mem.activatePrecharge,
                     b.power.mem.activatePrecharge);
    EXPECT_SAME_BITS(a.power.mem.readWrite, b.power.mem.readWrite);
    EXPECT_SAME_BITS(a.power.mem.termination, b.power.mem.termination);
    EXPECT_SAME_BITS(a.power.mem.phy, b.power.mem.phy);
    EXPECT_SAME_BITS(a.power.other, b.power.other);
    EXPECT_SAME_BITS(a.cardEnergy, b.cardEnergy);
    EXPECT_SAME_BITS(a.gpuEnergy, b.gpuEnergy);
    EXPECT_SAME_BITS(a.memEnergy, b.memEnergy);
}

} // namespace

// The headline guarantee: every kernel of every suite application, at
// every iteration's phase, across all 448 lattice points, produces the
// same bits through GpuDevice::runLattice as through per-config run().
TEST(FactoredEngine, FullSuiteBitwiseIdenticalToNaive)
{
    const GpuDevice &dev = device();
    const std::vector<HardwareConfig> configs =
        dev.space().allConfigs();
    ASSERT_EQ(configs.size(), 448u);

    for (const Application &app : standardSuite()) {
        for (const KernelProfile &k : app.kernels) {
            for (int iter : {0, 1, app.iterations - 1}) {
                const KernelPhase phase = k.phase(iter);
                std::vector<KernelResult> factored(configs.size());
                dev.runLattice(k, phase, configs, factored.data());
                for (size_t i = 0; i < configs.size(); ++i) {
                    const KernelResult naive =
                        dev.run(k, phase, configs[i]);
                    expectSameResult(factored[i], naive,
                                     k.id() + "#" +
                                         std::to_string(iter) + " @ " +
                                         configs[i].str());
                }
            }
        }
    }
}

// Same guarantee through the sweep engine with a thread pool: the
// factored batch path must be scheduling-independent, and each stored
// point bit-equal to the served projection of a direct run() call.
TEST(FactoredEngine, SweepFactoredMatchesNaiveSweep)
{
    SweepOptions opts;
    opts.jobs = 4;
    const ConfigSweep factored(device(), opts);

    for (const Application &app : {makeDeviceMemory(), makeSort(),
                                   makeXsbench()}) {
        for (const KernelProfile &k : app.kernels) {
            const KernelPhase phase = k.phase(0);
            const auto &b = factored.evaluate(k, 0);
            ASSERT_EQ(b.size(), factored.configs().size());
            for (size_t i = 0; i < b.size(); ++i) {
                const HardwareConfig &cfg = factored.configs()[i];
                const std::string ctx = k.id() + " @ " + cfg.str();
                const PointResult naive = device().run(k, phase, cfg).point();
                EXPECT_SAME_BITS(b[i].timeS, naive.timeS);
                EXPECT_SAME_BITS(b[i].powerW, naive.powerW);
                EXPECT_SAME_BITS(b[i].cardEnergy, naive.cardEnergy);
                EXPECT_SAME_BITS(b[i].gpuEnergy, naive.gpuEnergy);
                EXPECT_SAME_BITS(b[i].memEnergy, naive.memEnergy);
            }
        }
    }
}

/**
 * Require every slot of @p t's factored bandwidth lattice, read
 * through bandwidthAt(), to be bitwise the single-point reference
 * (MemorySystem::resolveBandwidth) at that configuration. Returns the
 * number of slots that saturated their supply ceiling, so callers can
 * tell that both halves of the select were exercised.
 */
size_t
expectBandwidthMatchesReference(const GpuDevice &dev,
                                const PreparedKernel &prep,
                                const TimingAxisTables &t,
                                const std::string &ctxBase)
{
    MemDemand demand;
    demand.requestBytes = dev.config().cacheLineBytes;
    demand.rowHitFraction = prep.phase.rowHitFraction;
    demand.streamEfficiency = prep.phase.streamEfficiency;
    size_t saturated = 0;
    for (size_t m = 0; m < t.memFreqValues.size(); ++m) {
        for (size_t cu = 0; cu < t.cuValues.size(); ++cu) {
            demand.outstandingRequests = t.outstandingRequests[cu];
            for (size_t cf = 0; cf < t.computeFreqValues.size(); ++cf) {
                const std::string ctx =
                    ctxBase + " bw(" + std::to_string(t.memFreqValues[m]) +
                    "," + std::to_string(t.cuValues[cu]) + "," +
                    std::to_string(t.computeFreqValues[cf]) + ")";
                const BandwidthResult direct =
                    dev.engine().memorySystem().resolveBandwidth(
                        t.memFreqValues[m], t.computeFreqValues[cf],
                        demand);
                const BandwidthResult tabled = t.bandwidthAt(m, cu, cf);
                EXPECT_SAME_BITS(tabled.effectiveBps,
                                 direct.effectiveBps);
                EXPECT_SAME_BITS(tabled.latency, direct.latency);
                EXPECT_EQ(tabled.limiter, direct.limiter) << ctx;
                saturated += tabled.effectiveBps ==
                             t.ceilingBps[m * t.computeFreqValues.size() +
                                          cf];
            }
        }
    }
    return saturated;
}

// Every axis-table entry must be byte-for-byte the value the direct
// model call produces. The bandwidth check is the important one: it
// proves the two factored planes, joined per slot, reproduce the
// single-point solve at every lattice point.
TEST(FactoredEngine, AxisTablesMatchDirectModelCalls)
{
    const GpuDevice &dev = device();
    const TimingEngine &eng = dev.engine();
    const KernelProfile k = makeSpmv().kernels.front();
    const KernelPhase phase = k.phase(0);

    const PreparedKernel prep = eng.prepare(k, phase);
    const TimingAxisTables t = eng.buildAxisTables(prep);

    ASSERT_EQ(t.cuValues.size(), 8u);
    ASSERT_EQ(t.computeFreqValues.size(), 8u);
    ASSERT_EQ(t.memFreqValues.size(), 7u);
    ASSERT_EQ(t.ceilingBps.size(), 7u * 8u);
    ASSERT_EQ(t.ceilingLatency.size(), 7u * 8u);
    ASSERT_EQ(t.ceilingLimiter.size(), 7u * 8u);
    ASSERT_EQ(t.fixedPointBps.size(), 7u * 8u);
    ASSERT_EQ(t.fixedPointLatency.size(), 7u * 8u);

    for (size_t cu = 0; cu < t.cuValues.size(); ++cu) {
        const std::string ctx = "cu=" + std::to_string(t.cuValues[cu]);
        EXPECT_SAME_BITS(t.l2HitRate[cu],
                         eng.cacheModel().hitRate(phase, t.cuValues[cu]));
        EXPECT_SAME_BITS(t.offChipBytes[cu],
                         prep.requestedBytes * (1.0 - t.l2HitRate[cu]));
        EXPECT_SAME_BITS(t.inFlightBytes[cu],
                         t.outstandingRequests[cu] *
                             dev.config().cacheLineBytes);
    }
    for (size_t cf = 0; cf < t.computeFreqValues.size(); ++cf) {
        const std::string ctx =
            "cf=" + std::to_string(t.computeFreqValues[cf]);
        EXPECT_SAME_BITS(
            t.l2Bandwidth[cf],
            eng.cacheModel().l2Bandwidth(t.computeFreqValues[cf]));
        EXPECT_SAME_BITS(t.crossingCap[cf],
                         eng.memorySystem().crossing().maxBandwidth(
                             t.computeFreqValues[cf]));
    }
    for (size_t m = 0; m < t.memFreqValues.size(); ++m) {
        const std::string ctx =
            "mem=" + std::to_string(t.memFreqValues[m]);
        EXPECT_SAME_BITS(
            t.peakBandwidth[m],
            eng.memorySystem().peakBandwidth(t.memFreqValues[m]));
    }

    expectBandwidthMatchesReference(dev, prep, t, k.id());
}

// The factored bandwidth lattice on every registered device, slot by
// slot against the reference: every distinct (kernel, phase) of the
// suite on hd7970 and hbm-stacked, and every eighth on ampere-ga100,
// whose 10,416-slot lattices make the whole suite slow here (the
// checker and the equivalence suites cover it end to end).
TEST(FactoredEngine, BandwidthPlanesMatchReferenceOnEveryDevice)
{
    for (const std::string &name : deviceNames()) {
        const GpuDevice dev = makeDevice(name).value();
        const size_t stride = name == "ampere-ga100" ? 8 : 1;
        std::set<InvocationKey> keys;
        size_t checked = 0;
        size_t saturated = 0;
        size_t slots = 0;
        for (const Application &app : standardSuite()) {
            for (const KernelProfile &k : app.kernels) {
                for (int iter = 0; iter < app.iterations; ++iter) {
                    if (!keys.insert(InvocationKey(k, iter)).second ||
                        (keys.size() - 1) % stride != 0)
                        continue;
                    const PreparedKernel prep =
                        dev.engine().prepare(k, k.phase(iter));
                    const TimingAxisTables t =
                        dev.engine().buildAxisTables(prep);
                    saturated += expectBandwidthMatchesReference(
                        dev, prep, t,
                        name + " " + k.id() + "#" + std::to_string(iter));
                    slots += dev.space().size();
                    ++checked;
                }
            }
        }
        EXPECT_EQ(keys.size(), 75u) << name;
        EXPECT_GE(checked, name == "ampere-ga100" ? 8u : 75u) << name;
        // Both halves of the select are live on every device.
        EXPECT_GT(saturated, 0u) << name;
        EXPECT_LT(saturated, slots) << name;
    }
}

// A phase with no outstanding requests (mlpPerWave = 0): the fixed
// point must be the reference's exact 0.0 at the unloaded latency, not
// the tiny positive number a bisection with zero in-flight bytes
// converges to, and the lattice must match run() bitwise.
TEST(FactoredEngine, ZeroDemandPhaseResolvesToExactZero)
{
    for (const std::string &name : deviceNames()) {
        const GpuDevice dev = makeDevice(name).value();
        const KernelProfile k = makeDeviceMemory().kernels.front();
        KernelPhase phase = k.phase(0);
        phase.mlpPerWave = 0.0;
        const PreparedKernel prep = dev.engine().prepare(k, phase);
        const TimingAxisTables t = dev.engine().buildAxisTables(prep);
        EXPECT_EQ(expectBandwidthMatchesReference(dev, prep, t, name),
                  0u);
        for (size_t m = 0; m < t.memFreqValues.size(); ++m) {
            const std::string ctx = name + " mem " +
                                    std::to_string(t.memFreqValues[m]);
            const BandwidthResult r = t.bandwidthAt(m, 0, 0);
            EXPECT_SAME_BITS(r.effectiveBps, 0.0);
            EXPECT_SAME_BITS(
                r.latency,
                dev.engine().memorySystem().gddr5().unloadedLatency(
                    t.memFreqValues[m]));
            EXPECT_EQ(r.limiter, BandwidthLimiter::Concurrency) << ctx;
        }

        const std::vector<HardwareConfig> configs =
            dev.space().allConfigs();
        std::vector<KernelResult> batched(configs.size());
        dev.runLattice(k, phase, configs, batched.data());
        for (size_t i = 0; i < configs.size(); i += 7)
            expectSameResult(batched[i], dev.run(k, phase, configs[i]),
                             name + " @ " + configs[i].str());
    }
}

// Demand placed on the saturation boundary of one lattice slot: the
// MLP is swept across the value at which that slot's in-flight bytes
// just saturate its ceiling, a few ULPs either side, so the slot flips
// between the fixed point (whose limiter and latency then come from
// the within-1e-9-of-the-ceiling rule) and the ceiling. Every slot of
// every probe must match the reference and run() bitwise.
TEST(FactoredEngine, SaturationBoundaryMatchesReference)
{
    const GpuDevice &dev = device();
    const TimingEngine &eng = dev.engine();
    const KernelProfile k = makeDeviceMemory().kernels.front();
    KernelPhase phase = k.phase(0);
    const PreparedKernel base = eng.prepare(k, phase);
    const TimingAxisTables t0 = eng.buildAxisTables(base);

    // The slot: lowest memory frequency, largest CU count, lowest
    // compute frequency (a crossing-bound ceiling).
    const size_t m = 0;
    const size_t cu = t0.cuValues.size() - 1;
    const size_t cf = 0;
    const size_t mc = m * t0.computeFreqValues.size() + cf;
    const double boundaryBytes =
        t0.ceilingBps[mc] * t0.ceilingLatency[mc];
    const double perMlp = static_cast<double>(t0.cuValues[cu]) *
                          base.occupancy.wavesPerCu *
                          dev.config().cacheLineBytes;
    double mlp = boundaryBytes / perMlp;
    for (int i = 0; i < 8; ++i)
        mlp = std::nextafter(mlp, 0.0);

    const std::vector<HardwareConfig> configs = dev.space().allConfigs();
    std::vector<KernelResult> batched(configs.size());
    bool sawFixedPoint = false;
    bool sawCeiling = false;
    for (int probe = 0; probe < 16; ++probe) {
        phase.mlpPerWave = mlp;
        const PreparedKernel prep = eng.prepare(k, phase);
        const TimingAxisTables t = eng.buildAxisTables(prep);
        const std::string ctx = "probe " + std::to_string(probe);
        expectBandwidthMatchesReference(dev, prep, t, ctx);
        const BandwidthResult r = t.bandwidthAt(m, cu, cf);
        (r.effectiveBps == t.ceilingBps[mc] ? sawCeiling
                                            : sawFixedPoint) = true;

        dev.runLattice(k, phase, configs, batched.data());
        for (size_t i = 0; i < configs.size(); ++i)
            expectSameResult(batched[i], dev.run(k, phase, configs[i]),
                             ctx + " @ " + configs[i].str());
        mlp = std::nextafter(mlp, 1e9);
    }
    EXPECT_TRUE(sawFixedPoint);
    EXPECT_TRUE(sawCeiling);
}

// Off-lattice configurations are rejected by runLattice's axis
// lookups just as the naive path rejects them in validate() — serially
// and from a pooled lane block past the first chunk, into either sink.
TEST(FactoredEngine, OffLatticeEvaluationThrows)
{
    const GpuDevice &dev = device();
    const KernelProfile k = makeMaxFlops().kernels.front();
    const KernelPhase phase = k.phase(0);
    ThreadPool pool(4);

    const HardwareConfig max = dev.space().maxConfig();
    HardwareConfig badCf = max;
    badCf.computeFreqMhz = 1001;
    HardwareConfig badCu = max;
    badCu.cuCount = 3;
    HardwareConfig badMem = max;
    badMem.memFreqMhz = 500;

    std::vector<KernelResult> out(LatticeEvaluator::kBatchChunk + 1);
    std::vector<PointResult> points(out.size());
    for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr), &pool}) {
        const std::vector<HardwareConfig> ok(out.size(), max);
        EXPECT_NO_THROW(dev.runLattice(k, phase, ok, out.data(), p));
        EXPECT_NO_THROW(dev.runLattice(k, phase, ok, points.data(), p));
        for (const HardwareConfig &bad : {badCf, badCu, badMem}) {
            EXPECT_THROW(dev.runLattice(k, phase, {bad}, out.data(), p),
                         ConfigError)
                << bad.str();
            EXPECT_THROW(
                dev.runLattice(k, phase, {bad}, points.data(), p),
                ConfigError)
                << bad.str();
            std::vector<HardwareConfig> batch = ok;
            batch.back() = bad;
            EXPECT_THROW(dev.runLattice(k, phase, batch, out.data(), p),
                         ConfigError)
                << bad.str();
            EXPECT_THROW(
                dev.runLattice(k, phase, batch, points.data(), p),
                ConfigError)
                << bad.str();
        }
    }
}

// The sweep memo must treat the factored and naive paths as the same
// cache: repeated evaluations hit, and the key distinguishes phases,
// not iterations.
TEST(FactoredEngine, SweepCacheKeyDistinguishesPhases)
{
    const ConfigSweep sweep(device());
    const KernelProfile k = makeCfd().kernels.front();

    const auto &first = sweep.evaluate(k, 0);
    EXPECT_EQ(sweep.cacheMisses(), 1u);
    const auto &again = sweep.evaluate(k, 0);
    EXPECT_EQ(&first, &again);
    EXPECT_EQ(sweep.cacheHits(), 1u);

    // CFD's phase never changes, so iteration 1 is the same lattice.
    EXPECT_EQ(&sweep.evaluate(k, 1), &first);
    EXPECT_EQ(sweep.cacheHits(), 2u);
    EXPECT_EQ(sweep.cacheEntries(), 1u);

    // Graph500's frontier changes the phase from iteration 0 to 1.
    const KernelProfile g = makeGraph500().kernels.front();
    ASSERT_FALSE(InvocationKey(g, 0) < InvocationKey(g, 8) ||
                 InvocationKey(g, 8) < InvocationKey(g, 0));
    sweep.evaluate(g, 0);
    sweep.evaluate(g, 1);
    EXPECT_EQ(sweep.cacheMisses(), 3u);
    EXPECT_EQ(sweep.cacheEntries(), 3u);
}
