/**
 * @file
 * Differential batched-vs-naive equivalence harness.
 *
 * The batched lattice path (GpuDevice::runLattice,
 * LatticeEvaluator::evaluateBatchAtInto, and the factored bandwidth
 * solvers MemorySystem::supplyCeilings and the vector bisection in
 * solveFixedPoints)
 * promises results *bitwise identical* to the scalar naive reference
 * (per-config GpuDevice::run) — not merely close (docs/MODEL.md §9).
 * The full-suite, full-lattice check lives in
 * tests/test_factored_engine.cpp; these tests pin the rest of the
 * contract, every double compared at the bit level:
 *
 *  - seeded fuzzing of off-canonical batches (random subsets,
 *    duplicates, shuffles, single points), which exercises the
 *    indexed-gather fallback rather than the fused canonical gather;
 *  - scheduling independence of the chunked parallel path;
 *  - the PointResult sink of runLattice against the reference run()'s
 *    projection, on every registered device;
 *  - the factored bandwidth solvers, joined per slot as the lattice
 *    joins them, against per-lane calls of the single-point reference
 *    on every registered device, including caps placed exactly on the
 *    bus ceiling, zero demand, duplicates, partial packs and masked
 *    solves.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "harmonia/common/thread_pool.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/dvfs/tunables.hh"
#include "harmonia/memsys/memory_system.hh"
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

/**
 * Run @p configs through runLattice (on @p pool when given) and
 * require results bitwise identical to per-config GpuDevice::run.
 */
void
expectBatchMatchesNaive(const KernelProfile &k, const KernelPhase &phase,
                        const std::vector<HardwareConfig> &configs,
                        const std::string &ctxBase,
                        ThreadPool *pool = nullptr)
{
    std::vector<KernelResult> batched(configs.size());
    device().runLattice(k, phase, configs, batched.data(), pool);
    for (size_t i = 0; i < configs.size(); ++i)
        expectSameResult(batched[i], device().run(k, phase, configs[i]),
                         ctxBase + " @ " + configs[i].str());
}

void
expectSameBandwidth(const BandwidthResult &a, const BandwidthResult &b,
                    const std::string &ctx)
{
    EXPECT_SAME_BITS(a.effectiveBps, b.effectiveBps);
    EXPECT_SAME_BITS(a.latency, b.latency);
    EXPECT_EQ(a.limiter, b.limiter) << ctx;
}

/**
 * The factored bandwidth planes of a (memory frequency x demand level
 * x crossing cap) grid, in a TimingAxisTables whose CU axis is the
 * demand levels and whose compute-frequency axis is the caps, so
 * bandwidthAt(m, level, cap) joins them exactly as the lattice does.
 */
TimingAxisTables
factoredTables(const MemorySystem &ms, const std::vector<int> &mems,
               const std::vector<double> &outstanding,
               const std::vector<double> &caps, const MemDemand &d)
{
    TimingAxisTables t;
    t.memFreqValues = mems;
    t.cuValues.assign(outstanding.size(), 0);
    t.computeFreqValues.assign(caps.size(), 0);
    for (const double o : outstanding)
        t.inFlightBytes.push_back(o * d.requestBytes);
    const size_t nMem = mems.size();
    t.ceilingBps.resize(nMem * caps.size());
    t.ceilingLatency.resize(nMem * caps.size());
    t.ceilingLimiter.resize(nMem * caps.size());
    ms.supplyCeilings(mems.data(), nMem, caps.data(), caps.size(), d,
                      t.ceilingBps.data(), t.ceilingLatency.data(),
                      t.ceilingLimiter.data());
    t.fixedPointBps.resize(nMem * outstanding.size());
    t.fixedPointLatency.resize(nMem * outstanding.size());
    const std::vector<char> solveAll(nMem * outstanding.size(), 1);
    ms.solveFixedPoints(mems.data(), nMem, outstanding.data(),
                        outstanding.size(), d, solveAll.data(),
                        t.fixedPointBps.data(), t.fixedPointLatency.data());
    return t;
}

} // namespace

// Off-canonical batches: random subsets with duplicates, shuffled
// full lattices, and odd batch sizes, all fed through the
// indexed-gather route (the canonical detection must reject them and
// the result must still be bitwise identical to the naive reference).
// Seeded via the sweep RNG substream helper so failures replay
// exactly.
TEST(SimdEquivalence, FuzzedBatchesBitwiseIdenticalToScalar)
{
    const std::vector<HardwareConfig> all = device().space().allConfigs();
    const std::vector<Application> suite = standardSuite();

    constexpr int kTrials = 24;
    for (int trial = 0; trial < kTrials; ++trial) {
        Rng rng = sweepSubstream(0x51D0E01ull, trial);
        const Application &app =
            suite[rng.uniformInt(0, suite.size() - 1)];
        const KernelProfile &k =
            app.kernels[rng.uniformInt(0, app.kernels.size() - 1)];
        const int iter = rng.uniformInt(0, app.iterations - 1);

        std::vector<HardwareConfig> batch;
        if (trial % 4 == 0) {
            // Full lattice, Fisher-Yates shuffled: canonical size but
            // non-canonical order.
            batch = all;
            for (size_t i = batch.size() - 1; i > 0; --i)
                std::swap(batch[i], batch[rng.uniformInt(0, i)]);
        } else {
            // Random multiset of lattice points, including sizes that
            // leave partial tail chunks and partial vector packs.
            const size_t n = rng.uniformInt(1, 600);
            batch.reserve(n);
            for (size_t i = 0; i < n; ++i)
                batch.push_back(all[rng.uniformInt(0, all.size() - 1)]);
        }

        expectBatchMatchesNaive(k, k.phase(iter), batch,
                                k.id() + "#" + std::to_string(iter) +
                                    " fuzz trial " +
                                    std::to_string(trial));
    }
}

// Degenerate batch shapes: a single point, one chunk of duplicates of
// the same point, and a chunk-straddling batch.
TEST(SimdEquivalence, SinglePointAndDuplicateBatches)
{
    const GpuDevice &dev = device();
    const Application app = makeDeviceMemory();
    const KernelProfile &k = app.kernels.front();
    const KernelPhase phase = k.phase(0);

    const HardwareConfig lo = dev.space().minConfig();
    const HardwareConfig hi = dev.space().maxConfig();

    std::vector<std::vector<HardwareConfig>> batches;
    batches.push_back({lo});
    batches.push_back({hi});
    batches.push_back(
        std::vector<HardwareConfig>(LatticeEvaluator::kBatchChunk, lo));
    // One full chunk plus a 1-lane tail, alternating two points.
    std::vector<HardwareConfig> straddle;
    for (size_t i = 0; i < LatticeEvaluator::kBatchChunk + 1; ++i)
        straddle.push_back(i % 2 == 0 ? lo : hi);
    batches.push_back(straddle);

    for (const std::vector<HardwareConfig> &batch : batches)
        expectBatchMatchesNaive(k, phase, batch,
                                k.id() + " degenerate batch of " +
                                    std::to_string(batch.size()));
}

// Scheduling independence: the chunked batched path under a thread
// pool must produce the same bytes as both the serial batched loop and
// the naive reference.
TEST(SimdEquivalence, ParallelSimdMatchesSerial)
{
    const GpuDevice &dev = device();
    const std::vector<HardwareConfig> configs = dev.space().allConfigs();
    const Application app = makeXsbench();
    ThreadPool pool(4);

    for (const KernelProfile &k : app.kernels) {
        const KernelPhase phase = k.phase(0);
        expectBatchMatchesNaive(k, phase, configs, k.id() + " pooled",
                                &pool);
        std::vector<KernelResult> serial(configs.size());
        std::vector<KernelResult> pooled(configs.size());
        dev.runLattice(k, phase, configs, serial.data());
        dev.runLattice(k, phase, configs, pooled.data(), &pool);
        for (size_t i = 0; i < configs.size(); ++i)
            expectSameResult(pooled[i], serial[i],
                             k.id() + " pooled vs serial @ " +
                                 configs[i].str());
    }
}

// The PointResult sink of runLattice: on every registered device,
// serially and on a pool, each served point is the reference run()'s
// projection, byte for byte. The shapes reach both gathers (the
// canonical full lattice takes the fused one on hd7970, the rest the
// indexed one), partial packs, and a 1-lane tail chunk.
TEST(SimdEquivalence, PointSinkMatchesReferencePoint)
{
    const KernelProfile k = makeXsbench().kernels.front();
    const KernelPhase phase = k.phase(1);
    ThreadPool pool(4);

    for (const std::string &name : deviceNames()) {
        const GpuDevice dev = makeDevice(name).value();
        const std::vector<HardwareConfig> all = dev.space().allConfigs();

        Rng rng = sweepSubstream(0x9017ull, all.size());
        std::vector<HardwareConfig> subset;
        for (size_t i = 0; i < 300; ++i)
            subset.push_back(all[rng.uniformInt(0, all.size() - 1)]);
        subset.push_back(subset.front());
        std::vector<HardwareConfig> straddle;
        for (size_t i = 0; i < LatticeEvaluator::kBatchChunk + 1; ++i)
            straddle.push_back(all[(7 * i) % all.size()]);

        const std::vector<std::pair<const char *,
                                    std::vector<HardwareConfig>>>
            batches = {{"full lattice", all},
                       {"shuffled subset", subset},
                       {"one config", {dev.space().maxConfig()}},
                       {"kBatchChunk + 1", straddle}};
        for (const auto &[shape, configs] : batches) {
            std::vector<PointResult> want(configs.size());
            for (size_t i = 0; i < configs.size(); ++i)
                want[i] = dev.run(k, phase, configs[i]).point();
            for (ThreadPool *p :
                 {static_cast<ThreadPool *>(nullptr), &pool}) {
                std::vector<PointResult> got(configs.size());
                dev.runLattice(k, phase, configs, got.data(), p);
                for (size_t i = 0; i < configs.size(); ++i)
                    EXPECT_EQ(std::memcmp(&got[i], &want[i],
                                          sizeof(PointResult)),
                              0)
                        << name << " " << shape
                        << (p ? " pooled" : " serial") << " @ "
                        << configs[i].str();
            }
        }
    }
}

// The two factored solvers, joined per slot by
// TimingAxisTables::bandwidthAt() as the lattice joins them, vs the
// single-point reference on every registered device's memory system.
// The grid of demand levels and crossing caps includes every
// saturation threshold the join keys off (cap exactly at the bus
// ceiling, one ULP either side), zero demand, saturating demand, and
// duplicate levels; one call stages more solves than a pack, so the
// last pack is partial.
TEST(SimdEquivalence, FactoredSolversMatchPerLaneCalls)
{
    MemDemand demand;
    MemDemand streaming;
    streaming.requestBytes = 128.0;
    streaming.rowHitFraction = 0.9;
    streaming.streamEfficiency = 1.0;

    for (const std::string &name : deviceNames()) {
        const GpuDevice dev = makeDevice(name).value();
        const MemorySystem &ms = dev.engine().memorySystem();
        const ConfigSpace &space = dev.space();
        const std::vector<int> mems = space.values(Tunable::MemFreq);
        for (const MemDemand &d : {demand, streaming}) {
            std::vector<double> outstanding = {0.0,  1.0,   7.5,
                                               64.0, 640.0, 1e6};
            // Exact repeats of earlier levels, the zero one included.
            outstanding.push_back(outstanding[0]);
            outstanding.push_back(outstanding[3]);
            std::vector<double> caps;
            for (const int mem : mems) {
                const double peak = ms.peakBandwidth(mem);
                const double ceiling = d.streamEfficiency * peak;
                for (const double c :
                     {0.05 * peak, 0.5 * peak, std::nextafter(ceiling, 0.0),
                      ceiling, std::nextafter(ceiling, 2.0 * ceiling),
                      peak, 2.0 * peak})
                    caps.push_back(c);
            }
            caps.push_back(ms.crossing().maxBandwidth(
                space.minValue(Tunable::ComputeFreq)));
            caps.push_back(ms.crossing().maxBandwidth(
                space.maxValue(Tunable::ComputeFreq)));
            const TimingAxisTables t =
                factoredTables(ms, mems, outstanding, caps, d);

            for (size_t m = 0; m < mems.size(); ++m) {
                for (size_t j = 0; j < outstanding.size(); ++j) {
                    MemDemand lane = d;
                    lane.outstandingRequests = outstanding[j];
                    for (size_t c = 0; c < caps.size(); ++c) {
                        const std::string ctx =
                            name + " mem " + std::to_string(mems[m]) +
                            " (outstanding " +
                            std::to_string(outstanding[j]) + ", cap " +
                            std::to_string(caps[c]) + ")";
                        expectSameBandwidth(
                            t.bandwidthAt(m, j, c),
                            ms.resolveWithCrossingCap(mems[m], lane,
                                                      caps[c]),
                            ctx);
                    }
                }
            }
        }
    }
}

// The vector fixed-point solver under packing stress: seeded random
// demand levels (level counts 1..17, so single-lane, partial and
// multi-pack grids), grids larger than one staging block, and a solve
// mask. Every solved slot is bitwise the reference below its ceiling;
// a masked-off or zero-demand slot reads 0.0 at the unloaded latency.
TEST(SimdEquivalence, FixedPointSolverPacksAndMasks)
{
    const MemorySystem &ms = device().engine().memorySystem();
    const std::vector<int> mems =
        device().space().values(Tunable::MemFreq);
    const MemDemand demand;
    Rng rng = sweepSubstream(0xCAB5ull, 7);
    const double inf = std::numeric_limits<double>::infinity();

    for (const size_t levels : {1, 2, 5, 17, 150}) {
        std::vector<double> outstanding;
        for (size_t j = 0; j < levels; ++j)
            outstanding.push_back(j % 11 == 3 ? 0.0
                                              : rng.uniform(0.0, 2000.0));
        std::vector<char> solve(mems.size() * levels);
        for (size_t slot = 0; slot < solve.size(); ++slot)
            solve[slot] = slot % 5 != 4;
        std::vector<double> bps(solve.size(), -1.0);
        std::vector<double> latency(solve.size(), -1.0);
        ms.solveFixedPoints(mems.data(), mems.size(), outstanding.data(),
                            levels, demand, solve.data(), bps.data(),
                            latency.data());

        for (size_t m = 0; m < mems.size(); ++m) {
            const double unloaded = ms.gddr5().unloadedLatency(mems[m]);
            for (size_t j = 0; j < levels; ++j) {
                const size_t slot = m * levels + j;
                const std::string ctx =
                    std::to_string(levels) + " levels, mem " +
                    std::to_string(mems[m]) + " level " +
                    std::to_string(j);
                if (!solve[slot] || outstanding[j] == 0.0) {
                    EXPECT_SAME_BITS(bps[slot], 0.0);
                    EXPECT_SAME_BITS(latency[slot], unloaded);
                    continue;
                }
                // Below its ceiling the reference returns the fixed
                // point; an infinite crossing cap leaves the bus
                // ceiling, which a saturating level still reaches.
                MemDemand lane = demand;
                lane.outstandingRequests = outstanding[j];
                const BandwidthResult ref =
                    ms.resolveWithCrossingCap(mems[m], lane, inf);
                if (ref.effectiveBps ==
                    demand.streamEfficiency * ms.peakBandwidth(mems[m]))
                    continue;
                EXPECT_SAME_BITS(bps[slot], ref.effectiveBps);
                EXPECT_SAME_BITS(latency[slot], ref.latency);
            }
        }
    }
}
