#include "harmonia/timing/timing_engine.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "harmonia/common/error.hh"
#include "common/units.hh"

namespace harmonia
{

namespace
{

/** Position of @p value on an ascending arithmetic lattice axis. */
size_t
axisIndexOf(int value, const std::vector<int> &values, const char *what)
{
    fatalIf(values.empty(), "TimingAxisTables: empty ", what, " axis");
    const int lo = values.front();
    const int hi = values.back();
    const int step = values.size() > 1 ? values[1] - values[0] : 1;
    fatalIf(value < lo || value > hi || (value - lo) % step != 0,
            "TimingAxisTables: ", what, " = ", value,
            " is not on the lattice [", lo, ", ", hi, "] step ", step);
    return static_cast<size_t>((value - lo) / step);
}

} // namespace

size_t
TimingAxisTables::cuIndex(int cuCount) const
{
    return axisIndexOf(cuCount, cuValues, "CU-count");
}

size_t
TimingAxisTables::computeFreqIndex(int computeFreqMhz) const
{
    return axisIndexOf(computeFreqMhz, computeFreqValues, "compute-freq");
}

size_t
TimingAxisTables::memFreqIndex(int memFreqMhz) const
{
    return axisIndexOf(memFreqMhz, memFreqValues, "mem-freq");
}

TimingEngine::TimingEngine(const GcnDeviceConfig &dev, CacheModel cache,
                           MemorySystem memsys, TimingParams params)
    : dev_(dev), space_(dev), cache_(std::move(cache)),
      memsys_(std::move(memsys)), params_(params)
{
    dev_.validate();
    fatalIf(params_.issueEfficiency <= 0.0 ||
                params_.issueEfficiency > 1.0,
            "TimingEngine: issueEfficiency must be in (0, 1]");
    fatalIf(params_.launchOverheadSec < 0.0,
            "TimingEngine: negative launch overhead");
    fatalIf(params_.bytesPerLane <= 0.0,
            "TimingEngine: bytesPerLane must be positive");
    fatalIf(params_.overlapOccupancyKnee <= 0.0 ||
                params_.overlapOccupancyKnee > 1.0,
            "TimingEngine: overlapOccupancyKnee must be in (0, 1]");
}

TimingEngine::TimingEngine(const GcnDeviceConfig &dev)
    : TimingEngine(dev, CacheModel(dev), MemorySystem(dev, Gddr5Model()),
                   TimingParams{})
{
}

KernelTiming
TimingEngine::run(const KernelProfile &profile, const KernelPhase &phase,
                  const HardwareConfig &cfg) const
{
    space_.validate(cfg);
    const PreparedKernel prep = prepare(profile, phase);

    // The axis-dependent inputs, computed by direct model calls. The
    // batched lattice path obtains the very same values from its
    // tables.
    TimingAxisValues axis;
    const double issueRate =
        dev_.peakWaveInstRate(cfg.cuCount, cfg.computeFreqMhz) *
        params_.issueEfficiency;
    axis.computeTime = prep.issueSlots / issueRate;
    axis.l2HitRate = cache_.hitRate(phase, cfg.cuCount);
    axis.offChipBytes = prep.requestedBytes * (1.0 - axis.l2HitRate);

    // All traffic is serviced through the L2 (compute clock domain).
    axis.l2Time =
        prep.requestedBytes / cache_.l2Bandwidth(cfg.computeFreqMhz);

    MemDemand demand;
    demand.outstandingRequests = static_cast<double>(cfg.cuCount) *
                                 prep.occupancy.wavesPerCu *
                                 phase.mlpPerWave;
    demand.requestBytes = dev_.cacheLineBytes;
    demand.rowHitFraction = phase.rowHitFraction;
    demand.streamEfficiency = phase.streamEfficiency;
    axis.bandwidth = memsys_.resolveBandwidth(
        cfg.memFreqMhz, cfg.computeFreqMhz, demand);
    axis.peakBandwidth = memsys_.peakBandwidth(cfg.memFreqMhz);
    axis.invPeakBandwidth = 1.0 / axis.peakBandwidth;

    return combine(prep, axis);
}

PreparedKernel
TimingEngine::prepare(const KernelProfile &profile,
                      const KernelPhase &phase) const
{
    phase.validate();

    PreparedKernel out;
    out.phase = phase;
    out.occupancy = computeOccupancy(dev_, profile.resources);
    // With enough resident waves, compute and memory pipelines overlap
    // fully; at low occupancy part of the shorter phases is exposed.
    // A pure function of occupancy, so config-invariant.
    out.overlap = std::min(
        1.0, out.occupancy.occupancy / params_.overlapOccupancyKnee);
    out.exposure = 1.0 - out.overlap;
    out.waves = phase.workItems / dev_.wavefrontSize;

    // ---- Compute side ------------------------------------------------
    out.aluWaveInsts = out.waves * phase.aluInstsPerItem;
    // Divergent branches serialize both paths: extra issue slots are
    // spent re-executing with complementary lane masks.
    out.issueSlots =
        out.aluWaveInsts * (1.0 + phase.branchDivergence *
                                      phase.divergenceSerialization);

    // ---- Memory side -------------------------------------------------
    const double accessWaveInsts =
        out.waves * (phase.fetchInstsPerItem + phase.writeInstsPerItem);
    const double usefulBytesPerAccess =
        dev_.wavefrontSize * params_.bytesPerLane;
    out.requestedBytes =
        accessWaveInsts * usefulBytesPerAccess / phase.coalescing;

    const double accesses =
        phase.fetchInstsPerItem + phase.writeInstsPerItem;
    out.writeShare =
        accesses > 0.0 ? phase.writeInstsPerItem / accesses : 0.0;
    out.valuUtilization = 100.0 * (1.0 - phase.branchDivergence);
    out.normVgpr = static_cast<double>(profile.resources.vgprPerWorkitem) /
                   dev_.maxVgprPerWave;
    out.normSgpr = static_cast<double>(profile.resources.sgprPerWave) /
                   dev_.maxSgprPerWave;
    out.vfetchInsts = out.waves * phase.fetchInstsPerItem;
    out.vwriteInsts = out.waves * phase.writeInstsPerItem;
    return out;
}

TimingAxisTables
TimingEngine::buildAxisTables(const PreparedKernel &prep) const
{
    const KernelPhase &phase = prep.phase;

    TimingAxisTables t;
    t.cuValues = space_.values(Tunable::CuCount);
    t.computeFreqValues = space_.values(Tunable::ComputeFreq);
    t.memFreqValues = space_.values(Tunable::MemFreq);
    const size_t nCu = t.cuValues.size();
    const size_t nCf = t.computeFreqValues.size();
    const size_t nMem = t.memFreqValues.size();

    t.l2HitRate.resize(nCu);
    t.offChipBytes.resize(nCu);
    t.outstandingRequests.resize(nCu);
    t.inFlightBytes.resize(nCu);
    for (size_t i = 0; i < nCu; ++i) {
        const int cu = t.cuValues[i];
        t.l2HitRate[i] = cache_.hitRate(phase, cu);
        t.offChipBytes[i] =
            prep.requestedBytes * (1.0 - t.l2HitRate[i]);
        t.outstandingRequests[i] = static_cast<double>(cu) *
                                   prep.occupancy.wavesPerCu *
                                   phase.mlpPerWave;
        t.inFlightBytes[i] =
            t.outstandingRequests[i] * dev_.cacheLineBytes;
    }

    t.l2Bandwidth.resize(nCf);
    t.l2Time.resize(nCf);
    t.crossingCap.resize(nCf);
    for (size_t i = 0; i < nCf; ++i) {
        const int cf = t.computeFreqValues[i];
        t.l2Bandwidth[i] = cache_.l2Bandwidth(cf);
        t.l2Time[i] = prep.requestedBytes / t.l2Bandwidth[i];
        t.crossingCap[i] = memsys_.crossing().maxBandwidth(cf);
    }

    t.computeTime.resize(nCu * nCf);
    for (size_t cu = 0; cu < nCu; ++cu) {
        for (size_t cf = 0; cf < nCf; ++cf) {
            const double issueRate =
                dev_.peakWaveInstRate(t.cuValues[cu],
                                      t.computeFreqValues[cf]) *
                params_.issueEfficiency;
            t.computeTime[cu * nCf + cf] = prep.issueSlots / issueRate;
        }
    }

    t.peakBandwidth.resize(nMem);
    t.invPeakBandwidth.resize(nMem);
    for (size_t m = 0; m < nMem; ++m) {
        t.peakBandwidth[m] = memsys_.peakBandwidth(t.memFreqValues[m]);
        t.invPeakBandwidth[m] = 1.0 / t.peakBandwidth[m];
    }

    // The bandwidth lattice, factored. Whether a point saturates its
    // supply ceiling, and the ceiling's latency and limiter, depend on
    // (memory frequency, compute frequency) and the CU axis's in-flight
    // bytes; the concurrency fixed point it resolves to otherwise
    // depends on (memory frequency, CU count) only.
    MemDemand demand;
    demand.requestBytes = dev_.cacheLineBytes;
    demand.rowHitFraction = phase.rowHitFraction;
    demand.streamEfficiency = phase.streamEfficiency;
    t.ceilingBps.resize(nMem * nCf);
    t.ceilingLatency.resize(nMem * nCf);
    t.ceilingLimiter.resize(nMem * nCf);
    memsys_.supplyCeilings(t.memFreqValues.data(), nMem,
                           t.crossingCap.data(), nCf, demand,
                           t.ceilingBps.data(), t.ceilingLatency.data(),
                           t.ceilingLimiter.data());

    // A demand that saturates the highest ceiling of its memory
    // frequency saturates every ceiling there: the loaded latency is
    // nondecreasing in the ceiling and the in-flight bytes over it
    // nonincreasing, op by op in IEEE arithmetic too. Its fixed point
    // is never read, so it is not solved.
    const size_t top = static_cast<size_t>(
        std::max_element(t.crossingCap.begin(), t.crossingCap.end()) -
        t.crossingCap.begin());
    std::vector<char> solve(nMem * nCu);
    for (size_t m = 0; m < nMem; ++m) {
        const size_t mc = m * nCf + top;
        for (size_t cu = 0; cu < nCu; ++cu)
            solve[m * nCu + cu] =
                !(t.inFlightBytes[cu] / t.ceilingLatency[mc] >=
                  t.ceilingBps[mc]);
    }
    t.fixedPointBps.resize(nMem * nCu);
    t.fixedPointLatency.resize(nMem * nCu);
    memsys_.solveFixedPoints(t.memFreqValues.data(), nMem,
                             t.outstandingRequests.data(), nCu, demand,
                             solve.data(), t.fixedPointBps.data(),
                             t.fixedPointLatency.data());
    return t;
}

KernelTiming
TimingEngine::combine(const PreparedKernel &prep,
                      const TimingAxisValues &axis) const
{
    KernelTiming out;
    out.occupancy = prep.occupancy;
    out.computeTime = axis.computeTime;
    out.requestedBytes = prep.requestedBytes;
    out.l2HitRate = axis.l2HitRate;
    out.offChipBytes = axis.offChipBytes;
    out.l2Time = axis.l2Time;
    out.bandwidth = axis.bandwidth;

    out.memTime = out.offChipBytes > 0.0 && out.bandwidth.effectiveBps > 0.0
                      ? out.offChipBytes / out.bandwidth.effectiveBps
                      : 0.0;

    // ---- Overlap -----------------------------------------------------
    // The kernel runs at the slowest of the three phases plus the
    // exposed (non-overlapped) remainder; the overlap fraction itself
    // is config-invariant and was hoisted into the prepared kernel.
    const double longest =
        std::max({out.computeTime, out.l2Time, out.memTime});
    const double total = out.computeTime + out.l2Time + out.memTime;
    out.busyTime = longest + prep.exposure * (total - longest);
    out.launchOverhead = params_.launchOverheadSec;
    out.execTime = out.busyTime + out.launchOverhead;

    // ---- Counters ----------------------------------------------------
    // Busy/stall counters are percentages of *total* GPU time for the
    // invocation (CodeXL semantics, Table 2), so launch overhead
    // dilutes them — which is exactly the signal that makes tiny
    // kernels look insensitive to every tunable.
    CounterSet &ctr = out.counters;
    // One reciprocal serves the three per-wall-time rates below; the
    // busy/stall percentages divide the only other way wall time is
    // consumed, so this is the per-config division hot spot.
    const double invWall = 1.0 / std::max(out.execTime, 1e-12);
    ctr.valuBusy = std::min(100.0, 100.0 * out.computeTime * invWall);
    ctr.valuUtilization = prep.valuUtilization;

    const double memActive = std::max(out.l2Time, out.memTime);
    ctr.memUnitBusy = std::min(100.0, 100.0 * memActive * invWall);

    const double busUtil =
        out.bandwidth.effectiveBps * axis.invPeakBandwidth;
    const double stallFrac =
        std::min(1.0, params_.busStallWeight * busUtil +
                          params_.exposureStallWeight * prep.exposure);
    ctr.memUnitStalled = ctr.memUnitBusy * stallFrac;
    ctr.writeUnitStalled = ctr.memUnitStalled * prep.writeShare;

    ctr.l2CacheHit = 100.0 * out.l2HitRate;
    const double achievedBps = out.offChipBytes * invWall;
    ctr.icActivity = icActivityOf(
        std::min(achievedBps, axis.peakBandwidth), axis.peakBandwidth);
    ctr.normVgpr = prep.normVgpr;
    ctr.normSgpr = prep.normSgpr;
    ctr.valuInsts = prep.aluWaveInsts;
    ctr.vfetchInsts = prep.vfetchInsts;
    ctr.vwriteInsts = prep.vwriteInsts;
    ctr.offChipBytes = out.offChipBytes;
    ctr.validate();

    HARMONIA_CHECK_FINITE(out.execTime);
    HARMONIA_CHECK_NONNEG(out.busyTime);
    HARMONIA_CHECK(out.execTime >= out.launchOverhead,
                   "execTime below the fixed launch overhead");
    HARMONIA_CHECK_RANGE(out.l2HitRate, 0.0, 1.0);
    HARMONIA_CHECK_NONNEG(out.bandwidth.effectiveBps);
    return out;
}

KernelTiming
TimingEngine::runIteration(const KernelProfile &profile, int iteration,
                           const HardwareConfig &cfg) const
{
    return run(profile, profile.phase(iteration), cfg);
}

} // namespace harmonia
