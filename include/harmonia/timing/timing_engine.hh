/**
 * @file
 * The GPU timing engine.
 *
 * Maps (kernel profile, phase, hardware configuration) to execution
 * time and a full performance-counter snapshot. The model reproduces
 * the mechanisms the paper identifies as governing sensitivity to the
 * three tunables (Section 3):
 *
 *  - compute time scales with active CUs x CU frequency, inflated by
 *    branch-divergence serialization;
 *  - memory time is bounded by the min of bus peak bandwidth, the
 *    L2->MC clock-domain crossing (compute clock), and Little's-law
 *    concurrency from occupancy x per-wave MLP;
 *  - all traffic traverses the shared L2, whose hit rate degrades when
 *    many active CUs thrash it;
 *  - a fixed kernel-launch overhead makes very small kernels
 *    insensitive to every tunable;
 *  - compute and memory overlap fully only at high occupancy.
 */

#ifndef HARMONIA_TIMING_TIMING_ENGINE_HH
#define HARMONIA_TIMING_TIMING_ENGINE_HH

#include <cstddef>
#include <vector>

#include "harmonia/arch/occupancy.hh"
#include "harmonia/counters/perf_counters.hh"
#include "harmonia/dvfs/tunables.hh"
#include "harmonia/memsys/memory_system.hh"
#include "harmonia/timing/cache_model.hh"
#include "harmonia/timing/kernel_profile.hh"

namespace harmonia
{

/** Global timing-model coefficients. */
struct TimingParams
{
    /** Fraction of peak wave-issue slots usable in practice. */
    double issueEfficiency = 0.92;

    /** Fixed launch/teardown overhead per kernel invocation (s). */
    double launchOverheadSec = 12.0e-6;

    /** Bytes accessed per lane per vector memory instruction. */
    double bytesPerLane = 4.0;

    /** Occupancy at which compute/memory overlap saturates. */
    double overlapOccupancyKnee = 0.45;

    /** Extra stall weight when the memory bus saturates. */
    double busStallWeight = 0.55;

    /** Extra stall weight when latency is exposed (low occupancy). */
    double exposureStallWeight = 0.45;
};

/**
 * Config-invariant bundle of one (profile, phase) invocation, computed
 * once by TimingEngine::prepare() and reused across every point of the
 * design-space lattice. None of these quantities depends on any of the
 * three tunables: occupancy is a pure function of the kernel's
 * resource demands, and the instruction/traffic totals follow from the
 * phase alone.
 */
struct PreparedKernel
{
    KernelPhase phase;        ///< Validated copy of the phase.
    OccupancyInfo occupancy;  ///< computeOccupancy(dev, resources).
    double overlap = 0.0;         ///< min(1, occupancy / overlap knee).
    double exposure = 0.0;        ///< 1 - overlap (latency exposed).
    double waves = 0.0;           ///< workItems / wavefrontSize.
    double aluWaveInsts = 0.0;    ///< waves * aluInstsPerItem.
    double issueSlots = 0.0;      ///< ALU slots incl. divergence replay.
    double requestedBytes = 0.0;  ///< Bytes requested of the L2.
    double writeShare = 0.0;      ///< Write fraction of memory accesses.
    double valuUtilization = 0.0; ///< 100 * (1 - branchDivergence).
    double normVgpr = 0.0;        ///< VGPR demand / device limit.
    double normSgpr = 0.0;        ///< SGPR demand / device limit.
    double vfetchInsts = 0.0;     ///< waves * fetchInstsPerItem.
    double vwriteInsts = 0.0;     ///< waves * writeInstsPerItem.
};

/**
 * The axis-dependent scalar inputs of one lattice point, as consumed
 * by the per-config combine step of TimingEngine::run(), which
 * computes them with direct model calls. The batched lattice combine
 * (LatticeEvaluator) reads the same values out of TimingAxisTables
 * and mirrors the combine arithmetic op for op, which is what pins
 * the two paths to bitwise-equal results.
 */
struct TimingAxisValues
{
    double computeTime = 0.0;   ///< (CU count, compute freq) axis.
    double l2HitRate = 0.0;     ///< CU-count axis.
    double offChipBytes = 0.0;  ///< CU-count axis.
    double l2Time = 0.0;        ///< Compute-frequency axis.
    double peakBandwidth = 0.0; ///< Memory-frequency axis.
    double invPeakBandwidth = 0.0; ///< 1 / peakBandwidth.
    BandwidthResult bandwidth;  ///< All three axes (resolved).
};

/**
 * Per-axis lookup tables over the configuration lattice for one
 * prepared kernel, built once per sweep by
 * TimingEngine::buildAxisTables(). Each entry is produced by exactly
 * the model call the naive path would make, so indexed lookups are
 * bitwise identical to recomputation:
 *
 *  - CU-count axis: L2 hit rate, off-chip bytes, the Little's-law
 *    outstanding-request demand and its in-flight bytes;
 *  - compute-frequency axis: L2 bandwidth and service time, and the
 *    L2->MC crossing cap;
 *  - (CU count x compute frequency) plane: vector-ALU issue time (the
 *    kernel's issue slots over the wave issue rate);
 *  - memory-frequency axis: peak bus bandwidth and its reciprocal;
 *  - the bandwidth lattice as two small planes
 *    (MemorySystem::supplyCeilings and solveFixedPoints): a (memory
 *    frequency x compute frequency) plane of supply ceilings min(bus
 *    peak, crossing cap) with the loaded latency and limiter at each,
 *    and a (memory frequency x CU count) plane of concurrency fixed
 *    points. A lattice slot resolves to the
 *    ceiling when its in-flight bytes saturate it, else to the fixed
 *    point (bandwidthAt()); the batched combine makes the same choice
 *    with one vector select. On ampere-ga100 the two planes hold
 *    651 + 336 entries for a 10,416-point lattice.
 */
struct TimingAxisTables
{
    std::vector<int> cuValues;          ///< Ascending lattice values.
    std::vector<int> computeFreqValues; ///< Ascending lattice values.
    std::vector<int> memFreqValues;     ///< Ascending lattice values.

    // --- CU-count axis (phase-dependent) ---------------------------
    std::vector<double> l2HitRate;
    std::vector<double> offChipBytes;
    std::vector<double> outstandingRequests;
    std::vector<double> inFlightBytes; ///< outstandingRequests * line bytes.

    // --- Compute-frequency axis ------------------------------------
    std::vector<double> l2Bandwidth;
    std::vector<double> l2Time;
    std::vector<double> crossingCap;

    // --- (CU count, compute frequency) plane, row-major in cu ------
    std::vector<double> computeTime;

    // --- Memory-frequency axis -------------------------------------
    std::vector<double> peakBandwidth;
    std::vector<double> invPeakBandwidth;

    // --- (memory frequency, compute frequency) plane, row-major in
    // memory frequency: the supply ceiling, the loaded latency at it
    // (also the saturation test's divisor), and its limiter -------
    std::vector<double> ceilingBps;
    std::vector<double> ceilingLatency;
    std::vector<BandwidthLimiter> ceilingLimiter;

    // --- (memory frequency, CU count) plane, row-major in memory
    // frequency: the concurrency fixed point and its latency. Entries
    // whose demand saturates every ceiling of their memory frequency
    // are never read and hold 0.0 at the unloaded latency ----------
    std::vector<double> fixedPointBps;
    std::vector<double> fixedPointLatency;

    /**
     * The resolved bandwidth of lattice point (memory frequency @p m,
     * CU count @p cu, compute frequency @p cf) by axis position:
     * bitwise MemorySystem::resolveWithCrossingCap() there.
     */
    BandwidthResult bandwidthAt(size_t m, size_t cu, size_t cf) const
    {
        const size_t mc = m * computeFreqValues.size() + cf;
        return bandwidthWith(inFlightBytes[cu] / ceilingLatency[mc] >=
                                     ceilingBps[mc]
                                 ? ceilingBps[mc]
                                 : fixedPointBps[m * cuValues.size() + cu],
                             m, cu, cf);
    }

    /**
     * Complete the bandwidth @p bps that point (@p m, @p cu, @p cf)
     * resolved to with its latency and limiter from the planes. A
     * saturated point resolves to exactly its ceiling, and a fixed
     * point equal to the ceiling has the ceiling's latency too, so
     * equality picks the latency; the limiter follows the reference's
     * within-1e-9-of-the-ceiling rule, which a saturated point meets.
     */
    BandwidthResult bandwidthWith(double bps, size_t m, size_t cu,
                                  size_t cf) const
    {
        const size_t mc = m * computeFreqValues.size() + cf;
        const double cap = ceilingBps[mc];
        return {bps,
                bps == cap ? ceilingLatency[mc]
                           : fixedPointLatency[m * cuValues.size() + cu],
                bps >= cap * (1.0 - 1e-9) ? ceilingLimiter[mc]
                                          : BandwidthLimiter::Concurrency};
    }

    /** Axis position of a lattice value; @throws when off-lattice. */
    size_t cuIndex(int cuCount) const;
    size_t computeFreqIndex(int computeFreqMhz) const;
    size_t memFreqIndex(int memFreqMhz) const;
};

/** Complete timing result of one kernel invocation. */
struct KernelTiming
{
    double execTime = 0.0;       ///< Total wall time (s), incl. launch.
    double computeTime = 0.0;    ///< Vector-ALU issue time (s).
    double l2Time = 0.0;         ///< L2 service time (s).
    double memTime = 0.0;        ///< Off-chip transfer time (s).
    double launchOverhead = 0.0; ///< Fixed overhead (s).
    double busyTime = 0.0;       ///< execTime - launchOverhead.

    OccupancyInfo occupancy;     ///< Concurrency achieved.
    double l2HitRate = 0.0;      ///< Effective L2 hit rate [0, 1].
    double requestedBytes = 0.0; ///< Bytes requested of the L2.
    double offChipBytes = 0.0;   ///< Bytes that went off chip.
    BandwidthResult bandwidth;   ///< Off-chip bandwidth resolution.

    CounterSet counters;         ///< Kernel-boundary counter snapshot.
};

/**
 * Deterministic analytic timing engine. Stateless and const: safe to
 * share across governors, oracle search, and benchmarks.
 */
class TimingEngine
{
  public:
    TimingEngine(const GcnDeviceConfig &dev, CacheModel cache,
                 MemorySystem memsys, TimingParams params);

    /** Engine with default cache/memory/timing parameters. */
    explicit TimingEngine(const GcnDeviceConfig &dev);

    const GcnDeviceConfig &device() const { return dev_; }
    const ConfigSpace &configSpace() const { return space_; }
    const CacheModel &cacheModel() const { return cache_; }
    const MemorySystem &memorySystem() const { return memsys_; }
    const TimingParams &params() const { return params_; }

    /**
     * Execute one kernel invocation.
     *
     * @param profile Static kernel description.
     * @param phase Dynamic behaviour for this invocation.
     * @param cfg Hardware configuration; must lie on the lattice.
     */
    KernelTiming run(const KernelProfile &profile,
                     const KernelPhase &phase,
                     const HardwareConfig &cfg) const;

    /** Convenience: run iteration @p iteration of @p profile. */
    KernelTiming runIteration(const KernelProfile &profile, int iteration,
                              const HardwareConfig &cfg) const;

    /**
     * Hoist everything about (@p profile, @p phase) that no tunable
     * can change: validation, occupancy, and the instruction/traffic
     * totals. run() recomputes this bundle per call; lattice sweeps
     * compute it once and combine it with the axis tables at every
     * point.
     */
    PreparedKernel prepare(const KernelProfile &profile,
                           const KernelPhase &phase) const;

    /**
     * Build the per-axis lookup tables for @p prep over this engine's
     * configuration lattice, the bandwidth lattice as its two factored
     * planes (bitwise identical to per-point resolveBandwidth() calls
     * through TimingAxisTables::bandwidthAt()).
     */
    TimingAxisTables buildAxisTables(const PreparedKernel &prep) const;

  private:
    /** The per-config arithmetic of run(). */
    KernelTiming combine(const PreparedKernel &prep,
                         const TimingAxisValues &axis) const;

    GcnDeviceConfig dev_;
    ConfigSpace space_;
    CacheModel cache_;
    MemorySystem memsys_;
    TimingParams params_;
};

} // namespace harmonia

#endif // HARMONIA_TIMING_TIMING_ENGINE_HH
