/**
 * @file
 * Aggregate memory-system model: six dual-channel memory controllers
 * fronting GDDR5, the L2-to-MC clock-domain crossing, and the
 * concurrency (MLP) limit on achievable bandwidth.
 *
 * Effective off-chip bandwidth is the minimum of three ceilings:
 *  1. the peak bus bandwidth at the memory frequency,
 *  2. the L2->MC crossing rate, which runs at the *compute* clock
 *     (Section 3.5: memory-bound kernels stay compute-freq sensitive),
 *  3. Little's-law bandwidth from outstanding requests and latency
 *     (low kernel occupancy -> few outstanding requests -> low
 *     bandwidth sensitivity, as for Sort.BottomScan in Figure 7).
 *
 * The first two ceilings depend only on (memory clock, compute clock)
 * and the third's fixed point only on (memory clock, demand), the
 * core/memory-clock split of Wang & Chu (arXiv:1701.05308). The
 * lattice path uses that factoring: supplyCeilings() and
 * solveFixedPoints() resolve each half once over its own small grid,
 * and a lattice point picks the ceiling when its demand saturates it,
 * else the fixed point (TimingAxisTables::bandwidthAt).
 */

#ifndef HARMONIA_MEMSYS_MEMORY_SYSTEM_HH
#define HARMONIA_MEMSYS_MEMORY_SYSTEM_HH

#include "harmonia/arch/clock_domain.hh"
#include "harmonia/arch/gcn_config.hh"
#include "harmonia/memsys/gddr5.hh"

namespace harmonia
{

/** Traffic demand presented to the memory system by a kernel phase. */
struct MemDemand
{
    /** Off-chip request concurrency the kernel can sustain (number of
     * outstanding cache-line requests across the device). */
    double outstandingRequests = 0.0;

    /** Average request size in bytes (cache-line granularity). */
    double requestBytes = 64.0;

    /** Fraction of bytes hitting an already-open DRAM row. */
    double rowHitFraction = 0.7;

    /** Streaming efficiency of the access pattern in (0, 1]: the
     * fraction of peak bus bandwidth reachable even with unlimited
     * concurrency (bank conflicts, command overhead). */
    double streamEfficiency = 0.85;
};

/** How the achieved bandwidth was limited. */
enum class BandwidthLimiter
{
    BusPeak,     ///< Memory bus (frequency) bound.
    Crossing,    ///< L2->MC clock-domain crossing bound.
    Concurrency, ///< MLP / latency bound.
};

/** Printable limiter name. */
const char *bandwidthLimiterName(BandwidthLimiter limiter);

/** Result of a bandwidth resolution. */
struct BandwidthResult
{
    double effectiveBps = 0.0;   ///< Achievable bytes/s.
    double latency = 0.0;        ///< Loaded latency (s).
    BandwidthLimiter limiter = BandwidthLimiter::BusPeak;
};

/**
 * The device memory system. Stateless; all queries are pure functions
 * of (configuration, demand) so governors can probe candidates.
 */
class MemorySystem
{
  public:
    /**
     * @param dev Architecture description (bus width, channels).
     * @param model GDDR5 timing/power model.
     * @param crossingBytesPerComputeCycle Width of the L2->MC
     *        interface (bytes per compute-clock cycle).
     */
    MemorySystem(const GcnDeviceConfig &dev, Gddr5Model model,
                 double crossingBytesPerComputeCycle = 320.0);

    /** Peak bus bandwidth (bytes/s) at @p memFreqMhz. */
    double peakBandwidth(double memFreqMhz) const;

    /** The clock-domain crossing model. */
    const DomainCrossing &crossing() const { return crossing_; }

    /** The GDDR5 device model. */
    const Gddr5Model &gddr5() const { return gddr5_; }

    /**
     * Resolve the achievable off-chip bandwidth for a demand at the
     * given clocks. Solves the latency/bandwidth fixed point: loaded
     * latency depends on utilization, which depends on the achieved
     * bandwidth.
     */
    BandwidthResult resolveBandwidth(double memFreqMhz,
                                     double computeFreqMhz,
                                     const MemDemand &demand) const;

    /**
     * resolveBandwidth() with the L2->MC crossing ceiling already
     * evaluated: resolveBandwidth(m, c, d) ==
     * resolveWithCrossingCap(m, d, crossing().maxBandwidth(c)),
     * bitwise. This single-point solve is the memory system's one
     * reference: zero demand returns the unloaded latency, demand that
     * saturates min(bus peak, @p crossingCapBps) returns that ceiling,
     * and anything else bisects the concurrency fixed point on
     * [0, bus peak] for 48 iterations. The naive GpuDevice::run() path
     * reaches it through resolveBandwidth().
     */
    BandwidthResult resolveWithCrossingCap(double memFreqMhz,
                                           const MemDemand &demand,
                                           double crossingCapBps) const;

    /**
     * The saturated half of resolveWithCrossingCap() over a (memory
     * frequency x crossing cap) grid, row-major in memory frequency:
     * slot m * nCaps + c gets the supply ceiling min(bus peak,
     * crossingCapsBps[c]) at memFreqMhz[m] in @p ceilingBps, the
     * loaded latency at that ceiling in @p ceilingLatency, and the
     * limiter a result at the ceiling reports in @p ceilingLimiter.
     * The latency is also the divisor of the reference's saturation
     * test (its 0.95 utilization clamp sits below the 0.98 one of
     * Gddr5Model::loadedLatencyFromBase, so the expressions are the
     * same), so a demand of x in-flight bytes saturates slot s exactly
     * when x / ceilingLatency[s] >= ceilingBps[s].
     */
    void supplyCeilings(const int *memFreqMhz, size_t nMem,
                        const double *crossingCapsBps, size_t nCaps,
                        const MemDemand &demand, double *ceilingBps,
                        double *ceilingLatency,
                        BandwidthLimiter *ceilingLimiter) const;

    /**
     * The unsaturated half: concurrency fixed points over a (memory
     * frequency x demand level) grid, row-major in memory frequency.
     * Slot m * nLevels + j resolves @p demand with outstandingRequests
     * = outstanding[j] at memFreqMhz[m] the way
     * resolveWithCrossingCap() does below its ceiling, which the fixed
     * point does not depend on: a 48-iteration bisection on [0, bus
     * peak], written to @p bps, and the loaded latency there, written
     * to @p latency. Zero demand writes 0.0 at the unloaded latency,
     * as the reference returns, and so does a slot whose
     * @p solve[slot] is 0 (a demand the caller knows saturates every
     * ceiling it meets). All the solves run as one vector bisection
     * (src/common/simd.hh), iteration-major across packs so the
     * divider pipelines their serially dependent division chains,
     * each lane mirroring the reference op for op with its own slot's
     * constants: bitwise the reference's bandwidth and latency
     * (docs/MODEL.md §9).
     */
    void solveFixedPoints(const int *memFreqMhz, size_t nMem,
                          const double *outstanding, size_t nLevels,
                          const MemDemand &demand, const char *solve,
                          double *bps, double *latency) const;

    /** Memory power breakdown for achieved traffic at a frequency. */
    MemPowerBreakdown power(double memFreqMhz, double bytesPerSec,
                            double rowHitFraction) const;

  private:
    GcnDeviceConfig dev_;
    Gddr5Model gddr5_;
    DomainCrossing crossing_;
};

} // namespace harmonia

#endif // HARMONIA_MEMSYS_MEMORY_SYSTEM_HH
