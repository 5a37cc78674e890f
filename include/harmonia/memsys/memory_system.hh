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

    /** One memory frequency's worth of lanes for the multi-slab
     * resolver below: lane i resolves the demand with
     * outstandingRequests = outstanding[i] against crossing cap
     * crossingCaps[i], writing out[i]. */
    struct SlabLaneRequest
    {
        double memFreqMhz = 0.0;
        size_t lanes = 0;
        const double *outstanding = nullptr;
        const double *crossingCaps = nullptr;
        BandwidthResult *out = nullptr;
    };

    /**
     * The fast path: resolve several memory frequencies' lanes in one
     * pass, every lane bitwise equal to the corresponding
     * resolveWithCrossingCap() call (docs/MODEL.md §9). Per slab, three
     * exact dedup rules keep the work small: a saturated result is a
     * pure function of the supply ceiling, saturation is monotone in
     * the demand level, and the concurrency fixed point does not
     * depend on the ceiling. The surviving bisections of ALL slabs
     * then run together as explicit vector packs (src/common/simd.hh)
     * with branchless per-lane selects, iteration-major across packs.
     * A single slab rarely stages more than one pack of distinct
     * solves, so its pack is latency-bound on the 48 serially
     * dependent iterations; batching across slabs gives the divider
     * several independent packs per iteration to pipeline. Per lane
     * the expression tree mirrors the reference's bisection, each
     * solve carrying its own slab's peak/unloaded-latency constants.
     * This is the solver the lattice tables use
     * (TimingEngine::buildAxisTables), with one slab per call when the
     * slabs are resolved on a pool.
     */
    void resolveSlabLanesWithCrossingCap(const SlabLaneRequest *slabs,
                                         size_t nSlabs,
                                         const MemDemand &demand) const;

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
