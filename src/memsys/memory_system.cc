#include "harmonia/memsys/memory_system.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hh"
#include "harmonia/common/error.hh"
#include "common/simd.hh"

namespace harmonia
{

namespace
{

/**
 * Little's-law bandwidth of @p inFlightBytes at a hypothetical achieved
 * bandwidth @p bw: loaded latency rises with bus utilization, so the
 * result is decreasing in @p bw. The utilization is clamped to 0.95,
 * below the 0.98 clamp inside Gddr5Model::loadedLatencyFromBase(), so
 * the inlined latency expression is bitwise identical to calling it.
 */
inline double
concurrencyBandwidth(double inFlightBytes, double bw, double peak,
                     double unloaded, double qs)
{
    const double u = std::min(bw / peak, 0.95);
    const double latency = unloaded * (1.0 + qs * u / (1.0 - u));
    return inFlightBytes / latency;
}

/**
 * 48 halvings of [*lo, *hi] toward the unique bw with
 * concurrencyBandwidth(inFlightBytes, bw, ...) == bw.
 *
 * Kept out of line on purpose: inlined into resolveWithCrossingCap()
 * under -O3 -march=native, GCC 12 turns the halving into blends, so
 * the iterations' divisions chain back to back and GpuDevice::run()
 * got about 15% slower on an x86-64 Xeon; out of line, the loop keeps
 * a predicted branch. Results are bitwise identical either way.
 */
__attribute__((noinline)) void
bisectConcurrencyFixedPoint(double inFlightBytes, double peak,
                            double unloaded, double qs, double *lo,
                            double *hi)
{
    for (int iter = 0; iter < 48; ++iter) {
        const double mid = 0.5 * (*lo + *hi);
        if (concurrencyBandwidth(inFlightBytes, mid, peak, unloaded, qs) >=
            mid)
            *lo = mid;
        else
            *hi = mid;
    }
}

} // namespace

const char *
bandwidthLimiterName(BandwidthLimiter limiter)
{
    switch (limiter) {
      case BandwidthLimiter::BusPeak: return "bus-peak";
      case BandwidthLimiter::Crossing: return "clock-crossing";
      case BandwidthLimiter::Concurrency: return "concurrency";
    }
    return "unknown";
}

MemorySystem::MemorySystem(const GcnDeviceConfig &dev, Gddr5Model model,
                           double crossingBytesPerComputeCycle)
    : dev_(dev), gddr5_(std::move(model)),
      crossing_(crossingBytesPerComputeCycle)
{
    dev_.validate();
}

double
MemorySystem::peakBandwidth(double memFreqMhz) const
{
    fatalIf(memFreqMhz <= 0.0,
            "MemorySystem: memory frequency must be positive");
    return dev_.peakMemBandwidth(memFreqMhz);
}

BandwidthResult
MemorySystem::resolveBandwidth(double memFreqMhz, double computeFreqMhz,
                               const MemDemand &demand) const
{
    return resolveWithCrossingCap(memFreqMhz, demand,
                                  crossing_.maxBandwidth(computeFreqMhz));
}

BandwidthResult
MemorySystem::resolveWithCrossingCap(double memFreqMhz,
                                     const MemDemand &demand,
                                     double crossingCapBps) const
{
    fatalIf(demand.requestBytes <= 0.0,
            "MemorySystem: request size must be positive");
    fatalIf(demand.streamEfficiency <= 0.0 ||
                demand.streamEfficiency > 1.0,
            "MemorySystem: streamEfficiency must be in (0, 1], got ",
            demand.streamEfficiency);

    const double peak = peakBandwidth(memFreqMhz);
    const double busPeak = peak * demand.streamEfficiency;
    const double unloaded = gddr5_.unloadedLatency(memFreqMhz);
    const double qs = gddr5_.timing().queueSensitivity;

    fatalIf(demand.outstandingRequests < 0.0,
            "MemorySystem: negative outstanding requests");
    BandwidthResult r;
    if (demand.outstandingRequests == 0.0) {
        r.effectiveBps = 0.0;
        r.latency = unloaded;
        r.limiter = BandwidthLimiter::Concurrency;
        return r;
    }

    const double supplyCap = std::min(busPeak, crossingCapBps);
    const double inFlightBytes =
        demand.outstandingRequests * demand.requestBytes;
    if (concurrencyBandwidth(inFlightBytes, supplyCap, peak, unloaded,
                             qs) >= supplyCap) {
        // Enough concurrency to saturate the supply path.
        r.effectiveBps = supplyCap;
        r.latency = gddr5_.loadedLatencyFromBase(
            unloaded, std::min(supplyCap / peak, 0.95));
        r.limiter = busPeak <= crossingCapBps ? BandwidthLimiter::BusPeak
                                              : BandwidthLimiter::Crossing;
        HARMONIA_CHECK_NONNEG(r.effectiveBps);
        HARMONIA_CHECK(r.latency > 0.0, "non-positive loaded latency");
        return r;
    }

    // Concurrency-limited: the fixed point lies below the supply
    // ceiling, and g(0) > 0 while g(busPeak) <= g(root) < busPeak, so
    // [0, busPeak] brackets it (g is strictly decreasing, so the
    // crossing is unique).
    double lo = 0.0;
    double hi = busPeak;
    bisectConcurrencyFixedPoint(inFlightBytes, peak, unloaded, qs, &lo,
                                &hi);
    r.effectiveBps = 0.5 * (lo + hi);
    r.latency = gddr5_.loadedLatencyFromBase(
        unloaded, std::min(r.effectiveBps / peak, 0.95));
    if (r.effectiveBps >= supplyCap * (1.0 - 1e-9)) {
        r.limiter = busPeak <= supplyCap ? BandwidthLimiter::BusPeak
                                         : BandwidthLimiter::Crossing;
    } else {
        r.limiter = BandwidthLimiter::Concurrency;
    }
    HARMONIA_CHECK_NONNEG(r.effectiveBps);
    HARMONIA_CHECK(r.effectiveBps <= supplyCap * (1.0 + 1e-9),
                   "bandwidth above the supply-path ceiling");
    HARMONIA_CHECK(r.latency > 0.0, "non-positive loaded latency");
    return r;
}

void
MemorySystem::resolveSlabLanesWithCrossingCap(
    const SlabLaneRequest *slabs, size_t nSlabs,
    const MemDemand &demand) const
{
    fatalIf(demand.requestBytes <= 0.0,
            "MemorySystem: request size must be positive");
    fatalIf(demand.streamEfficiency <= 0.0 ||
                demand.streamEfficiency > 1.0,
            "MemorySystem: streamEfficiency must be in (0, 1], got ",
            demand.streamEfficiency);

    const double qs = gddr5_.timing().queueSensitivity;

    // Global solve/lane staging across slabs. A full 448-point lattice
    // stages at most 448 lanes, so one flush is the common case; the
    // capacity checks below keep arbitrary callers correct.
    constexpr size_t kGlobal = 512;
    double solveIn[kGlobal];
    double lo[kGlobal];
    double hi[kGlobal];
    double solvePeak[kGlobal];     // per-solve slab peak bandwidth
    double solveUnloaded[kGlobal]; // per-solve slab unloaded latency
    double solveLatency[kGlobal];
    BandwidthResult *laneOut[kGlobal];
    size_t laneSolve[kGlobal];
    double laneCap[kGlobal];     // supply ceiling, for the limiter
    double laneBusPeak[kGlobal]; // slab bus ceiling, for the limiter
    size_t nSolves = 0;
    size_t nStaged = 0;

    auto flush = [&]() {
        using simd::VDouble;
        const VDouble half(0.5), one(1.0), clamp(0.95), vQs(qs);
        // The only vector bisection in the model. Iteration-major:
        // iteration i of every pack runs before iteration i+1 of any
        // pack, so the packs' serially dependent division chains
        // overlap in the divider instead of running back to back. Each
        // lane mirrors the reference's bisectConcurrencyFixedPoint() op
        // for op (same division, same clamp, same compare) with its own
        // slab's constants — bitwise identical results. Tail packs pad
        // with the last solve (loadN); pads stay finite and are never
        // stored.
        for (int iter = 0; iter < 48; ++iter) {
            for (size_t base = 0; base < nSolves;
                 base += VDouble::width) {
                const size_t n = std::min(VDouble::width, nSolves - base);
                const VDouble in = VDouble::loadN(solveIn + base, n);
                const VDouble vPeak =
                    VDouble::loadN(solvePeak + base, n);
                const VDouble vUnloaded =
                    VDouble::loadN(solveUnloaded + base, n);
                VDouble vLo = VDouble::loadN(lo + base, n);
                VDouble vHi = VDouble::loadN(hi + base, n);
                const VDouble mid = half * (vLo + vHi);
                const VDouble u = vmin(mid / vPeak, clamp);
                const VDouble latency =
                    vUnloaded * (one + vQs * u / (one - u));
                const auto below = in / latency >= mid;
                vLo = select(below, mid, vLo);
                vHi = select(below, vHi, mid);
                vLo.storeN(lo + base, n);
                vHi.storeN(hi + base, n);
            }
        }
        for (size_t u = 0; u < nSolves; ++u) {
            const double bw = 0.5 * (lo[u] + hi[u]);
            solveIn[u] = bw; // reuse as the solved bandwidth
            solveLatency[u] = gddr5_.loadedLatencyFromBase(
                solveUnloaded[u],
                std::min(bw / solvePeak[u], 0.95));
        }
        for (size_t l = 0; l < nStaged; ++l) {
            BandwidthResult &r = *laneOut[l];
            r.effectiveBps = solveIn[laneSolve[l]];
            r.latency = solveLatency[laneSolve[l]];
            if (r.effectiveBps >= laneCap[l] * (1.0 - 1e-9)) {
                r.limiter = laneBusPeak[l] <= laneCap[l]
                                ? BandwidthLimiter::BusPeak
                                : BandwidthLimiter::Crossing;
            } else {
                r.limiter = BandwidthLimiter::Concurrency;
            }
            HARMONIA_CHECK_NONNEG(r.effectiveBps);
            HARMONIA_CHECK(r.effectiveBps <= laneCap[l] * (1.0 + 1e-9),
                           "bandwidth above the supply-path ceiling");
            HARMONIA_CHECK(r.latency > 0.0, "non-positive loaded latency");
        }
        nSolves = 0;
        nStaged = 0;
    };

    for (size_t s = 0; s < nSlabs; ++s) {
        const SlabLaneRequest &slab = slabs[s];
        const double peak = peakBandwidth(slab.memFreqMhz);
        const double busPeak = peak * demand.streamEfficiency;
        const double unloaded = gddr5_.unloadedLatency(slab.memFreqMhz);

        // Three dedup rules keep the slab cheap. They are exact, not
        // approximate: each follows from g(bw) = inFlightBytes /
        // latency(bw) being monotone in inFlightBytes at fixed bw, and
        // IEEE division is monotone in its numerator.
        //  1. A saturated result is a pure function of the supply
        //     ceiling, so lanes sharing a ceiling share one result.
        //  2. Saturation is monotone in the in-flight bytes, so the
        //     satMin/unsatMax bounds skip most saturation tests.
        //  3. The concurrency fixed point does not depend on the
        //     ceiling (which only decided that the root lies below
        //     it), so the bisection runs on [0, busPeak] and lanes with
        //     equal demand share one solve.
        // Ceiling groups are per slab (caps at different memory
        // frequencies are not comparable); solve dedup likewise only
        // scans this slab's window of the global solve array.
        struct CapGroup
        {
            double cap;          // min(busPeak, crossing cap)
            double satMin;       // smallest in-flight level known saturated
            double unsatMax;     // largest in-flight level known unsaturated
            BandwidthResult sat; // shared saturated result (if satMin set)
        };
        constexpr size_t kGroups = 64;
        CapGroup groups[kGroups];
        size_t nGroups = 0;
        size_t solveBase = nSolves;

        for (size_t i = 0; i < slab.lanes; ++i) {
            fatalIf(slab.outstanding[i] < 0.0,
                    "MemorySystem: negative outstanding requests");
            if (slab.outstanding[i] == 0.0) {
                slab.out[i].effectiveBps = 0.0;
                slab.out[i].latency = unloaded;
                slab.out[i].limiter = BandwidthLimiter::Concurrency;
                continue;
            }

            if (nSolves == kGlobal || nStaged == kGlobal) {
                flush();
                solveBase = 0;
            }
            if (nGroups == kGroups)
                nGroups = 0; // drop saturation memory, stay correct

            const double supplyCap =
                std::min(busPeak, slab.crossingCaps[i]);
            size_t gi = 0;
            while (gi < nGroups && groups[gi].cap != supplyCap)
                ++gi;
            if (gi == nGroups) {
                groups[gi].cap = supplyCap;
                groups[gi].satMin =
                    std::numeric_limits<double>::infinity();
                groups[gi].unsatMax = -1.0;
                ++nGroups;
            }
            CapGroup &g = groups[gi];

            const double inFlightBytes =
                slab.outstanding[i] * demand.requestBytes;
            bool saturated;
            if (inFlightBytes >= g.satMin) {
                saturated = true;
            } else if (inFlightBytes <= g.unsatMax) {
                saturated = false;
            } else {
                saturated = concurrencyBandwidth(inFlightBytes, supplyCap,
                                                 peak, unloaded,
                                                 qs) >= supplyCap;
                if (saturated) {
                    if (g.satMin ==
                        std::numeric_limits<double>::infinity()) {
                        g.sat.effectiveBps = supplyCap;
                        g.sat.latency = gddr5_.loadedLatencyFromBase(
                            unloaded, std::min(supplyCap / peak, 0.95));
                        g.sat.limiter =
                            busPeak <= slab.crossingCaps[i]
                                ? BandwidthLimiter::BusPeak
                                : BandwidthLimiter::Crossing;
                        HARMONIA_CHECK_NONNEG(g.sat.effectiveBps);
                        HARMONIA_CHECK(g.sat.latency > 0.0,
                                       "non-positive loaded latency");
                    }
                    g.satMin = inFlightBytes;
                } else {
                    g.unsatMax = inFlightBytes;
                }
            }

            if (saturated) {
                slab.out[i] = g.sat;
            } else {
                size_t u = solveBase;
                while (u < nSolves && solveIn[u] != inFlightBytes)
                    ++u;
                if (u == nSolves) {
                    solveIn[u] = inFlightBytes;
                    lo[u] = 0.0;
                    hi[u] = busPeak;
                    solvePeak[u] = peak;
                    solveUnloaded[u] = unloaded;
                    ++nSolves;
                }
                laneOut[nStaged] = &slab.out[i];
                laneSolve[nStaged] = u;
                laneCap[nStaged] = g.cap;
                laneBusPeak[nStaged] = busPeak;
                ++nStaged;
            }
        }
    }
    flush();
}

MemPowerBreakdown
MemorySystem::power(double memFreqMhz, double bytesPerSec,
                    double rowHitFraction) const
{
    return gddr5_.power(memFreqMhz, bytesPerSec, rowHitFraction);
}

} // namespace harmonia
