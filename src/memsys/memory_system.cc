#include "harmonia/memsys/memory_system.hh"

#include <algorithm>
#include <cmath>

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

/** The demand checks every resolver runs before it reads the demand. */
void
validateShape(const MemDemand &demand)
{
    fatalIf(demand.requestBytes <= 0.0,
            "MemorySystem: request size must be positive");
    fatalIf(demand.streamEfficiency <= 0.0 ||
                demand.streamEfficiency > 1.0,
            "MemorySystem: streamEfficiency must be in (0, 1], got ",
            demand.streamEfficiency);
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
    validateShape(demand);

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
MemorySystem::supplyCeilings(const int *memFreqMhz, size_t nMem,
                             const double *crossingCapsBps, size_t nCaps,
                             const MemDemand &demand, double *ceilingBps,
                             double *ceilingLatency,
                             BandwidthLimiter *ceilingLimiter) const
{
    validateShape(demand);
    for (size_t m = 0; m < nMem; ++m) {
        const double peak = peakBandwidth(memFreqMhz[m]);
        const double busPeak = peak * demand.streamEfficiency;
        const double unloaded = gddr5_.unloadedLatency(memFreqMhz[m]);
        for (size_t c = 0; c < nCaps; ++c) {
            const size_t slot = m * nCaps + c;
            const double supplyCap = std::min(busPeak, crossingCapsBps[c]);
            ceilingBps[slot] = supplyCap;
            ceilingLatency[slot] = gddr5_.loadedLatencyFromBase(
                unloaded, std::min(supplyCap / peak, 0.95));
            ceilingLimiter[slot] = busPeak <= crossingCapsBps[c]
                                       ? BandwidthLimiter::BusPeak
                                       : BandwidthLimiter::Crossing;
            HARMONIA_CHECK_NONNEG(supplyCap);
            HARMONIA_CHECK(ceilingLatency[slot] > 0.0,
                           "non-positive loaded latency");
        }
    }
}

void
MemorySystem::solveFixedPoints(const int *memFreqMhz, size_t nMem,
                               const double *outstanding, size_t nLevels,
                               const MemDemand &demand, const char *solve,
                               double *bps, double *latency) const
{
    validateShape(demand);
    const double qs = gddr5_.timing().queueSensitivity;

    // Staged solves; a full ampere-ga100 grid is 21 x 16 = 336, so one
    // flush is the common case and the capacity check keeps larger
    // callers correct.
    constexpr size_t kStage = 512;
    double in[kStage], lo[kStage], hi[kStage];
    double solvePeak[kStage], solveUnloaded[kStage];
    size_t solveSlot[kStage];
    size_t nSolves = 0;

    auto flush = [&]() {
        using simd::VDouble;
        const VDouble half(0.5), one(1.0), clamp(0.95), vQs(qs);
        // Iteration-major: iteration i of every pack runs before
        // iteration i+1 of any pack, so the packs' division chains
        // overlap in the divider. Each lane mirrors the reference's
        // bisectConcurrencyFixedPoint() op for op (same division, same
        // clamp, same compare) with its own slot's constants. Tail
        // packs pad with the last solve (loadN); pads stay finite and
        // are never stored.
        for (int iter = 0; iter < 48; ++iter) {
            for (size_t base = 0; base < nSolves;
                 base += VDouble::width) {
                const size_t n = std::min(VDouble::width, nSolves - base);
                const VDouble vIn = VDouble::loadN(in + base, n);
                const VDouble vPeak = VDouble::loadN(solvePeak + base, n);
                const VDouble vUnloaded =
                    VDouble::loadN(solveUnloaded + base, n);
                VDouble vLo = VDouble::loadN(lo + base, n);
                VDouble vHi = VDouble::loadN(hi + base, n);
                const VDouble mid = half * (vLo + vHi);
                const VDouble u = vmin(mid / vPeak, clamp);
                const VDouble lat =
                    vUnloaded * (one + vQs * u / (one - u));
                const auto below = vIn / lat >= mid;
                vLo = select(below, mid, vLo);
                vHi = select(below, vHi, mid);
                vLo.storeN(lo + base, n);
                vHi.storeN(hi + base, n);
            }
        }
        for (size_t u = 0; u < nSolves; ++u) {
            const size_t slot = solveSlot[u];
            bps[slot] = 0.5 * (lo[u] + hi[u]);
            latency[slot] = gddr5_.loadedLatencyFromBase(
                solveUnloaded[u], std::min(bps[slot] / solvePeak[u], 0.95));
            HARMONIA_CHECK_NONNEG(bps[slot]);
            HARMONIA_CHECK(latency[slot] > 0.0,
                           "non-positive loaded latency");
        }
        nSolves = 0;
    };

    for (size_t m = 0; m < nMem; ++m) {
        const double peak = peakBandwidth(memFreqMhz[m]);
        const double busPeak = peak * demand.streamEfficiency;
        const double unloaded = gddr5_.unloadedLatency(memFreqMhz[m]);
        for (size_t j = 0; j < nLevels; ++j) {
            fatalIf(outstanding[j] < 0.0,
                    "MemorySystem: negative outstanding requests");
            const size_t slot = m * nLevels + j;
            // The bisection would converge on a tiny positive number
            // for zero demand, not the reference's exact 0.0.
            bps[slot] = 0.0;
            latency[slot] = unloaded;
            if (outstanding[j] == 0.0 || !solve[slot])
                continue;
            if (nSolves == kStage)
                flush();
            in[nSolves] = outstanding[j] * demand.requestBytes;
            lo[nSolves] = 0.0;
            hi[nSolves] = busPeak;
            solvePeak[nSolves] = peak;
            solveUnloaded[nSolves] = unloaded;
            solveSlot[nSolves] = slot;
            ++nSolves;
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
