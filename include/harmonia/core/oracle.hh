/**
 * @file
 * Oracle governor (paper Section 7).
 *
 * For every kernel iteration, exhaustively profiles all ~450 hardware
 * configurations and picks the one minimizing ED^2. The paper builds
 * the same oracle by exhaustive online profiling and notes it is
 * impractical to deploy; here it serves as the upper bound Harmonia is
 * compared against (Harmonia lands within ~3% on average).
 *
 * Each search runs the lattice (parallel over SweepOptions::jobs) into
 * one reused buffer of PointResults, the five numbers per point an
 * objective reads (40 bytes, not a 328-byte KernelResult), and keeps
 * only the argmin. The decision cache is keyed by InvocationKey,
 * (kernel id, phase bytes), the only inputs a lattice depends on:
 * every iteration of a phase-invariant kernel reuses one search, and
 * no lattice is memoized. The argmin
 * (bestConfigIndex) walks the canonical enumeration order, so
 * parallel and serial searches pick bit-identical configs.
 */

#ifndef HARMONIA_CORE_ORACLE_HH
#define HARMONIA_CORE_ORACLE_HH

#include <map>
#include <string>
#include <vector>

#include "harmonia/core/governor.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/sim/gpu_device.hh"

namespace harmonia
{

/** Metric the oracle optimizes. */
enum class OracleObjective
{
    MinEd2,     ///< Minimize energy * delay^2 (the paper's oracle).
    MinEnergy,  ///< Minimize energy.
    MaxPerf,    ///< Minimize delay.
    MinEd,      ///< Minimize energy * delay.
};

/** Printable objective name. */
const char *oracleObjectiveName(OracleObjective objective);

/** The score @p objective minimizes for one evaluated point. */
double objectiveScore(const PointResult &result, OracleObjective objective);

/**
 * The oracle's reduction: index of the best results[i] (evaluated at
 * configs[i]) under @p objective, by a serial walk in configs order.
 * MaxPerf near-ties (relative 1e-6) go to the largest configuration.
 * With no finite score it returns the last index, which is the
 * maximum configuration of the canonical enumeration.
 */
size_t bestConfigIndex(const std::vector<HardwareConfig> &configs,
                       const std::vector<PointResult> &results,
                       OracleObjective objective);

/** Exhaustive-search oracle. */
class OracleGovernor : public Governor
{
  public:
    /**
     * @param device The device model to profile against (the oracle
     *        gets to "replay" each iteration on every configuration).
     * @param objective The optimization target.
     * @param sweep Sweep options (jobs = parallel search width).
     */
    explicit OracleGovernor(const GpuDevice &device,
                            OracleObjective objective =
                                OracleObjective::MinEd2,
                            SweepOptions sweep = {});

    std::string name() const override;

    HardwareConfig decide(const KernelProfile &profile,
                          int iteration) override;

    void observe(const KernelSample &sample) override { (void)sample; }

    void reset() override { cache_.clear(); }

    /** Number of exhaustive searches performed, one per distinct
     * (kernel, phase) since the last reset() (for tests). */
    size_t searches() const { return searches_; }

    /** Enumeration and pool of the searches; its store stays empty. */
    const ConfigSweep &sweep() const { return sweep_; }

  private:
    ConfigSweep sweep_;
    OracleObjective objective_;
    std::map<InvocationKey, HardwareConfig> cache_;
    std::vector<PointResult> results_; ///< Reused search buffer.
    size_t searches_ = 0;
};

/**
 * One serial, unmemoized search of @p device's lattice, for analyses
 * (Figure 6 metric tradeoffs) that search each invocation once.
 */
HardwareConfig bestConfigFor(const GpuDevice &device,
                             const KernelProfile &profile, int iteration,
                             OracleObjective objective);

} // namespace harmonia

#endif // HARMONIA_CORE_ORACLE_HH
