/**
 * @file
 * Tests for the exhaustive-search oracle governor.
 */

#include <gtest/gtest.h>

#include "harmonia/core/oracle.hh"
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

} // namespace

TEST(Oracle, BestConfigBeatsEveryOtherConfig)
{
    const KernelProfile k = appByName("CFD").kernel("ComputeFlux");
    const HardwareConfig best =
        bestConfigFor(device(), k, 0, OracleObjective::MinEd2);
    const double bestEd2 = device().run(k, 0, best).ed2();
    for (const auto &cfg : device().space().allConfigs()) {
        EXPECT_LE(bestEd2,
                  device().run(k, 0, cfg).ed2() * (1.0 + 1e-9));
    }
}

TEST(Oracle, ObjectivesOrderAsExpected)
{
    const KernelProfile k = makeDeviceMemory().kernels.front();
    const HardwareConfig perfCfg =
        bestConfigFor(device(), k, 0, OracleObjective::MaxPerf);
    const HardwareConfig energyCfg =
        bestConfigFor(device(), k, 0, OracleObjective::MinEnergy);
    const HardwareConfig ed2Cfg =
        bestConfigFor(device(), k, 0, OracleObjective::MinEd2);

    const KernelResult perfRun = device().run(k, 0, perfCfg);
    const KernelResult energyRun = device().run(k, 0, energyCfg);
    const KernelResult ed2Run = device().run(k, 0, ed2Cfg);

    EXPECT_LE(perfRun.time(), energyRun.time());
    EXPECT_LE(perfRun.time(), ed2Run.time() * (1.0 + 1e-9));
    EXPECT_LE(energyRun.cardEnergy, perfRun.cardEnergy);
    EXPECT_LE(energyRun.cardEnergy,
              ed2Run.cardEnergy * (1.0 + 1e-9));
    EXPECT_LE(ed2Run.ed2(), perfRun.ed2() * (1.0 + 1e-9));
    EXPECT_LE(ed2Run.ed2(), energyRun.ed2() * (1.0 + 1e-9));
}

TEST(Oracle, MaxPerfTieBreaksTowardTheBigConfig)
{
    // For a compute-bound kernel every memory configuration ties on
    // performance; the naive performance-first policy keeps max.
    const KernelProfile k = makeMaxFlops().kernels.front();
    const HardwareConfig cfg =
        bestConfigFor(device(), k, 0, OracleObjective::MaxPerf);
    EXPECT_EQ(cfg, device().space().maxConfig());
}

TEST(Oracle, GovernorCachesPerPhaseSearches)
{
    OracleGovernor governor(device());
    const KernelProfile k = makeComd().kernels.front();
    const HardwareConfig a = governor.decide(k, 0);
    EXPECT_EQ(governor.searches(), 1u);
    const HardwareConfig b = governor.decide(k, 0);
    EXPECT_EQ(governor.searches(), 1u);
    EXPECT_EQ(a, b);
    // CoMD repeats one phase: iteration 1 reuses iteration 0's search.
    EXPECT_EQ(governor.decide(k, 1), a);
    EXPECT_EQ(governor.searches(), 1u);

    // Graph500's frontier gives iterations 0 and 1 different phases,
    // so each is searched; iteration 8 repeats iteration 0's phase.
    const KernelProfile g = makeGraph500().kernels.front();
    governor.decide(g, 0);
    governor.decide(g, 1);
    EXPECT_EQ(governor.searches(), 3u);
    governor.decide(g, 8);
    EXPECT_EQ(governor.searches(), 3u);

    governor.reset();
    governor.decide(k, 0);
    EXPECT_EQ(governor.searches(), 4u);
}

TEST(Oracle, NameIncludesObjective)
{
    EXPECT_EQ(OracleGovernor(device()).name(), "Oracle(min-ED2)");
    EXPECT_EQ(
        OracleGovernor(device(), OracleObjective::MinEnergy).name(),
        "Oracle(min-energy)");
}

TEST(Oracle, ObjectiveNames)
{
    EXPECT_STREQ(oracleObjectiveName(OracleObjective::MinEd2),
                 "min-ED2");
    EXPECT_STREQ(oracleObjectiveName(OracleObjective::MinEnergy),
                 "min-energy");
    EXPECT_STREQ(oracleObjectiveName(OracleObjective::MaxPerf),
                 "max-performance");
    EXPECT_STREQ(oracleObjectiveName(OracleObjective::MinEd), "min-ED");
}

TEST(Oracle, GovernorMatchesMemoizedSearch)
{
    // Every search path shares one reduction: the governor's reused
    // buffer (serial and pooled), the memoized sweep, and the serial
    // device overload must pick the same config. hbm-stacked adds a
    // second lattice shape and its own MaxPerf ties.
    for (const char *name : {"hd7970", "hbm-stacked"}) {
        const GpuDevice dev = makeDevice(name).value();
        const ConfigSweep sweep(dev, {.jobs = 4});
        for (OracleObjective obj :
             {OracleObjective::MinEd2, OracleObjective::MinEnergy,
              OracleObjective::MaxPerf, OracleObjective::MinEd}) {
            OracleGovernor serial(dev, obj, {.jobs = 1});
            OracleGovernor pooled(dev, obj, {.jobs = 4});
            // The determinism harness's mini-suite.
            for (const Application &app :
                 {makeComd(), makeBpt(), makeGraph500(), makeSpmv()}) {
                for (const KernelProfile &kernel : app.kernels) {
                    for (int it = 0; it < 3; ++it) {
                        SCOPED_TRACE(std::string(name) + " " +
                                     oracleObjectiveName(obj) + " " +
                                     kernel.id() + "#" +
                                     std::to_string(it));
                        const HardwareConfig want =
                            sweep.configs()[bestConfigIndex(
                                sweep.configs(),
                                sweep.evaluate(kernel, it), obj)];
                        EXPECT_EQ(serial.decide(kernel, it), want);
                        EXPECT_EQ(pooled.decide(kernel, it), want);
                        EXPECT_EQ(bestConfigFor(dev, kernel, it, obj),
                                  want);
                    }
                }
            }
            EXPECT_EQ(serial.sweep().cacheEntries(), 0u);
            EXPECT_EQ(pooled.sweep().cacheEntries(), 0u);
        }
    }
}
