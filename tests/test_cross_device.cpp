/**
 * @file
 * Cross-device invariant sweep: every profile in the DeviceRegistry
 * must satisfy the full invariant catalog, not just the hd7970 part
 * the catalog was written against. This is the lattice-genericity
 * gate for new profiles — a registration that violates a model
 * invariant fails here before it ships.
 *
 * Tier2: the ampere-ga100 lattice has 10,416 points, so the
 * full-lattice SIMD sweep rides with the other long harnesses.
 */

#include <vector>

#include <gtest/gtest.h>

#include "harmonia/check/checker.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;

namespace
{

/** A compute-bound and a memory-bound probe: the two corners that
 * stress opposite halves of the timing/power models. */
std::vector<Application>
probeApps()
{
    return {makeMaxFlops(), makeDeviceMemory()};
}

TEST(CrossDevice, EveryRegisteredDeviceSatisfiesTheCatalog)
{
    for (const std::string &name : deviceNames()) {
        const GpuDevice device = makeDevice(name).value();
        CheckOptions opt;
        opt.jobs = 2;
        opt.maxIterationsPerKernel = 1;
        const ModelChecker checker(device, opt);
        const CheckReport report = checker.checkSuite(probeApps());
        EXPECT_GT(report.points, 0u) << name;
        EXPECT_TRUE(report.clean())
            << name << ": " << report.violations.size()
            << " violation(s), first: "
            << (report.violations.empty()
                    ? std::string()
                    : report.violations.front().str());
    }
}

TEST(CrossDevice, AmpereFullLatticeSimdSweepIsClean)
{
    // The 10k+-config scale test from the acceptance checklist: the
    // whole ampere-ga100 lattice through the batched path, 0
    // violations.
    const GpuDevice device = makeDevice("ampere-ga100").value();
    ASSERT_GE(device.space().size(), 10000u);
    CheckOptions opt;
    opt.jobs = 4;
    const ModelChecker checker(device, opt);
    const Application app = makeMaxFlops();
    const CheckReport report =
        checker.checkInvocation(app.kernels.front(), 0);
    EXPECT_EQ(report.points, device.space().size());
    EXPECT_TRUE(report.clean())
        << report.violations.size() << " violation(s)";
}

TEST(CrossDevice, ScalarAndSimdAgreeOffTheDefaultLattice)
{
    // The batched-vs-naive bitwise contract is lattice-generic too:
    // on the stacked part and on ampere-ga100, whose 31-wide compute
    // axis cannot take the fused gather, the batched sweep must match
    // per-config run() calls.
    const KernelProfile k = makeDeviceMemory().kernels.front();
    const KernelPhase phase = k.phase(0);
    for (const char *name : {"hbm-stacked", "ampere-ga100"}) {
        const GpuDevice device = makeDevice(name).value();
        const ConfigSweep sweep(device, SweepOptions{1});
        const std::vector<PointResult> &a = sweep.evaluate(k, 0);
        ASSERT_EQ(a.size(), sweep.configs().size());
        for (size_t i = 0; i < a.size(); ++i) {
            const KernelResult b = device.run(k, phase, sweep.configs()[i]);
            ASSERT_EQ(a[i].time(), b.time()) << name << " point " << i;
            ASSERT_EQ(a[i].ed2(), b.ed2()) << name << " point " << i;
            ASSERT_EQ(a[i].powerW, b.power.total())
                << name << " point " << i;
        }
    }
}

} // namespace
