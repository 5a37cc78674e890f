/**
 * @file
 * Tests for the string-keyed governor factory registry
 * (core/governor_registry.hh): built-in names, case-insensitive
 * lookup, structured errors for unknown names and incomplete specs,
 * and third-party registration.
 */

#include "harmonia/core/governor_registry.hh"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "harmonia/core/predictor.hh"
#include "harmonia/device.hh"
#include "harmonia/sim/gpu_device.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;

namespace
{

class GovernorRegistryTest : public ::testing::Test
{
  protected:
    GpuDevice device_;
};

TEST_F(GovernorRegistryTest, BuiltInsAreRegistered)
{
    GovernorRegistry &reg = GovernorRegistry::instance();
    for (const char *name :
         {"baseline", "cg", "harmonia", "freq-only", "oracle"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }
    const std::vector<std::string> names = reg.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_GE(names.size(), 5u);
}

TEST_F(GovernorRegistryTest, LookupIsCaseInsensitive)
{
    GovernorRegistry &reg = GovernorRegistry::instance();
    EXPECT_TRUE(reg.contains("BASELINE"));
    EXPECT_TRUE(reg.contains("Harmonia"));

    GovernorSpec spec;
    spec.device = &device_;
    Result<std::unique_ptr<Governor>> g = reg.make("Baseline", spec);
    ASSERT_TRUE(g.ok()) << g.status().str();
    EXPECT_NE(*g, nullptr);
}

TEST_F(GovernorRegistryTest, UnknownNameIsNotFound)
{
    GovernorSpec spec;
    spec.device = &device_;
    Result<std::unique_ptr<Governor>> g =
        makeGovernor("no-such-policy", spec);
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::NotFound);
    EXPECT_NE(g.status().message().find("no-such-policy"),
              std::string::npos);
}

TEST_F(GovernorRegistryTest, MissingDeviceIsInvalidArgument)
{
    Result<std::unique_ptr<Governor>> g =
        makeGovernor("baseline", GovernorSpec{});
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::InvalidArgument);
}

TEST_F(GovernorRegistryTest, PredictorGovernorsRequirePredictor)
{
    GovernorSpec spec;
    spec.device = &device_;
    for (const char *name : {"cg", "harmonia", "freq-only"}) {
        Result<std::unique_ptr<Governor>> g = makeGovernor(name, spec);
        ASSERT_FALSE(g.ok()) << name;
        EXPECT_EQ(g.status().code(), StatusCode::InvalidArgument)
            << name;
        // The serve layer keys lazy training off this wording.
        EXPECT_NE(g.status().message().find("predictor"),
                  std::string::npos)
            << name;
    }
}

TEST_F(GovernorRegistryTest, ThrowingFactoriesReturnAnErrorResult)
{
    // The default HarmoniaOptions carry hd7970's CG memory targets,
    // which are off the lattice of the other parts: the constructor
    // throws, and make() turns that into an error Result.
    const SensitivityPredictor predictor =
        SensitivityPredictor::paperTable3();
    for (const char *deviceName : {"hbm-stacked", "ampere-ga100"}) {
        const Device device = Device::make(deviceName).value();
        GovernorSpec spec;
        spec.device = &device.gpu();
        spec.predictor = &predictor;
        for (const char *name : {"cg", "harmonia", "fg+cg", "freq-only"}) {
            SCOPED_TRACE(std::string(deviceName) + " " + name);
            // An escaped exception fails the test on its own.
            const Result<std::unique_ptr<Governor>> viaRegistry =
                makeGovernor(name, spec);
            ASSERT_FALSE(viaRegistry.ok());
            EXPECT_EQ(viaRegistry.status().code(),
                      StatusCode::InvalidArgument);
            EXPECT_NE(viaRegistry.status().message().find("mem-freq"),
                      std::string::npos)
                << viaRegistry.status().message();

            const Result<std::unique_ptr<Governor>> viaDevice =
                device.makeGovernor(name, &predictor);
            ASSERT_FALSE(viaDevice.ok());
            EXPECT_EQ(viaDevice.status().message(),
                      viaRegistry.status().message());
        }
    }
}

TEST_F(GovernorRegistryTest, BaselineAndOracleBuildWithoutPredictor)
{
    GovernorSpec spec;
    spec.device = &device_;
    for (const char *name : {"baseline", "oracle"}) {
        Result<std::unique_ptr<Governor>> g = makeGovernor(name, spec);
        ASSERT_TRUE(g.ok()) << name << ": " << g.status().str();
        EXPECT_FALSE((*g)->name().empty());
    }
}

TEST_F(GovernorRegistryTest, AddRejectsEmptyAndDuplicateNames)
{
    GovernorRegistry &reg = GovernorRegistry::instance();
    auto factory = [](const GovernorSpec &)
        -> Result<std::unique_ptr<Governor>> {
        return Status::invalidArgument("stub");
    };

    EXPECT_EQ(reg.add("", factory).code(), StatusCode::InvalidArgument);
    EXPECT_EQ(reg.add("baseline", factory).code(),
              StatusCode::InvalidArgument);
    // Duplicate check is case-insensitive like lookup.
    EXPECT_EQ(reg.add("BaseLine", factory).code(),
              StatusCode::InvalidArgument);
}

TEST_F(GovernorRegistryTest, ThirdPartyRegistrationIsReachable)
{
    GovernorRegistry &reg = GovernorRegistry::instance();
    const std::string name = "test-registry-custom";
    if (!reg.contains(name)) {
        const Status added = reg.add(
            name,
            [](const GovernorSpec &spec)
                -> Result<std::unique_ptr<Governor>> {
                if (spec.device == nullptr)
                    return Status::invalidArgument(
                        "custom: device required");
                return Status::notFound("custom: not buildable");
            });
        ASSERT_TRUE(added.ok()) << added.str();
    }
    EXPECT_TRUE(reg.contains(name));
    // Stored lowercase, looked up case-insensitively.
    EXPECT_TRUE(reg.contains("TEST-REGISTRY-CUSTOM"));

    GovernorSpec spec;
    spec.device = &device_;
    Result<std::unique_ptr<Governor>> g = reg.make(name, spec);
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::NotFound);
}

} // namespace
