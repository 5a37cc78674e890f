/**
 * @file
 * Multi-device serving: the `device` request field must round-trip
 * through evaluate/govern/sweep, unknown names must come back as the
 * structured "unknown_device" wire error, governor sessions bind to
 * one device for life, and the `stats` devices section must expose
 * per-device cache partitioning. Device-less streams stay
 * byte-identical to the pre-registry protocol (no `device` member is
 * ever added to their responses).
 */

#include "harmonia/serve/service.hh"

#include <bit>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harmonia/common/error.hh"
#include "harmonia/serve/json.hh"
#include "harmonia/serve/protocol.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

std::string
firstKernelId()
{
    return standardSuite().front().kernels.front().id();
}

JsonValue
request(const char *verb)
{
    return JsonValue::object({
        {"schema", JsonValue(kRequestSchema)},
        {"id", JsonValue(1)},
        {"verb", JsonValue(verb)},
    });
}

/** Process one request line and parse the one response. */
JsonValue
roundTrip(Service &service, const JsonValue &req)
{
    const std::vector<std::string> responses =
        service.processBatch({req.dump()});
    EXPECT_EQ(responses.size(), 1u);
    Result<JsonValue> doc = parseJson(responses.front());
    EXPECT_TRUE(doc.ok()) << responses.front();
    return doc.ok() ? doc.value() : JsonValue();
}

bool
isOk(const JsonValue &resp)
{
    const JsonValue *ok = resp.find("ok");
    return ok && ok->isBool() && ok->asBool();
}

std::string
errorCode(const JsonValue &resp)
{
    const JsonValue *error = resp.find("error");
    if (!error)
        return {};
    const JsonValue *code = error->find("code");
    return code ? code->asString() : std::string();
}

TEST(ServeDevice, EvaluateRoundTripsAndEchoesTheDevice)
{
    Service service(ServiceOptions{});

    JsonValue req = request("evaluate");
    req.set("kernel", JsonValue(firstKernelId()));
    req.set("device", JsonValue("HBM-Stacked")); // case-insensitive
    req.set("configs", JsonValue("all"));
    const JsonValue resp = roundTrip(service, req);
    ASSERT_TRUE(isOk(resp)) << resp.dump();

    const JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    const JsonValue *device = result->find("device");
    ASSERT_NE(device, nullptr);
    EXPECT_EQ(device->asString(), "hbm-stacked"); // canonical name
    // The full lattice is the stacked part's 8x8x8, not the default
    // device's 448 points.
    EXPECT_EQ(result->find("points")->asInt(), 512);

    // A device-less request must not grow a device member: the
    // pre-registry response bytes are part of the protocol contract.
    JsonValue plain = request("evaluate");
    plain.set("kernel", JsonValue(firstKernelId()));
    plain.set("configs", JsonValue("all"));
    const JsonValue presp = roundTrip(service, plain);
    ASSERT_TRUE(isOk(presp)) << presp.dump();
    EXPECT_EQ(presp.find("result")->find("device"), nullptr);
    EXPECT_EQ(presp.find("result")->find("points")->asInt(), 448);
}

TEST(ServeDevice, UnknownDeviceIsAStructuredWireError)
{
    Service service(ServiceOptions{});
    for (const char *verb : {"evaluate", "sweep"}) {
        JsonValue req = request(verb);
        req.set("kernel", JsonValue(firstKernelId()));
        req.set("device", JsonValue("gtx480"));
        if (std::string(verb) == "evaluate")
            req.set("configs", JsonValue("all"));
        const JsonValue resp = roundTrip(service, req);
        EXPECT_FALSE(isOk(resp)) << resp.dump();
        EXPECT_EQ(errorCode(resp), "unknown_device") << resp.dump();
    }

    JsonValue gov = request("govern");
    gov.set("session", JsonValue("s1"));
    gov.set("governor", JsonValue("baseline"));
    gov.set("device", JsonValue("gtx480"));
    gov.set("kernel", JsonValue(firstKernelId()));
    const JsonValue resp = roundTrip(service, gov);
    EXPECT_FALSE(isOk(resp));
    EXPECT_EQ(errorCode(resp), "unknown_device");
}

TEST(ServeDevice, GovernSessionsBindToOneDeviceForLife)
{
    Service service(ServiceOptions{});

    JsonValue open = request("govern");
    open.set("session", JsonValue("stacked"));
    open.set("governor", JsonValue("baseline"));
    open.set("device", JsonValue("hbm-stacked"));
    open.set("kernel", JsonValue(firstKernelId()));
    const JsonValue first = roundTrip(service, open);
    ASSERT_TRUE(isOk(first)) << first.dump();
    EXPECT_EQ(first.find("result")->find("device")->asString(),
              "hbm-stacked");

    // Later steps may omit the device (the binding persists) or
    // restate it, including with different case.
    JsonValue step = request("govern");
    step.set("session", JsonValue("stacked"));
    step.set("kernel", JsonValue(firstKernelId()));
    step.set("iteration", JsonValue(1));
    ASSERT_TRUE(isOk(roundTrip(service, step)));
    step.set("device", JsonValue("HBM-STACKED"));
    ASSERT_TRUE(isOk(roundTrip(service, step)));

    // Restating a different device is a precondition failure, not a
    // silent rebind.
    step.set("device", JsonValue("hd7970"));
    const JsonValue clash = roundTrip(service, step);
    EXPECT_FALSE(isOk(clash));
    EXPECT_EQ(errorCode(clash), "failed_precondition");
}

TEST(ServeDevice, StatsExposesPerDeviceCachePartitioning)
{
    Service service(ServiceOptions{});

    // Touch the default device and the stacked device with the same
    // kernel; their sweep memos must fill independently.
    for (const char *device : {"", "hbm-stacked"}) {
        JsonValue req = request("sweep");
        req.set("kernel", JsonValue(firstKernelId()));
        if (*device)
            req.set("device", JsonValue(device));
        ASSERT_TRUE(isOk(roundTrip(service, req)));
    }

    const JsonValue stats = roundTrip(service, request("stats"));
    ASSERT_TRUE(isOk(stats)) << stats.dump();
    const JsonValue *devices = stats.find("result")->find("devices");
    ASSERT_NE(devices, nullptr);

    // Every registered name is listed, whether instantiated or not.
    const JsonValue *registered = devices->find("registered");
    ASSERT_NE(registered, nullptr);
    EXPECT_GE(registered->asArray().size(), 3u);

    const JsonValue *active = devices->find("active");
    ASSERT_NE(active, nullptr);
    const JsonValue *hd = active->find("hd7970");
    const JsonValue *hbm = active->find("hbm-stacked");
    ASSERT_NE(hd, nullptr);
    ASSERT_NE(hbm, nullptr);
    // ampere-ga100 was never requested: registered but not active.
    EXPECT_EQ(active->find("ampere-ga100"), nullptr);

    // One sweep landed in each device's own memo — partitioned
    // caches, not a shared one.
    EXPECT_EQ(hd->find("sweep_cache")->find("entries")->asInt(), 1);
    EXPECT_EQ(hbm->find("sweep_cache")->find("entries")->asInt(), 1);
    EXPECT_EQ(hd->find("lattice_points")->asInt(), 448);
    EXPECT_EQ(hbm->find("lattice_points")->asInt(), 512);
    EXPECT_GE(hd->find("requests")->asInt(), 1);
    EXPECT_GE(hbm->find("requests")->asInt(), 1);
}

TEST(ServeDevice, SweepLooksTheMemoUpOnce)
{
    // The sweep verb reduces the lattice it already holds: one memo
    // lookup per request, so a fresh service counts one miss and no
    // phantom hit, and only a repeat of the request is a hit.
    Service service(ServiceOptions{});
    JsonValue req = request("sweep");
    req.set("kernel", JsonValue(firstKernelId()));

    auto sweepCache = [&](const char *counter) {
        const JsonValue stats = roundTrip(service, request("stats"));
        EXPECT_TRUE(isOk(stats)) << stats.dump();
        return stats.find("result")
            ->find("sweep_cache")
            ->find(counter)
            ->asInt();
    };

    ASSERT_TRUE(isOk(roundTrip(service, req)));
    EXPECT_EQ(sweepCache("hits"), 0);
    EXPECT_EQ(sweepCache("misses"), 1);

    ASSERT_TRUE(isOk(roundTrip(service, req)));
    EXPECT_EQ(sweepCache("hits"), 1);
    EXPECT_EQ(sweepCache("misses"), 1);
}

TEST(ServeDevice, EvaluateNumbersAreTheReferenceRunBitForBit)
{
    // The store keeps five numbers per point; every served number,
    // ed2 included, must still be the reference run()'s bit for bit.
    Service service(ServiceOptions{});
    const KernelProfile kernel = makeGraph500().kernels.front();
    for (const std::string &name : deviceNames()) {
        const GpuDevice device = makeDevice(name).value();
        const std::vector<HardwareConfig> configs =
            device.space().allConfigs();
        std::vector<HardwareConfig> spread;
        JsonValue cfgs = JsonValue::array();
        for (size_t i = 0; i < configs.size(); i += configs.size() / 9) {
            spread.push_back(configs[i]);
            cfgs.push(configToJson(configs[i]));
        }
        spread.push_back(configs.back());
        cfgs.push(configToJson(configs.back()));

        JsonValue req = request("evaluate");
        req.set("kernel", JsonValue(kernel.id()));
        req.set("iteration", JsonValue(1));
        req.set("device", JsonValue(name));
        req.set("configs", std::move(cfgs));
        const JsonValue resp = roundTrip(service, req);
        ASSERT_TRUE(isOk(resp)) << resp.dump();
        const JsonValue::Array &rows =
            resp.find("result")->find("results")->asArray();
        ASSERT_EQ(rows.size(), spread.size());
        for (size_t i = 0; i < spread.size(); ++i) {
            const KernelResult ref = device.run(kernel, 1, spread[i]);
            auto served = [&](const char *field) {
                return std::bit_cast<uint64_t>(
                    rows[i].find(field)->asDouble());
            };
            auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
            const std::string where = name + " " + spread[i].str();
            EXPECT_EQ(served("time_s"), bits(ref.time())) << where;
            EXPECT_EQ(served("power_w"), bits(ref.power.total())) << where;
            EXPECT_EQ(served("card_energy_j"), bits(ref.cardEnergy))
                << where;
            EXPECT_EQ(served("gpu_energy_j"), bits(ref.gpuEnergy)) << where;
            EXPECT_EQ(served("mem_energy_j"), bits(ref.memEnergy)) << where;
            EXPECT_EQ(served("ed2"), bits(ref.ed2())) << where;
        }
    }
}

TEST(ServeDevice, NoCacheEvaluatesBypassThePointStore)
{
    // --no-cache isolates batching: evaluates neither read nor fill
    // the point store, even when a sweep already holds the lattice.
    ServiceOptions opt;
    opt.cache = false;
    Service service(opt);
    JsonValue sweep = request("sweep");
    sweep.set("kernel", JsonValue(firstKernelId()));
    ASSERT_TRUE(isOk(roundTrip(service, sweep)));

    JsonValue evaluate = request("evaluate");
    evaluate.set("kernel", JsonValue(firstKernelId()));
    evaluate.set("configs", JsonValue("all"));
    ASSERT_TRUE(isOk(roundTrip(service, evaluate)));
    JsonValue other = evaluate;
    other.set("iteration", JsonValue(1));
    ASSERT_TRUE(isOk(roundTrip(service, other)));

    const JsonValue stats = roundTrip(service, request("stats"));
    const JsonValue *result = stats.find("result");
    ASSERT_NE(result, nullptr) << stats.dump();
    EXPECT_EQ(result->find("sweep_cache")->find("entries")->asInt(), 1);
    EXPECT_EQ(result->find("sweep_cache")->find("hits")->asInt(), 0);
    EXPECT_EQ(result->find("metrics")
                  ->find("batching")
                  ->find("points_computed")
                  ->asInt(),
              2 * 448);
}

TEST(ServeDevice, DefaultDeviceOptionRebasesDevicelessRequests)
{
    ServiceOptions opt;
    opt.defaultDevice = "hbm-stacked"; // harmoniad --device
    Service service(opt);
    EXPECT_EQ(service.device().name(), "hbm-stacked");

    JsonValue req = request("evaluate");
    req.set("kernel", JsonValue(firstKernelId()));
    req.set("configs", JsonValue("all"));
    const JsonValue resp = roundTrip(service, req);
    ASSERT_TRUE(isOk(resp)) << resp.dump();
    // Device-less request -> no device echo, but the stacked lattice.
    EXPECT_EQ(resp.find("result")->find("device"), nullptr);
    EXPECT_EQ(resp.find("result")->find("points")->asInt(), 512);

    // An unknown default is a construction-time configuration error.
    ServiceOptions bad;
    bad.defaultDevice = "gtx480";
    EXPECT_THROW(Service{bad}, ConfigError);
}

TEST(ServeDevice, ExplicitDefaultNameKeepsResponsesByteIdentical)
{
    // `--device hd7970` must be indistinguishable from no flag at
    // all, response bytes included.
    ServiceOptions named;
    named.defaultDevice = "hd7970";
    Service a{ServiceOptions{}};
    Service b{named};

    std::vector<std::string> lines;
    JsonValue eval = request("evaluate");
    eval.set("kernel", JsonValue(firstKernelId()));
    eval.set("configs", JsonValue("all"));
    lines.push_back(eval.dump());
    JsonValue sweep = request("sweep");
    sweep.set("kernel", JsonValue(firstKernelId()));
    sweep.set("top", JsonValue(3));
    lines.push_back(sweep.dump());

    EXPECT_EQ(a.processBatch(lines), b.processBatch(lines));
}

} // namespace
