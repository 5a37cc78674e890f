#include "harmonia/core/oracle.hh"

#include <limits>
#include <utility>

#include "harmonia/common/error.hh"

namespace harmonia
{

const char *
oracleObjectiveName(OracleObjective objective)
{
    switch (objective) {
      case OracleObjective::MinEd2: return "min-ED2";
      case OracleObjective::MinEnergy: return "min-energy";
      case OracleObjective::MaxPerf: return "max-performance";
      case OracleObjective::MinEd: return "min-ED";
    }
    return "unknown";
}

double
objectiveScore(const PointResult &result, OracleObjective objective)
{
    switch (objective) {
      case OracleObjective::MinEd2: return result.ed2();
      case OracleObjective::MinEnergy: return result.cardEnergy;
      case OracleObjective::MaxPerf: return result.time();
      case OracleObjective::MinEd: return result.ed();
    }
    panic("objectiveScore: bad objective");
}

size_t
bestConfigIndex(const std::vector<HardwareConfig> &configs,
                const std::vector<PointResult> &results,
                OracleObjective objective)
{
    fatalIf(configs.empty() || results.size() != configs.size(),
            "bestConfigIndex: results do not match configs");
    double best = std::numeric_limits<double>::infinity();
    size_t bestIdx = configs.size() - 1;
    // Near-ties on pure performance resolve toward the *maximum*
    // configuration: a performance-first policy has no reason to give
    // up any hardware resource, which is exactly the naive baseline
    // the paper's Figure 6 contrasts ED^2 against.
    const bool preferBig = objective == OracleObjective::MaxPerf;
    auto size = [&](size_t i) {
        return static_cast<long long>(configs[i].cuCount) *
               configs[i].computeFreqMhz * configs[i].memFreqMhz;
    };
    for (size_t i = 0; i < configs.size(); ++i) {
        const double s = objectiveScore(results[i], objective);
        const bool better =
            preferBig ? s < best * (1.0 - 1e-6) : s < best;
        if (better) {
            best = s;
            bestIdx = i;
        } else if (preferBig && s <= best * (1.0 + 1e-6) &&
                   size(i) > size(bestIdx)) {
            bestIdx = i; // Tie: take the larger configuration.
        }
    }
    return bestIdx;
}

HardwareConfig
bestConfigFor(const GpuDevice &device, const KernelProfile &profile,
              int iteration, OracleObjective objective)
{
    const std::vector<HardwareConfig> configs = device.space().allConfigs();
    std::vector<PointResult> results(configs.size());
    device.runLattice(profile, profile.phase(iteration), configs,
                      results.data());
    return configs[bestConfigIndex(configs, results, objective)];
}

OracleGovernor::OracleGovernor(const GpuDevice &device,
                               OracleObjective objective,
                               SweepOptions sweep)
    : sweep_(device, sweep), objective_(objective),
      results_(sweep_.configs().size())
{
}

std::string
OracleGovernor::name() const
{
    return std::string("Oracle(") + oracleObjectiveName(objective_) + ")";
}

HardwareConfig
OracleGovernor::decide(const KernelProfile &profile, int iteration)
{
    InvocationKey key(profile, iteration);
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;
    ++searches_;
    const auto &configs = sweep_.configs();
    sweep_.device().runLattice(profile, key.phase, configs,
                               results_.data(), &sweep_.pool());
    const HardwareConfig best =
        configs[bestConfigIndex(configs, results_, objective_)];
    cache_.emplace(std::move(key), best);
    return best;
}

} // namespace harmonia
