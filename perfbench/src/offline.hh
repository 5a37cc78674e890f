/**
 * @file
 * The offline workloads: the Fig. 10-13 campaign on hd7970 and the
 * baseline + MinEd2 oracle pass on ampere-ga100, each in an untraced
 * form (the user's own call path) and a traced form rebuilt from the
 * same public calls with spans around every layer.
 */

#ifndef PERFBENCH_OFFLINE_HH
#define PERFBENCH_OFFLINE_HH

#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "harmonia/core/governor.hh"
#include "harmonia/sim/gpu_device.hh"
#include "harmonia/workloads/app.hh"
#include "trace.hh"

namespace perfbench
{

/** Registry names of the campaign's schemes, in Campaign order. */
extern const std::vector<std::string> kCampaignSchemes;

/** Worker threads of the oracle pass's sweep. */
constexpr int kOracleJobs = 4;

/** Per-(scheme, app) normalized ED^2 of one campaign pass. */
struct CampaignTable
{
    std::map<std::string, double> ed2; ///< "scheme,app" -> value.
    double harmoniaGainPct = 0.0; ///< 100 * (1 - geomean ED^2).
    double oracleGainPct = 0.0;
};

/** Standard suite in an order drawn from @p seed. */
std::vector<harmonia::Application> seededSuite(uint64_t seed);

/** One campaign pass through harmonia::Campaign (jobs = 1). */
CampaignTable campaignPass(const harmonia::GpuDevice &device,
                           const std::vector<harmonia::Application> &suite);

/**
 * The same pass rebuilt from trainPredictors, makeGovernor and
 * Runtime::run, with spans "core.training", "core.governor.make",
 * "core.runtime.<scheme>" and, through a forwarding governor,
 * "core.governor.{decide,observe}.<scheme>" under a root span
 * "campaign.pass".
 */
CampaignTable
tracedCampaignPass(const harmonia::GpuDevice &device,
                   const std::vector<harmonia::Application> &suite,
                   Tracer &tracer);

/** Empty when @p table matches the stored full-suite reference. */
std::string checkCampaign(const CampaignTable &table,
                          const std::string &root);

/**
 * Empty when a campaign on the golden subset (MaxFlops, CoMD, BPT,
 * Graph500) reproduces tests/golden/campaign_fig10_13.csv.
 */
std::string checkGoldenSubset(const harmonia::GpuDevice &device,
                              const std::string &root);

/**
 * One oracle_ga100 pass: a fresh baseline governor and a fresh MinEd2
 * OracleGovernor (sweep jobs = kOracleJobs) over @p suite. Returns the
 * results digest. With a tracer, spans "core.runtime.<g>_ga100" and
 * "core.governor.{decide,observe}.<g>_ga100" for g in {baseline,
 * oracle} sit under a root "oracle.pass", and the oracle's sweep
 * cache counters are returned through @p sweepHits / @p sweepMisses.
 */
std::string oraclePass(const harmonia::GpuDevice &device,
                       const std::vector<harmonia::Application> &suite,
                       Tracer *tracer = nullptr, size_t *sweepHits = nullptr,
                       size_t *sweepMisses = nullptr);

/** Empty when @p digest equals the stored oracle_ga100 reference. */
std::string checkOracleDigest(const std::string &digest,
                              const std::string &root);

/** Reference file text for --emit-reference. */
std::string campaignReferenceText(const CampaignTable &table);

Report runCampaignWorkload(const RunOptions &opts);
Report runOracleWorkload(const RunOptions &opts);

/**
 * Forwards every call to an inner governor and records decide() and
 * observe() as spans.
 */
class TimedGovernor final : public harmonia::Governor
{
  public:
    TimedGovernor(harmonia::Governor &inner, Tracer &tracer,
                  const std::string &suffix)
        : inner_(inner), tracer_(tracer),
          decide_("core.governor.decide." + suffix),
          observe_("core.governor.observe." + suffix)
    {
    }

    std::string name() const override { return inner_.name(); }

    harmonia::HardwareConfig decide(const harmonia::KernelProfile &profile,
                                    int iteration) override
    {
        ScopedSpan span(&tracer_, decide_);
        return inner_.decide(profile, iteration);
    }

    void observe(const harmonia::KernelSample &sample) override
    {
        ScopedSpan span(&tracer_, observe_);
        inner_.observe(sample);
    }

    void reset() override { inner_.reset(); }

  private:
    harmonia::Governor &inner_;
    Tracer &tracer_;
    std::string decide_;
    std::string observe_;
};

} // namespace perfbench

#endif // PERFBENCH_OFFLINE_HH
