#include "harmonia/timing/kernel_profile.hh"

#include <cstring>

#include "harmonia/common/error.hh"

namespace harmonia
{

void
KernelPhase::validate() const
{
    fatalIf(workItems <= 0.0, "KernelPhase: workItems must be positive");
    fatalIf(aluInstsPerItem < 0.0 || fetchInstsPerItem < 0.0 ||
                writeInstsPerItem < 0.0,
            "KernelPhase: negative instruction count");
    fatalIf(aluInstsPerItem + fetchInstsPerItem + writeInstsPerItem <=
                0.0,
            "KernelPhase: kernel executes no instructions");
    fatalIf(branchDivergence < 0.0 || branchDivergence >= 1.0,
            "KernelPhase: branchDivergence must be in [0, 1), got ",
            branchDivergence);
    fatalIf(divergenceSerialization < 0.0,
            "KernelPhase: negative divergenceSerialization");
    fatalIf(coalescing <= 0.0 || coalescing > 1.0,
            "KernelPhase: coalescing must be in (0, 1], got ",
            coalescing);
    fatalIf(l2HitBase < 0.0 || l2HitBase > 1.0,
            "KernelPhase: l2HitBase must be in [0, 1], got ", l2HitBase);
    fatalIf(l2FootprintPerCuBytes < 0.0,
            "KernelPhase: negative L2 footprint");
    fatalIf(rowHitFraction < 0.0 || rowHitFraction > 1.0,
            "KernelPhase: rowHitFraction must be in [0, 1], got ",
            rowHitFraction);
    fatalIf(mlpPerWave < 0.0, "KernelPhase: negative mlpPerWave");
    fatalIf(streamEfficiency <= 0.0 || streamEfficiency > 1.0,
            "KernelPhase: streamEfficiency must be in (0, 1], got ",
            streamEfficiency);
}

KernelPhase
KernelProfile::phase(int iteration) const
{
    fatalIf(iteration < 0, "KernelProfile: negative iteration");
    KernelPhase p = phaseFn ? phaseFn(basePhase, iteration) : basePhase;
    p.validate();
    return p;
}

InvocationKey::InvocationKey(const KernelProfile &profile, int iteration)
    : kernelId(profile.id()), phase(profile.phase(iteration))
{
}

bool
InvocationKey::operator<(const InvocationKey &other) const
{
    if (const int c = kernelId.compare(other.kernelId); c != 0)
        return c < 0;
    return std::memcmp(&phase, &other.phase, sizeof(KernelPhase)) < 0;
}

} // namespace harmonia
