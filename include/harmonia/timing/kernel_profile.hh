/**
 * @file
 * Kernel workload descriptions.
 *
 * The timing engine does not interpret real machine code; a kernel is
 * characterized by the quantities that determine its response to the
 * three hardware tunables (Section 3.5): instruction mix, register and
 * LDS demands (occupancy), branch divergence, memory coalescing and
 * locality, and memory-level parallelism. A per-iteration phase
 * function lets applications express time-varying behaviour such as
 * Graph500's frontier-dependent instruction counts (Figure 14).
 */

#ifndef HARMONIA_TIMING_KERNEL_PROFILE_HH
#define HARMONIA_TIMING_KERNEL_PROFILE_HH

#include <functional>
#include <string>
#include <type_traits>

#include "harmonia/arch/occupancy.hh"

namespace harmonia
{

/**
 * Dynamic behaviour of one kernel invocation (one iteration).
 * All counts are per work-item unless noted.
 */
struct KernelPhase
{
    /** Total work-items launched this invocation. */
    double workItems = 1 << 20;

    double aluInstsPerItem = 20.0;   ///< Vector ALU instructions.
    double fetchInstsPerItem = 4.0;  ///< Vector memory reads.
    double writeInstsPerItem = 1.0;  ///< Vector memory writes.

    /**
     * Branch divergence in [0, 1): average fraction of inactive lanes
     * per wave. Determines VALUUtilization = 100*(1-divergence) and
     * adds serialized replay work.
     */
    double branchDivergence = 0.0;

    /** Extra issue slots per divergent instruction (replay weight). */
    double divergenceSerialization = 1.0;

    /**
     * Coalescing efficiency in (0, 1]: fraction of each fetched cache
     * line that is useful. 1.0 = perfectly coalesced; small values
     * model memory divergence (pointer chasing) that inflates traffic.
     */
    double coalescing = 1.0;

    /** L2 hit rate in [0, 1] when the working set fits (no thrash). */
    double l2HitBase = 0.3;

    /** L2 footprint contributed by each active CU (bytes). Drives the
     * interference/thrashing model: more CUs -> larger combined
     * footprint -> lower hit rate. */
    double l2FootprintPerCuBytes = 24.0 * 1024.0;

    /** Fraction of DRAM bytes hitting an open row. */
    double rowHitFraction = 0.7;

    /** Outstanding off-chip requests a resident wave sustains. */
    double mlpPerWave = 4.0;

    /** Peak-bandwidth fraction reachable by this access pattern. */
    double streamEfficiency = 0.85;

    /** Validate ranges; @throws ConfigError. */
    void validate() const;
};

// InvocationKey compares phases byte for byte: every field must be a
// double and there must be no padding, so equal bytes mean equal
// model inputs.
static_assert(std::is_trivially_copyable_v<KernelPhase>);
static_assert(sizeof(KernelPhase) == 12 * sizeof(double),
              "KernelPhase must stay twelve unpadded doubles");

/**
 * A kernel: static resources plus a phase function.
 */
struct KernelProfile
{
    std::string app;     ///< Application name, e.g. "Graph500".
    std::string name;    ///< Kernel name, e.g. "BottomStepUp".

    /** Register/LDS/workgroup demands (occupancy inputs). */
    KernelResources resources;

    /** Nominal dynamic behaviour. */
    KernelPhase basePhase;

    /**
     * Optional per-iteration override; receives the base phase and
     * the iteration index (0-based) and returns the phase to run.
     * Defaults to the identity.
     */
    std::function<KernelPhase(const KernelPhase &, int)> phaseFn;

    /** "App.Kernel" identifier used by history and reports. */
    std::string id() const { return app + "." + name; }

    /** Phase for iteration @p iteration (applies phaseFn). */
    KernelPhase phase(int iteration) const;
};

/**
 * What one invocation's model results depend on: the kernel (its id
 * names the static resources) and the exact bytes of its phase. Every
 * iteration of a phase-invariant kernel maps to one key, so caches of
 * lattices and oracle decisions keyed on it share work across
 * iterations. Keys order by (kernelId, memcmp of the phase bytes):
 * byte comparison, not ==, is the contract, so -0.0 and 0.0 are
 * different keys and no two distinct phases collide.
 */
struct InvocationKey
{
    /** The key of @p profile's iteration @p iteration. */
    InvocationKey(const KernelProfile &profile, int iteration);

    std::string kernelId;
    KernelPhase phase;

    bool operator<(const InvocationKey &other) const;
};

} // namespace harmonia

#endif // HARMONIA_TIMING_KERNEL_PROFILE_HH
