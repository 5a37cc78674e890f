/**
 * @file
 * Factored lattice evaluation of one kernel invocation.
 *
 * Design-space sweeps evaluate the same (profile, phase) at all 448
 * points of the tunable lattice. The naive path recomputes everything
 * per point; almost all of it is config-invariant or depends on a
 * single tunable axis. LatticeEvaluator hoists that work once:
 *
 *  - the config-invariant bundle (TimingEngine::prepare): validation,
 *    occupancy, instruction and traffic totals;
 *  - the timing axis tables (TimingEngine::buildAxisTables): L2 hit
 *    rates and in-flight bytes per CU count, L2 bandwidth and
 *    crossing caps per compute frequency, ALU issue times per (CU,
 *    freq), peak bus bandwidth per memory frequency, and the
 *    bandwidth lattice as two small planes — supply ceilings per
 *    (memory, compute frequency) and concurrency fixed points per
 *    (memory frequency, CU count) — which the combine joins per lane
 *    with one vector select;
 *  - GPU power factors and DPM-state idle power per (CU count,
 *    compute frequency) — 64 voltage lookups and pow() calls instead
 *    of 448;
 *  - GDDR5 power factors and idle memory power per memory frequency.
 *
 * The hoisted tables are stored as structure-of-arrays planes (one
 * contiguous double array per model component) rather than arrays of
 * structs, so the batched combine (evaluateBatchAtInto()) can stream
 * each component with vector loads. It gathers lane inputs from the
 * planes and evaluates TimingEngine::combine() and
 * GpuDevice::composeResult() as vertical vector ops
 * (src/common/simd.hh), op-for-op mirroring the scalar expression
 * trees — no reassociation anywhere — so every lane is bitwise
 * identical to the naive GpuDevice::run() reference (pinned by
 * tests/test_simd_equivalence.cpp and tests/test_factored_engine.cpp;
 * contract in docs/MODEL.md §9).
 *
 * The combine has two sinks, chosen at compile time: whole
 * KernelResults, or PointResults (time, total power, three energies)
 * for callers that read nothing else. The gather and the vector
 * passes are shared; only the final scatter differs, and both sinks
 * run the same per-lane validation.
 */

#ifndef HARMONIA_SIM_LATTICE_EVALUATOR_HH
#define HARMONIA_SIM_LATTICE_EVALUATOR_HH

#include <cstddef>
#include <vector>

#include "harmonia/sim/gpu_device.hh"

namespace harmonia
{

/**
 * One (profile, phase) invocation, prepared for repeated evaluation
 * across the configuration lattice. Holds a reference to the device;
 * the device must outlive the evaluator.
 */
class LatticeEvaluator
{
  public:
    /** Lane-block size of the batched path: evaluateBatchAtInto()
     * processes at most this many configs per call, so batch drivers
     * chunk at this size and get good parallel grain from it. */
    static constexpr size_t kBatchChunk = 64;

    /** Hoist all config-invariant and axis-separable work for
     * (@p profile, @p phase). */
    LatticeEvaluator(const GpuDevice &device, const KernelProfile &profile,
                     const KernelPhase &phase);

    const GpuDevice &device() const { return device_; }

    /** The config-invariant bundle. */
    const PreparedKernel &prepared() const { return prep_; }

    /** The timing-side axis tables. */
    const TimingAxisTables &timingTables() const { return timing_; }

    /**
     * Batched combine of one lane block (@p n <= kBatchChunk): lane i
     * evaluates the lattice point (@p cuIdx[i], @p cfIdx[i],
     * @p memIdx[i]) into @p out[i]. Lanes are independent — any
     * subset, duplicates, or a single point are all fine. Indices must
     * be in range (unchecked).
     *
     * @p Out, KernelResult or PointResult, is chosen at compile time
     * and changes only the final scatter: a KernelResult lane is
     * bitwise identical to device().run() at that configuration, and
     * a PointResult lane to device().run(...).point(). Both sinks run
     * the same per-lane validation.
     */
    template <typename Out>
    void evaluateBatchAtInto(const size_t *cuIdx, const size_t *cfIdx,
                             const size_t *memIdx, size_t n,
                             Out *out) const;

  private:
    const GpuDevice &device_;
    PreparedKernel prep_;
    TimingAxisTables timing_;

    // (CU count, compute frequency) plane, row-major in CU count —
    // GpuPowerFactors and the DPM-state idle GpuPowerBreakdown split
    // into one plane per component.
    std::vector<double> gpuCuDynPrefix_;
    std::vector<double> gpuUncoreDynPrefix_;
    std::vector<double> gpuLeakage_;
    std::vector<double> idleGpuCuDynamic_;
    std::vector<double> idleGpuUncoreDynamic_;
    std::vector<double> idleGpuLeakage_;
    std::vector<double> idleGpuTotal_; ///< idle GpuPowerBreakdown::total().

    // Memory-frequency axis — Gddr5PowerFactors and the idle
    // MemPowerBreakdown, one plane per component.
    std::vector<double> memFRatio_;
    std::vector<double> memLowFreqScale_;
    std::vector<double> memVScale_;
    std::vector<double> memBackground_;
    std::vector<double> idleMemBackground_;
    std::vector<double> idleMemActivatePrecharge_;
    std::vector<double> idleMemReadWrite_;
    std::vector<double> idleMemTermination_;
    std::vector<double> idleMemPhy_;
    std::vector<double> idleMemTotal_; ///< idle MemPowerBreakdown::total().
};

} // namespace harmonia

#endif // HARMONIA_SIM_LATTICE_EVALUATOR_HH
