/**
 * @file
 * Parallel design-space sweep engine and the per-device point store.
 *
 * Every paper artifact replays kernels across the 8x8x7 = 448-point
 * tunable space: the ED^2 oracle (Section 6), the sensitivity
 * ground-truth sweeps (Section 4.1), predictor training, and the
 * Figure 10-18 campaign. ConfigSweep owns that enumeration in exactly
 * one place (the canonical mem-major order of
 * ConfigSpace::allConfigs()) and evaluates a kernel invocation at
 * every point with a ThreadPool.
 *
 * It is also the device's one store of evaluated points: a lattice
 * per (kernel id, phase bytes) InvocationKey, each slot absent,
 * computed, or restored from a durable snapshot. Every iteration of a
 * phase-invariant kernel therefore shares one lattice. A slot keeps
 * the five served numbers of its point (PointResult: time, power and
 * three energies), 40 bytes instead of a 328-byte KernelResult.
 * evaluate() fills the whole lattice, fill() just the slots a request
 * names, and seed() inserts restored points, so the serving daemon's
 * `sweep` and `evaluate` verbs, the cross-device exhibit and the
 * design-space example share the points. Each lattice remembers the
 * smallest iteration that reached it, and the snapshot writer walks
 * them in (kernel id, that iteration) order (forEachEntry). Fills run
 * GpuDevice::runLattice's PointResult sink: a whole-lattice fill
 * writes straight into the store, a subset fill through a scratch of
 * its missing points. OracleGovernor, which keeps only an argmin, and
 * ModelChecker, which needs whole KernelResults, use only the
 * enumeration and the pool and never fill the store.
 *
 * Determinism: the device model is const and purely functional, each
 * configuration's result is written to its own pre-assigned slot, a
 * stored slot is never rewritten, and any randomness a sweep consumer
 * needs must come from sweepSubstream(seed, taskIndex), whose stream
 * depends only on the task index — never on which worker ran the task
 * or in what order. Parallel sweeps are therefore bit-identical to
 * serial ones, however their fills interleave
 * (tests/test_sweep_determinism.cpp).
 */

#ifndef HARMONIA_CORE_SWEEP_HH
#define HARMONIA_CORE_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harmonia/common/rng.hh"
#include "harmonia/common/thread_pool.hh"
#include "harmonia/sim/gpu_device.hh"
#include "harmonia/timing/kernel_profile.hh"

namespace harmonia
{

/** Options shared by all sweep-driven layers. */
struct SweepOptions
{
    /** Worker threads (incl. the caller); 1 = strictly serial. */
    int jobs = 1;
};

/**
 * Deterministic per-task RNG substream: the generator for task
 * @p taskIndex depends only on (@p baseSeed, @p taskIndex). Tasks may
 * be executed by any worker in any order and still draw identical
 * variates, which is what keeps randomized workloads reproducible
 * under parallel sweeps. Streams are decorrelated by running the
 * task index through an extra splitmix64 round before seeding.
 */
Rng sweepSubstream(uint64_t baseSeed, uint64_t taskIndex);

/**
 * The design-space sweep engine: canonical enumeration + parallel,
 * stored evaluation of one kernel invocation across the lattice.
 */
class ConfigSweep
{
  public:
    /** Where a stored lattice point came from. */
    enum class Slot : uint8_t
    {
        Absent,
        Computed, ///< Evaluated by this process.
        Restored, ///< Inserted by seed() from a durable snapshot.
    };

    /** One (kernel, phase)'s lattice: results[i] and slots[i]
     * belong to configs()[i]; results of absent slots are
     * value-initialized placeholders. Each point keeps only its
     * served numbers (PointResult), not the whole KernelResult. */
    struct Lattice
    {
        explicit Lattice(size_t points)
            : results(points), slots(points, Slot::Absent)
        {
        }

        std::vector<PointResult> results;
        std::vector<Slot> slots;
    };

    /** How one fill served its requested slots (repeats included). */
    struct FillCounts
    {
        size_t computed = 0; ///< Absent slots evaluated by this fill.
        size_t cached = 0;   ///< Served from earlier computed points.
        size_t restored = 0; ///< Served from seeded snapshot points.
    };

    explicit ConfigSweep(const GpuDevice &device,
                         SweepOptions options = {});

    const GpuDevice &device() const { return device_; }
    const SweepOptions &options() const { return options_; }

    /**
     * The canonical enumeration of the design space (mem-major, 448
     * points on the HD7970 lattice). Index i of every evaluate()
     * result corresponds to configs()[i].
     */
    const std::vector<HardwareConfig> &configs() const
    {
        return configs_;
    }

    /** Position of @p cfg in configs(); @throws when off-lattice. */
    size_t indexOf(const HardwareConfig &cfg) const;

    /**
     * Evaluate @p profile's iteration @p iteration at every
     * configuration, in parallel, filling only the slots the store
     * does not hold yet for its InvocationKey; a lattice with none
     * stored takes one canonical-order runLattice. The returned
     * reference stays valid until clearCache().
     */
    const std::vector<PointResult> &evaluate(const KernelProfile &profile,
                                             int iteration) const;

    /**
     * The slot-subset evaluate(): compute whichever of @p slots
     * (configs() indices, repeats allowed) are absent in one
     * runLattice and store them. Only those slots of the returned
     * lattice-sized vector are guaranteed filled. A fill that
     * computes nothing is a cache hit, any other a miss.
     */
    const std::vector<PointResult> &
    fill(const KernelProfile &profile, int iteration,
         const std::vector<size_t> &slots,
         FillCounts *counts = nullptr) const;

    /** fill() against a caller-owned @p lattice instead of the store
     * (which it neither reads nor counts in). */
    FillCounts fillInto(const KernelProfile &profile, int iteration,
                        const std::vector<size_t> &slots,
                        Lattice &lattice) const;

    /** Insert restored points of @p profile's iteration
     * @p iteration: results[i] at configs() index slots[i], marked
     * Restored. Slots already stored are kept. */
    void seed(const KernelProfile &profile, int iteration,
              const std::vector<uint32_t> &slots,
              const std::vector<PointResult> &results) const;

    /** Visit every stored lattice in (kernel id, iteration) order,
     * where iteration is the smallest one that reached the lattice.
     * The store stays locked for the walk, so each lattice is seen
     * whole: @p visit must not call back into this sweep. */
    void forEachEntry(
        const std::function<void(const std::string &kernelId,
                                 int iteration, const Lattice &)>
            &visit) const;

    /** The pool driving this sweep (shared with cooperating layers). */
    ThreadPool &pool() const { return *pool_; }

    /** Store statistics: evaluate()/fill() calls served entirely from
     * stored points (hits) or computing at least one (misses), and
     * the stored (kernel, phase) lattices. */
    size_t cacheHits() const;
    size_t cacheMisses() const;
    size_t cacheEntries() const;

    /** Drop all stored points (statistics are kept). */
    void clearCache() const;

  private:
    /** A stored lattice and the lock its fills take. */
    struct Entry
    {
        Entry(size_t points, int firstIteration)
            : iteration(firstIteration), lattice(points)
        {
        }

        /** Smallest iteration that reached this lattice (guarded by
         * the store's mutex_, not the entry's). */
        int iteration;
        std::mutex mutex;
        Lattice lattice;
    };

    /** The store entry for @p key, created empty on first touch and
     * told that @p iteration reached it; map nodes never move. */
    Entry &entry(const InvocationKey &key, int iteration) const;

    /** fillInto() of @p phase over @p slots, or every slot when
     * null: the absent ones run in one runLattice of served points,
     * straight into the lattice when every slot was absent, else into
     * a scratch of the missing points copied to their slots. */
    FillCounts fillSlots(const KernelProfile &profile,
                         const KernelPhase &phase,
                         const std::vector<size_t> *slots,
                         Lattice &lattice) const;

    /** fillSlots() on the store entry, under its lock, counted as a
     * hit or a miss. */
    const std::vector<PointResult> &
    fillStored(const KernelProfile &profile, int iteration,
               const std::vector<size_t> *slots,
               FillCounts *counts) const;

    const GpuDevice &device_;
    SweepOptions options_;
    std::vector<HardwareConfig> configs_;
    std::shared_ptr<ThreadPool> pool_;

    // mutex_ guards the map and each entry's iteration; an entry's
    // own mutex serializes the fills of that (kernel, phase), so fills
    // of different keys run concurrently. Hit/miss counters are
    // atomics.
    mutable std::mutex mutex_;
    mutable std::map<InvocationKey, Entry> store_;
    mutable std::atomic<size_t> hits_ = 0;
    mutable std::atomic<size_t> misses_ = 0;
};

} // namespace harmonia

#endif // HARMONIA_CORE_SWEEP_HH
