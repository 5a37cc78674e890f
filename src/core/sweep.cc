#include "harmonia/core/sweep.hh"

#include <algorithm>
#include <utility>

#include "harmonia/common/error.hh"

namespace harmonia
{

namespace
{

uint64_t
splitmix64Once(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Rng
sweepSubstream(uint64_t baseSeed, uint64_t taskIndex)
{
    // Mix the task index through splitmix64 before xor-ing it into the
    // base seed so that consecutive indices land in unrelated streams
    // (adjacent raw seeds would share most of their splitmix
    // trajectory).
    return Rng(baseSeed ^ splitmix64Once(taskIndex));
}

ConfigSweep::ConfigSweep(const GpuDevice &device, SweepOptions options)
    : device_(device), options_(options),
      configs_(device.space().allConfigs()),
      pool_(std::make_shared<ThreadPool>(options.jobs))
{
    fatalIf(configs_.empty(), "ConfigSweep: empty configuration space");
    // Lattice membership is validated once here, for the whole
    // enumeration, instead of once per (invocation, configuration)
    // inside the evaluation loop.
    for (const HardwareConfig &cfg : configs_)
        device_.space().validate(cfg);
}

size_t
ConfigSweep::indexOf(const HardwareConfig &cfg) const
{
    return device_.space().indexOf(cfg);
}

ConfigSweep::Entry &
ConfigSweep::entry(const InvocationKey &key, int iteration) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e =
        store_.try_emplace(key, configs_.size(), iteration).first->second;
    e.iteration = std::min(e.iteration, iteration);
    return e;
}

ConfigSweep::FillCounts
ConfigSweep::fillSlots(const KernelProfile &profile,
                       const KernelPhase &phase,
                       const std::vector<size_t> *slots,
                       Lattice &lattice) const
{
    FillCounts counts;
    std::vector<size_t> missing;
    auto claim = [&](size_t slot) {
        panicIf(slot >= lattice.slots.size(), "ConfigSweep: slot ", slot,
                " outside the ", lattice.slots.size(), "-point lattice");
        switch (lattice.slots[slot]) {
          case Slot::Absent:
            // Claimed now, so a repeat later in the list is cached.
            lattice.slots[slot] = Slot::Computed;
            missing.push_back(slot);
            break;
          case Slot::Computed:
            ++counts.cached;
            break;
          case Slot::Restored:
            ++counts.restored;
            break;
        }
    };
    if (slots) {
        for (const size_t slot : *slots)
            claim(slot);
    } else {
        for (size_t slot = 0; slot < configs_.size(); ++slot)
            claim(slot);
    }
    counts.computed = missing.size();
    if (missing.empty())
        return counts;

    // Each index writes only its own slot, so the result is
    // independent of scheduling and of which fill computed it.
    try {
        if (missing.size() == configs_.size()) {
            // Nothing was stored: one canonical-order lattice run,
            // straight into the records.
            device_.runLattice(profile, phase, configs_,
                               lattice.results.data(), pool_.get());
        } else {
            std::vector<HardwareConfig> configs;
            configs.reserve(missing.size());
            for (const size_t slot : missing)
                configs.push_back(configs_[slot]);
            std::vector<PointResult> computed(missing.size());
            device_.runLattice(profile, phase, configs, computed.data(),
                               pool_.get());
            for (size_t i = 0; i < missing.size(); ++i)
                lattice.results[missing[i]] = computed[i];
        }
    } catch (...) {
        for (const size_t slot : missing) {
            lattice.slots[slot] = Slot::Absent;
            lattice.results[slot] = PointResult{};
        }
        throw;
    }
    return counts;
}

const std::vector<PointResult> &
ConfigSweep::fillStored(const KernelProfile &profile, int iteration,
                        const std::vector<size_t> *slots,
                        FillCounts *counts) const
{
    const InvocationKey key(profile, iteration);
    Entry &e = entry(key, iteration);
    // Held across the lattice run: a concurrent fill of the same key
    // waits for these points instead of recomputing them.
    std::lock_guard<std::mutex> lock(e.mutex);
    const FillCounts filled = fillSlots(profile, key.phase, slots,
                                        e.lattice);
    (filled.computed ? misses_ : hits_)
        .fetch_add(1, std::memory_order_relaxed);
    if (counts)
        *counts = filled;
    return e.lattice.results;
}

const std::vector<PointResult> &
ConfigSweep::evaluate(const KernelProfile &profile, int iteration) const
{
    return fillStored(profile, iteration, nullptr, nullptr);
}

const std::vector<PointResult> &
ConfigSweep::fill(const KernelProfile &profile, int iteration,
                  const std::vector<size_t> &slots,
                  FillCounts *counts) const
{
    return fillStored(profile, iteration, &slots, counts);
}

ConfigSweep::FillCounts
ConfigSweep::fillInto(const KernelProfile &profile, int iteration,
                      const std::vector<size_t> &slots,
                      Lattice &lattice) const
{
    return fillSlots(profile, profile.phase(iteration), &slots, lattice);
}

void
ConfigSweep::seed(const KernelProfile &profile, int iteration,
                  const std::vector<uint32_t> &slots,
                  const std::vector<PointResult> &results) const
{
    panicIf(slots.size() != results.size(),
            "ConfigSweep::seed: slot and result counts differ");
    Entry &e = entry(InvocationKey(profile, iteration), iteration);
    std::lock_guard<std::mutex> lock(e.mutex);
    for (size_t i = 0; i < slots.size(); ++i) {
        const uint32_t slot = slots[i];
        panicIf(slot >= configs_.size(), "ConfigSweep::seed: slot ", slot,
                " outside the ", configs_.size(), "-point lattice");
        if (e.lattice.slots[slot] != Slot::Absent)
            continue;
        e.lattice.results[slot] = results[i];
        e.lattice.slots[slot] = Slot::Restored;
    }
}

void
ConfigSweep::forEachEntry(
    const std::function<void(const std::string &, int, const Lattice &)>
        &visit) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // The map orders a kernel's lattices by phase bytes; the walk
    // orders them by iteration. No two lattices of one kernel share
    // an iteration, since an iteration has exactly one phase.
    std::vector<std::pair<const InvocationKey *, Entry *>> order;
    order.reserve(store_.size());
    for (auto &[key, e] : store_)
        order.emplace_back(&key, &e);
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  if (const int c =
                          a.first->kernelId.compare(b.first->kernelId))
                      return c < 0;
                  return a.second->iteration < b.second->iteration;
              });
    for (const auto &[key, e] : order) {
        std::lock_guard<std::mutex> entryLock(e->mutex);
        visit(key->kernelId, e->iteration, e->lattice);
    }
}

size_t
ConfigSweep::cacheHits() const
{
    return hits_.load(std::memory_order_relaxed);
}

size_t
ConfigSweep::cacheMisses() const
{
    return misses_.load(std::memory_order_relaxed);
}

size_t
ConfigSweep::cacheEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return store_.size();
}

void
ConfigSweep::clearCache() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    store_.clear();
}

} // namespace harmonia
