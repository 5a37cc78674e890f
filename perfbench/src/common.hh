/**
 * @file
 * Shared vocabulary of the benchmark: run options, the metric report,
 * order statistics, the seeded input generator, and small helpers.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = "."; ///< Checkout root (reference files).
    std::string traceDir;   ///< Where a traced run writes its spans.
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0; ///< Observations behind the value.
};

/** Everything one run reports. */
struct Report
{
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems; ///< Failed output checks.
    std::vector<std::string> notes;    ///< Printed, not gated.

    void add(std::string name, double value, std::string unit,
             size_t samples)
    {
        metrics.push_back(
            Metric{std::move(name), value, std::move(unit), samples});
    }

    /** Record one checked operation; @p problem empty means it passed. */
    void check(const std::string &problem)
    {
        ++attempted;
        if (!problem.empty()) {
            ++failed;
            if (problems.size() < 20)
                problems.push_back(problem);
        }
    }

    bool correct() const { return failed == 0; }
};

/** Percentile @p p in [0, 100] with linear interpolation. */
double percentile(std::vector<double> values, double p);

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

/** Time slices a measured phase is cut into for segmented figures. */
constexpr int kSegments = 5;

/**
 * @p values (observed at @p at, same length) grouped into kSegments
 * equal time slices of [0, @p span); empty slices are dropped.
 * Figures taken per slice and then their median let a burst of
 * interference on a shared host spoil one slice, not the figure.
 */
std::vector<std::vector<double>>
segments(const std::vector<double> &values, const std::vector<double> &at,
         double span);

/** Median over segments() of the per-slice @p p percentile. */
double segmentedPercentile(const std::vector<double> &values,
                           const std::vector<double> &at, double span,
                           double p);

/** Peak resident set size of this process, MiB. */
double peakRssMib();

/** 64-bit FNV-1a over @p data, continuing from @p h. */
uint64_t fnv1a(std::string_view data,
               uint64_t h = 0xcbf29ce484222325ull);

/** Hex string of a 64-bit value. */
std::string hex64(uint64_t v);

/** %.17g formatting. */
std::string fmt17(double v);

/**
 * The benchmark's own seeded generator (splitmix64), so that a seed
 * gives byte-identical inputs on every platform and library version.
 */
class SeededRng
{
  public:
    explicit SeededRng(uint64_t seed) : state_(seed) {}

    uint64_t next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

    /** Uniform double in [0, 1). */
    double unit() { return (next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t state_;
};

/** Fisher-Yates shuffle driven by @p rng. */
template <typename T>
void
shuffle(std::vector<T> &items, SeededRng &rng)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
