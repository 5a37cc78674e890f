#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

namespace perfbench
{

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<std::vector<double>>
segments(const std::vector<double> &values, const std::vector<double> &at,
         double span)
{
    std::vector<std::vector<double>> slices(kSegments);
    for (size_t i = 0; i < values.size(); ++i) {
        const double slice = std::floor(at[i] / span * kSegments);
        slices[static_cast<size_t>(std::clamp(
                   slice, 0.0, static_cast<double>(kSegments - 1)))]
            .push_back(values[i]);
    }
    std::erase_if(slices,
                  [](const std::vector<double> &s) { return s.empty(); });
    return slices;
}

double
segmentedPercentile(const std::vector<double> &values,
                    const std::vector<double> &at, double span, double p)
{
    std::vector<double> perSlice;
    for (const std::vector<double> &s : segments(values, at, span))
        perSlice.push_back(percentile(s, p));
    return median(perSlice);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

uint64_t
fnv1a(std::string_view data, uint64_t h)
{
    for (const char c : data)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fmt17(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
