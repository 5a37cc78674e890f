/**
 * @file
 * The traced run: every per-layer metric of the sim, timing, core and
 * serve modules, timed from the benchmark's own code around calls into
 * their public functions, plus the tracing overhead and the span
 * coverage self-check. See perfbench/README.md for the metric map.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include "common.hh"

namespace perfbench
{

/** Traced run; the spans go to opts.traceDir when it is set. */
Report runTraced(const RunOptions &opts);

/** Lowest share of a traced campaign pass its layers must account for. */
constexpr double kMinCoverage = 0.95;

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
