/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded around calls into the library's public functions
 * from the benchmark's own code; nothing inside the library is
 * instrumented. A span has a name, start and end stamps, the index of
 * the span that caused it, and an optional request id shared by every
 * span of one served request. Spans stay in memory until the run ends
 * and are then written out as JSON.
 *
 * A Tracer is single-threaded: nesting follows begin/end order on the
 * calling thread. Timestamps taken on other threads enter through
 * record().
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Monotonic clock in nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string_view name; ///< Interned by the recording Tracer.
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;  ///< Index of the causing span; -1 for a root.
    uint64_t request = 0; ///< Request id; 0 when not request-scoped.

    int64_t durationNs() const { return endNs - startNs; }
};

class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span as a child of the innermost open span. */
    int32_t begin(std::string_view name, uint64_t request = 0);

    /** Close span @p id (must be the innermost open span). */
    void end(int32_t id);

    /** Add a finished span measured elsewhere. */
    int32_t record(std::string_view name, int64_t startNs, int64_t endNs,
                   int32_t parent, uint64_t request = 0);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span: its duration minus the part of its
     * interval that its children cover.
     */
    std::vector<int64_t> selfTimes() const;

    /**
     * Empty when the spans form a well-formed tree: every parent was
     * recorded before its child, every span ends after it starts and
     * lies inside its parent's interval, and no span is left open.
     * Otherwise a description of the first violation.
     */
    std::string validate() const;

    /** All spans as one JSON array. */
    void writeJson(std::ostream &out) const;

  private:
    std::string_view intern(std::string_view name);

    std::set<std::string, std::less<>> names_; ///< Stable span names.
    std::vector<Span> spans_;
    int32_t current_ = -1;
};

/** RAII span on a tracer; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, std::string_view name, uint64_t request = 0)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(name, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int32_t id_;
};

/** Sum of span durations (ns) by name. */
int64_t totalNs(const Tracer &tracer, std::string_view name);

/** Sum of self times (ns) by name. */
int64_t selfNs(const Tracer &tracer, const std::vector<int64_t> &self,
               std::string_view name);

/** Number of spans with @p name. */
size_t spanCount(const Tracer &tracer, std::string_view name);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
