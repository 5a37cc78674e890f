#include "trace.hh"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace perfbench
{

int32_t
Tracer::begin(std::string_view name, uint64_t request)
{
    const int32_t id = record(name, nowNs(), 0, current_, request);
    current_ = id;
    return id;
}

void
Tracer::end(int32_t id)
{
    if (id != current_)
        throw std::logic_error("Tracer::end: span closed out of order");
    Span &span = spans_[static_cast<size_t>(id)];
    span.endNs = nowNs();
    current_ = span.parent;
}

int32_t
Tracer::record(std::string_view name, int64_t startNs, int64_t endNs,
               int32_t parent, uint64_t request)
{
    spans_.push_back(Span{intern(name), startNs, endNs, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
}

std::string_view
Tracer::intern(std::string_view name)
{
    auto it = names_.find(name);
    if (it == names_.end())
        it = names_.emplace(name).first;
    return *it;
}

std::vector<int64_t>
Tracer::selfTimes() const
{
    std::vector<std::vector<int32_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0)
            children[static_cast<size_t>(spans_[i].parent)].push_back(
                static_cast<int32_t>(i));
    }
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (const int32_t c : children[i]) {
            const Span &cs = spans_[static_cast<size_t>(c)];
            const int64_t a = std::max(cs.startNs, s.startNs);
            const int64_t b = std::min(cs.endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, curA = 0, curB = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= curB) {
                curB = std::max(curB, b);
                continue;
            }
            if (open)
                covered += curB - curA;
            curA = a;
            curB = b;
            open = true;
        }
        if (open)
            covered += curB - curA;
        self[i] = s.durationNs() - covered;
    }
    return self;
}

std::string
Tracer::validate() const
{
    if (current_ != -1)
        return "span '" +
               std::string(spans_[static_cast<size_t>(current_)].name) +
               "' left open";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string where =
            "span " + std::to_string(i) + " '" + std::string(s.name) + "'";
        if (s.endNs < s.startNs)
            return where + " ends before it starts";
        if (s.parent < -1 || s.parent >= static_cast<int32_t>(i))
            return where + " has a parent recorded after it";
        if (s.parent >= 0) {
            const Span &p = spans_[static_cast<size_t>(s.parent)];
            if (s.startNs < p.startNs || s.endNs > p.endNs)
                return where + " lies outside its parent '" +
                       std::string(p.name) + "'";
        }
    }
    return "";
}

void
Tracer::writeJson(std::ostream &out) const
{
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << '}'
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

int64_t
totalNs(const Tracer &tracer, std::string_view name)
{
    int64_t sum = 0;
    for (const Span &s : tracer.spans())
        if (s.name == name)
            sum += s.durationNs();
    return sum;
}

int64_t
selfNs(const Tracer &tracer, const std::vector<int64_t> &self,
       std::string_view name)
{
    int64_t sum = 0;
    for (size_t i = 0; i < tracer.spans().size(); ++i)
        if (tracer.spans()[i].name == name)
            sum += self[i];
    return sum;
}

size_t
spanCount(const Tracer &tracer, std::string_view name)
{
    return static_cast<size_t>(std::count_if(
        tracer.spans().begin(), tracer.spans().end(),
        [&](const Span &s) { return s.name == name; }));
}

} // namespace perfbench
