/**
 * @file
 * In-memory span recorder with self-time aggregation.
 */

#include <algorithm>
#include <atomic>
#include <fstream>

#include "bench.hh"
#include "obs/host_telemetry.hh"
#include "obs/json.hh"

namespace perfbench
{

namespace
{

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<long> openSpans;

unsigned
threadId()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned id = next.fetch_add(1);
    return id;
}

} // namespace

Tracer::Scope
Tracer::span(const char *name, long point)
{
    if (!active)
        return Scope(nullptr, -1);
    long parent = openSpans.empty() ? -1 : openSpans.back();
    long index;
    {
        std::lock_guard<std::mutex> guard(lock);
        index = static_cast<long>(spans.size());
        spans.push_back({name, salam::obs::hostNowNs(), 0, parent,
                         point, threadId()});
    }
    openSpans.push_back(index);
    return Scope(this, index);
}

Tracer::Scope::~Scope()
{
    if (tracer == nullptr)
        return;
    std::uint64_t now = salam::obs::hostNowNs();
    openSpans.pop_back();
    std::lock_guard<std::mutex> guard(tracer->lock);
    tracer->spans[static_cast<std::size_t>(index)].endNs = now;
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> guard(lock);
    // Children of one span run on its thread, one after another, so
    // the part of the parent's interval they cover is the sum of
    // their durations.
    std::vector<std::uint64_t> childNs(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::uint64_t total = s.endNs - s.startNs;
        Totals &t = out[s.name];
        ++t.count;
        t.totalNs += total;
        t.selfNs += total - std::min(total, childNs[i]);
    }
    return out;
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    std::lock_guard<std::mutex> guard(lock);
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << "{\"id\":" << i << ",\"name\":\""
           << salam::obs::jsonEscape(s.name)
           << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
           << ",\"point\":" << s.point << ",\"thread\":" << s.thread
           << "}\n";
    }
    return static_cast<bool>(os);
}

} // namespace perfbench
