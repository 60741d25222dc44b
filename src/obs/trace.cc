/**
 * @file
 * Trace sink, thread binding, and waterfall rendering.
 */

#include "obs/trace.hh"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <sstream>

namespace photofourier {
namespace obs {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

TraceSink &
TraceSink::global()
{
    static TraceSink sink;
    return sink;
}

namespace {

struct ThreadTraceState
{
    uint64_t trace_id = 0;
    TraceSink *sink = nullptr;
    uint32_t depth = 0;
};

thread_local ThreadTraceState tls_trace;

} // namespace

uint64_t
activeTrace()
{
    return tls_trace.trace_id;
}

TraceSink &
activeSink()
{
    return tls_trace.sink != nullptr ? *tls_trace.sink : TraceSink::global();
}

TraceBinding::TraceBinding(uint64_t trace_id, TraceSink *sink)
    : prev_id_(tls_trace.trace_id), prev_sink_(tls_trace.sink),
      prev_depth_(tls_trace.depth)
{
    tls_trace.trace_id = trace_id;
    if (sink != nullptr)
        tls_trace.sink = sink;
    tls_trace.depth = 0;
}

TraceBinding::~TraceBinding()
{
    tls_trace.trace_id = prev_id_;
    tls_trace.sink = prev_sink_;
    tls_trace.depth = prev_depth_;
}

ScopedSpan::ScopedSpan(const char *name)
    : name_(name), active_(tls_trace.trace_id != 0)
{
    if (active_) {
        ++tls_trace.depth;
        start_ns_ = nowNs();
    }
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    SpanRecord rec;
    rec.trace_id = tls_trace.trace_id;
    rec.name = name_;
    rec.depth = tls_trace.depth;
    rec.start_ns = start_ns_;
    rec.duration_ns = nowNs() - start_ns_;
    --tls_trace.depth;
    activeSink().record(rec);
}

void
recordSpan(uint64_t trace_id, const char *name, uint32_t depth,
           uint64_t start_ns, uint64_t duration_ns, TraceSink *sink)
{
    SpanRecord rec;
    rec.trace_id = trace_id;
    rec.name = name;
    rec.depth = depth;
    rec.start_ns = start_ns;
    rec.duration_ns = duration_ns;
    (sink != nullptr ? *sink : TraceSink::global()).record(rec);
}

namespace {

struct Trace
{
    uint64_t id = 0;
    std::vector<const Span *> spans;
    uint64_t begin_ns = 0;
    uint64_t end_ns = 0;

    uint64_t extent() const { return end_ns - begin_ns; }
};

} // namespace

std::string
renderWaterfall(const std::vector<Span> &spans,
                const WaterfallOptions &options)
{
    std::map<uint64_t, Trace> by_id;
    for (const Span &span : spans) {
        Trace &t = by_id[span.trace_id];
        if (t.spans.empty()) {
            t.id = span.trace_id;
            t.begin_ns = span.start_ns;
            t.end_ns = span.start_ns + span.duration_ns;
        } else {
            t.begin_ns = std::min(t.begin_ns, span.start_ns);
            t.end_ns = std::max(t.end_ns, span.start_ns + span.duration_ns);
        }
        t.spans.push_back(&span);
    }

    std::vector<Trace *> traces;
    traces.reserve(by_id.size());
    for (auto &entry : by_id)
        traces.push_back(&entry.second);
    std::sort(traces.begin(), traces.end(), [](Trace *a, Trace *b) {
        if (a->extent() != b->extent())
            return a->extent() > b->extent();
        return a->id < b->id;
    });
    if (traces.size() > options.top_n)
        traces.resize(options.top_n);

    std::ostringstream out;
    for (Trace *t : traces) {
        std::stable_sort(t->spans.begin(), t->spans.end(),
                         [](const Span *a, const Span *b) {
                             if (a->start_ns != b->start_ns)
                                 return a->start_ns < b->start_ns;
                             return a->depth < b->depth;
                         });
        out << "trace " << std::hex << std::setw(16)
            << std::setfill('0') << t->id << std::dec
            << std::setfill(' ') << " — "
            << static_cast<double>(t->extent()) * options.scale << " "
            << options.unit << " total, " << t->spans.size() << " span"
            << (t->spans.size() == 1 ? "" : "s") << "\n";
        uint64_t extent = t->extent() == 0 ? 1 : t->extent();
        for (const Span *span : t->spans) {
            size_t begin =
                static_cast<size_t>(static_cast<double>(
                    span->start_ns - t->begin_ns) /
                    static_cast<double>(extent) *
                    static_cast<double>(options.bar_width));
            size_t len = static_cast<size_t>(
                static_cast<double>(span->duration_ns) /
                static_cast<double>(extent) *
                static_cast<double>(options.bar_width));
            if (begin > options.bar_width)
                begin = options.bar_width;
            if (len == 0)
                len = 1;
            if (begin + len > options.bar_width)
                len = options.bar_width - begin;
            std::string bar(options.bar_width, '.');
            for (size_t i = 0; i < len; ++i)
                bar[begin + i] = '#';
            out << "  [" << bar << "] ";
            // Depth comes off the wire untrusted: clamp the indent so
            // a forged 2^32-1 depth can't balloon the rendering.
            const uint32_t indent =
                std::min(span->depth, uint32_t(options.max_indent));
            for (uint32_t d = 1; d < indent; ++d)
                out << "  ";
            out << span->name << "  "
                << static_cast<double>(span->start_ns - t->begin_ns) *
                    options.scale
                << " +"
                << static_cast<double>(span->duration_ns) * options.scale
                << " " << options.unit << "\n";
        }
        out << "\n";
    }
    return out.str();
}

} // namespace obs
} // namespace photofourier
