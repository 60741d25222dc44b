/**
 * @file
 * Request-scoped tracing: a trace id bound to the current thread, RAII
 * span timers, and a bounded ring-buffer sink.
 *
 * The design keeps the untraced path nearly free and the traced path
 * allocation-free: span names must be string literals (the record
 * stores the pointer), ScopedSpan reads one thread_local to decide it
 * is a no-op, and TraceSink::record overwrites a preallocated ring
 * slot under a mutex (the BoundedRing the event store shares).
 * Timestamps are steady-clock nanoseconds — CLOCK_MONOTONIC is shared
 * by every process on a host, so spans recorded by a shard and by the
 * router on the same machine line up in one waterfall; across hosts
 * only durations are comparable.
 */

#ifndef PHOTOFOURIER_OBS_TRACE_HH
#define PHOTOFOURIER_OBS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/ring.hh"

namespace photofourier {
namespace obs {

/** Fixed-size ring slot; `name` must point at a string literal. */
struct SpanRecord
{
    uint64_t trace_id = 0;
    const char *name = "";
    uint32_t depth = 0;
    uint64_t start_ns = 0;
    uint64_t duration_ns = 0;
};

/** Owning span value, for snapshots and the wire. */
struct Span
{
    uint64_t trace_id = 0;
    std::string name;
    uint32_t depth = 0;
    uint64_t start_ns = 0;
    uint64_t duration_ns = 0;

    Span() = default;
    explicit Span(const SpanRecord &rec)
        : trace_id(rec.trace_id), name(rec.name), depth(rec.depth),
          start_ns(rec.start_ns), duration_ns(rec.duration_ns)
    {
    }
};

/** Steady-clock timestamp in nanoseconds. */
uint64_t nowNs();

/** Bounded span store (see BoundedRing); one per server plus global(). */
class TraceSink : public BoundedRing<SpanRecord, Span>
{
  public:
    explicit TraceSink(size_t capacity = 4096) : BoundedRing(capacity) {}

    /** The process-wide default sink. */
    static TraceSink &global();
};

/** Trace id bound to the calling thread (0 = not tracing). */
uint64_t activeTrace();

/** Sink the calling thread's spans go to (global() by default). */
TraceSink &activeSink();

/**
 * RAII binding of a trace id (and optionally a sink) to the current
 * thread. While bound, ScopedSpans anywhere down the call stack —
 * conv engines, FFTs — record into the trace. Pass trace_id 0 to
 * explicitly disable tracing inside the scope.
 */
class TraceBinding
{
  public:
    explicit TraceBinding(uint64_t trace_id, TraceSink *sink = nullptr);
    ~TraceBinding();

    TraceBinding(const TraceBinding &) = delete;
    TraceBinding &operator=(const TraceBinding &) = delete;

  private:
    uint64_t prev_id_;
    TraceSink *prev_sink_;
    uint32_t prev_depth_;
};

/**
 * RAII span timer. Free when the thread has no active trace (one
 * thread_local read); otherwise records (name, depth, start, duration)
 * into the bound sink at destruction. `name` must be a string literal.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    uint64_t start_ns_ = 0;
    bool active_;
};

/**
 * Record a span whose endpoints were measured elsewhere (queue wait
 * computed from a stored enqueue timestamp, network time computed from
 * an RTT). `name` must be a string literal. Records into `sink`
 * (global() when null) regardless of the thread's binding.
 */
void recordSpan(uint64_t trace_id, const char *name, uint32_t depth,
                uint64_t start_ns, uint64_t duration_ns,
                TraceSink *sink = nullptr);

/** Options for renderWaterfall(). */
struct WaterfallOptions
{
    size_t top_n = 5;         ///< slowest-N traces to render
    const char *unit = "us";  ///< label for the time column
    double scale = 1e-3;      ///< multiply raw span times by this
    size_t bar_width = 40;    ///< columns in the bar area
    uint32_t max_indent = 16; ///< indent clamp (wire depth is untrusted)
};

/**
 * Render traces as per-span waterfalls, slowest root span first. Spans
 * are grouped by trace id; each trace's rows are indented by depth and
 * drawn as offset+length bars against the trace's full extent. Shared
 * by tools/trace_dump and the jtc pipeline tracer.
 */
std::string renderWaterfall(const std::vector<Span> &spans,
                            const WaterfallOptions &options = {});

} // namespace obs
} // namespace photofourier

#endif // PHOTOFOURIER_OBS_TRACE_HH
