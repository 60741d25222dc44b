#include "obs/log.hh"

#include <csignal>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"

// Sanitizer death callback: under ASan/TSan the process usually dies
// inside the sanitizer runtime (report + _exit), which bypasses both
// the log hook and the SIGABRT handler — so the flight recorder
// registers itself there too. Same detection dance as common/logging.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PF_HAVE_SANITIZER_DEATH_CALLBACK 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PF_HAVE_SANITIZER_DEATH_CALLBACK 1
#endif
#if defined(PF_HAVE_SANITIZER_DEATH_CALLBACK) && \
    __has_include(<sanitizer/common_interface_defs.h>)
#include <sanitizer/common_interface_defs.h>
#else
#undef PF_HAVE_SANITIZER_DEATH_CALLBACK
#endif

namespace photofourier {
namespace obs {

namespace {

/** Per-severity event counters, resolved once from the global registry. */
Counter &
severityCounter(LogSeverity severity)
{
    static Counter *counters[3] = {
        &MetricsRegistry::global().counter("pf_log_info_total"),
        &MetricsRegistry::global().counter("pf_log_warn_total"),
        &MetricsRegistry::global().counter("pf_log_error_total"),
    };
    size_t idx = static_cast<size_t>(severity);
    if (idx >= 3)
        idx = 0;
    return *counters[idx];
}

const char *
severityName(LogSeverity severity)
{
    switch (severity) {
      case LogSeverity::Info:
        return "info";
      case LogSeverity::Warn:
        return "warn";
      case LogSeverity::Error:
        return "error";
    }
    return "info";
}

void
appendQuoted(std::ostringstream &out, std::string_view s)
{
    out << '"';
    for (char c : s) {
        if (c == '\n') {
            out << "\\n";
            continue;
        }
        if (c == '"' || c == '\\')
            out << '\\';
        out << c;
    }
    out << '"';
}

void
appendTraceId(std::ostringstream &out, uint64_t trace_id)
{
    out << "trace=" << std::hex << std::setw(16) << std::setfill('0')
        << trace_id << std::dec << std::setfill(' ');
}

/** The log hook: every pf_inform/pf_warn/pf_fatal/pf_panic lands here. */
void
recordHook(LogSeverity severity, const std::string &message,
           const char *exit_reason)
{
    logEvent(severity, message);
    // A panic's abort() would reach the recorder's SIGABRT handler and
    // overwrite this dump as reason=signal; the dump is written, so
    // let the abort go straight to the default action.
    if (exit_reason != nullptr && dumpFlightRecorder(exit_reason))
        std::signal(SIGABRT, SIG_DFL);
}

// Installed during static initialization: any binary that can read the
// store (LogSink::global, the flight recorder) links this file, so
// every event it logs is recorded.
[[maybe_unused]] const LogHook installed_hook = setLogHook(&recordHook);

} // namespace

LogSink &
LogSink::global()
{
    static LogSink sink;
    return sink;
}

void
logEvent(LogSeverity severity, std::string_view message, LogSink *sink)
{
    LogEvent event;
    event.timestamp_ns = nowNs();
    event.trace_id = activeTrace();
    event.severity = severity;
    message.copy(event.message, kLogMessageBytes - 1);
    (sink ? *sink : LogSink::global()).record(event);
    severityCounter(severity).inc();
}

std::string
renderLogfmt(const std::vector<LogEvent> &events)
{
    std::ostringstream out;
    for (const LogEvent &event : events) {
        out << "event ts=" << event.timestamp_ns
            << " level=" << severityName(event.severity) << ' ';
        appendTraceId(out, event.trace_id);
        out << " msg=";
        appendQuoted(out, event.message);
        out << '\n';
    }
    return out.str();
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

namespace {

// Lock order: flight_mutex is a leaf lock — dumpFlightRecorder copies
// the config out before touching the sinks.
std::mutex flight_mutex;
FlightRecorderConfig flight_config;

#ifdef PF_HAVE_SANITIZER_DEATH_CALLBACK
void
flightDeathCallback()
{
    dumpFlightRecorder("sanitizer");
}
#endif

void
flightSignalHandler(int signum)
{
    // Best-effort: the dump path takes leaf mutexes and allocates,
    // which async-signal-safety forbids — but the alternative for a
    // crashing shard is no artifact at all. Restore the default
    // disposition first so a second fault terminates instead of
    // recursing.
    std::signal(signum, SIG_DFL);
    dumpFlightRecorder("signal");
    std::raise(signum);
}

} // namespace

void
installFlightRecorder(const FlightRecorderConfig &config)
{
    {
        std::lock_guard<std::mutex> lock(flight_mutex);
        flight_config = config;
    }
    std::signal(SIGABRT, &flightSignalHandler);
    std::signal(SIGSEGV, &flightSignalHandler);
#ifdef PF_HAVE_SANITIZER_DEATH_CALLBACK
    __sanitizer_set_death_callback(&flightDeathCallback);
#endif
}

bool
dumpFlightRecorder(const char *reason)
{
    FlightRecorderConfig config;
    {
        std::lock_guard<std::mutex> lock(flight_mutex);
        config = flight_config;
    }
    if (config.path.empty())
        return false;

    std::vector<LogEvent> events = LogSink::global().snapshot();
    if (events.size() > config.max_events)
        events.erase(events.begin(),
                     events.end() -
                         static_cast<long>(config.max_events));
    std::vector<Span> spans = TraceSink::global().snapshot();
    if (spans.size() > config.max_spans)
        spans.erase(spans.begin(),
                    spans.end() - static_cast<long>(config.max_spans));

    std::ofstream out(config.path, std::ios::trunc);
    if (!out.good())
        return false;
    std::ostringstream body;
    body << "pf_flight_recorder version=1 reason=" << reason
         << " events=" << events.size() << " spans=" << spans.size()
         << " dropped_events=" << LogSink::global().dropped() << '\n'
         << renderLogfmt(events);
    for (const Span &span : spans) {
        body << "span ";
        appendTraceId(body, span.trace_id);
        body << " name=";
        appendQuoted(body, span.name);
        body << " depth=" << span.depth << " start_ns=" << span.start_ns
             << " dur_ns=" << span.duration_ns << '\n';
    }
    out << body.str();
    out.flush();
    return out.good();
}

std::string
flightRecorderPath()
{
    std::lock_guard<std::mutex> lock(flight_mutex);
    return flight_config.path;
}

} // namespace obs
} // namespace photofourier
