/**
 * @file
 * The event store behind pf_inform/pf_warn/pf_fatal/pf_panic, and the
 * crash flight recorder that drains it.
 *
 * common/logging's log hook is installed here, so every event of the
 * one log API lands in LogSink::global(): a BoundedRing (the store
 * TraceSink uses) of fixed-size slots holding the timestamp, the
 * severity, the thread's active trace id, and the message truncated
 * to the slot. Recording never allocates, and memory stays constant
 * under any log rate. Per-severity pf_log_*_total counters land in
 * MetricsRegistry::global().
 *
 * The flight recorder persists the newest events + the active trace
 * ring to a file when the process ends abnormally: on pf_fatal and
 * pf_panic (a failed pf_assert) through the log hook, on the
 * sanitizer death callback, and on SIGABRT/SIGSEGV. Daemons also dump
 * it on graceful shutdown so an externally-killed shard still leaves
 * an artifact.
 */

#ifndef PHOTOFOURIER_OBS_LOG_HH
#define PHOTOFOURIER_OBS_LOG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "obs/ring.hh"

namespace photofourier {
namespace obs {

/** Bytes an event keeps of its message, terminating NUL included. */
constexpr size_t kLogMessageBytes = 112;

/** One fixed-size event slot; longer messages are truncated. */
struct LogEvent
{
    uint64_t timestamp_ns = 0;
    uint64_t trace_id = 0;
    LogSeverity severity = LogSeverity::Info;
    char message[kLogMessageBytes] = {};
};

/** Bounded event store (see BoundedRing); global() is the default. */
class LogSink : public BoundedRing<LogEvent>
{
  public:
    explicit LogSink(size_t capacity = 4096) : BoundedRing(capacity) {}

    /** The store every pf_inform/pf_warn/pf_fatal/pf_panic lands in. */
    static LogSink &global();
};

/**
 * Record one event: stamps the current time and the thread's active
 * trace id, appends to `sink` (LogSink::global() when null), and bumps
 * the per-severity counter in the global registry. Allocation-free.
 */
void logEvent(LogSeverity severity, std::string_view message,
              LogSink *sink = nullptr);

/** Render events one-per-line in logfmt (key=value, quoted msg). */
std::string renderLogfmt(const std::vector<LogEvent> &events);

/** Flight-recorder configuration (see installFlightRecorder). */
struct FlightRecorderConfig
{
    std::string path;        ///< file the dump is written to
    size_t max_events = 256; ///< newest log events to keep
    size_t max_spans = 128;  ///< newest trace spans to keep
};

/**
 * Arm the crash flight recorder: on pf_fatal, on pf_panic/pf_assert
 * failure, on the sanitizer death callback (ASan/TSan builds), and on
 * SIGABRT/SIGSEGV, the newest log events and trace spans are written
 * to `config.path` in the logfmt dump format. The dump path is
 * best-effort, not strictly async-signal-safe — acceptable for a
 * crashing process whose alternative is no artifact at all.
 * Reinstalling replaces the previous configuration.
 */
void installFlightRecorder(const FlightRecorderConfig &config);

/**
 * Write the flight-recorder dump now, tagging it with `reason`
 * ("fatal", "panic", "signal", "shutdown", ...). Returns false when no
 * recorder is installed or the file cannot be written. Daemons call
 * this on graceful exit so every run leaves an artifact.
 */
bool dumpFlightRecorder(const char *reason);

/** The armed dump path ("" when no recorder is installed). */
std::string flightRecorderPath();

} // namespace obs
} // namespace photofourier

#endif // PHOTOFOURIER_OBS_LOG_HH
