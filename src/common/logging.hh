/**
 * @file
 * Status/error reporting in the gem5 style — the one log API.
 *
 * pf_panic()  — an internal invariant was violated (a library bug); aborts.
 * pf_fatal()  — the caller/user supplied an impossible configuration; exits.
 * pf_warn()   — something is questionable but the run can continue.
 * pf_inform() — plain status output.
 *
 * Each call prints one console line and hands the event to the log
 * hook, which obs/ installs to record it into the bounded event store
 * the flight recorder dumps (obs/log.hh).
 */

#ifndef PHOTOFOURIER_COMMON_LOGGING_HH
#define PHOTOFOURIER_COMMON_LOGGING_HH

#include <cstdint>
#include <sstream>
#include <string>

namespace photofourier {

/** Event severity: pf_inform, pf_warn, and pf_fatal/pf_panic. */
enum class LogSeverity : uint8_t
{
    Info = 0,
    Warn = 1,
    Error = 2,
};

/**
 * The one log hook: every event is handed to it after its console
 * line prints. `exit_reason` is "fatal" or "panic" when the process
 * ends as soon as the hook returns, and nullptr otherwise. obs/log.cc
 * installs the hook that records the event and, on the exit paths,
 * dumps the flight recorder — common/ sits below obs/ in the
 * layering, so the dependency is inverted through this pointer. The
 * hook runs on the logging thread and must not log or panic.
 */
using LogHook = void (*)(LogSeverity severity, const std::string &message,
                         const char *exit_reason);

/** Install `hook` (nullptr to clear); returns the previous hook. */
LogHook setLogHook(LogHook hook);

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Minimal printf-free message builder: concatenates stream args. */
template <typename... Args>
std::string
buildMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

/** Abort with a message; use for internal invariant violations. */
#define pf_panic(...)                                                      \
    ::photofourier::detail::panicImpl(                                     \
        __FILE__, __LINE__,                                               \
        ::photofourier::detail::buildMessage(__VA_ARGS__))

/** Exit with a message; use for invalid user configuration. */
#define pf_fatal(...)                                                      \
    ::photofourier::detail::fatalImpl(                                     \
        __FILE__, __LINE__,                                               \
        ::photofourier::detail::buildMessage(__VA_ARGS__))

/** Print a warning and record it. */
#define pf_warn(...)                                                       \
    ::photofourier::detail::warnImpl(                                      \
        ::photofourier::detail::buildMessage(__VA_ARGS__))

/** Print an informational message and record it. */
#define pf_inform(...)                                                     \
    ::photofourier::detail::informImpl(                                    \
        ::photofourier::detail::buildMessage(__VA_ARGS__))

/**
 * Assert an invariant with a formatted message.
 *
 * Deliberately NOT gated on NDEBUG: unlike <cassert>, this macro stays
 * active in Release builds. The FFT entry points (fftRadix2, fft,
 * FftPlan::execute) rely on it for input validation — a silent
 * out-of-contract call there corrupts results instead of trapping, and
 * the checks are O(1) against O(n log n) work. The Release leg of the
 * CI matrix runs the death tests that pin this behaviour.
 */
#define pf_assert(cond, ...)                                               \
    do {                                                                   \
        if (!(cond)) {                                                     \
            pf_panic("assertion failed: " #cond " — ",                    \
                     ::photofourier::detail::buildMessage(__VA_ARGS__));   \
        }                                                                  \
    } while (0)

} // namespace photofourier

#endif // PHOTOFOURIER_COMMON_LOGGING_HH
