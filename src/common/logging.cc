#include "common/logging.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>

// Sanitizer hook for panic/assert failures: under ASan/UBSan/TSan
// builds (the CI sanitizer matrix), a failed pf_assert prints the
// symbolized call chain through the sanitizer runtime before
// aborting, so CI logs show *who* violated the invariant — the
// message alone names only the assertion site.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PF_HAVE_SANITIZER_STACKTRACE 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(__SANITIZE_UNDEFINED__)
#define PF_HAVE_SANITIZER_STACKTRACE 1
#endif
#if defined(PF_HAVE_SANITIZER_STACKTRACE) && \
    __has_include(<sanitizer/common_interface_defs.h>)
#include <sanitizer/common_interface_defs.h>
#else
#undef PF_HAVE_SANITIZER_STACKTRACE
#endif

namespace photofourier {

namespace {

std::atomic<LogHook> global_log_hook{nullptr};

void
emit(LogSeverity severity, const std::string &msg, const char *exit_reason)
{
    if (LogHook hook = global_log_hook.load())
        hook(severity, msg, exit_reason);
}

} // namespace

LogHook
setLogHook(LogHook hook)
{
    return global_log_hook.exchange(hook);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " @ " << file << ":" << line
              << std::endl;
    // Hook first: once the sanitizer trace or abort runs there is no
    // further chance to persist the event store.
    emit(LogSeverity::Error, msg, "panic");
#ifdef PF_HAVE_SANITIZER_STACKTRACE
    __sanitizer_print_stack_trace();
#endif
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << " @ " << file << ":" << line
              << std::endl;
    emit(LogSeverity::Error, msg, "fatal");
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
    emit(LogSeverity::Warn, msg, nullptr);
}

void
informImpl(const std::string &msg)
{
    std::cout << "info: " << msg << std::endl;
    emit(LogSeverity::Info, msg, nullptr);
}

} // namespace detail

} // namespace photofourier
