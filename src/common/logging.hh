/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic() is for internal invariant violations (simulator bugs); it
 * aborts. fatal() is for user/configuration errors; it exits with a
 * nonzero status. warn()/inform() never stop the run.
 */

#ifndef L0VLIW_COMMON_LOGGING_HH
#define L0VLIW_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace l0vliw
{

namespace detail
{

[[noreturn]] void
die(const char *kind, bool abort_process, const char *fmt, std::va_list ap);

void emit(const char *kind, const char *fmt, std::va_list ap);

} // namespace detail

/**
 * Report an internal invariant violation and abort.
 * Use only for conditions that indicate a bug in this library.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user or configuration error and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious but survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Abort via panic() when @p cond is false. The condition's text
 *  travels as a %s argument: pasted into the format, a '%' in it
 *  (say, `a % b == 0`) would become a conversion. */
#define L0_ASSERT(cond, fmt, ...)                                       \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::l0vliw::panic("assertion '%s' failed at " __FILE__        \
                            ":%d: " fmt, #cond, __LINE__,               \
                            ##__VA_ARGS__);                             \
        }                                                               \
    } while (0)

} // namespace l0vliw

#endif // L0VLIW_COMMON_LOGGING_HH
