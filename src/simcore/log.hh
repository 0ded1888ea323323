/**
 * @file
 * Logging and error reporting in the gem5 tradition.
 *
 * panic()  - an internal simulator invariant was violated (a bug);
 *            aborts so a debugger or core dump can capture state.
 * fatal()  - the simulation cannot continue due to a user error
 *            (bad configuration, invalid input); exits cleanly.
 * usage()  - a key=value request is malformed; exits 2 like every
 *            other usage error, before anything runs.
 * warn()   - something may be modelled imperfectly but execution can
 *            continue.
 * inform() - status messages with no negative connotation.
 */

#ifndef VIA_SIMCORE_LOG_HH
#define VIA_SIMCORE_LOG_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace via
{

/** Verbosity levels accepted by setLogLevel(). */
enum class LogLevel { Quiet = 0, Warn = 1, Inform = 2, Debug = 3 };

/** Set the global verbosity; messages above the level are dropped. */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void usageImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/** Fold a parameter pack into a string via ostringstream. */
template <typename... Args>
std::string
fmtCat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace via

/** Abort: an invariant of the simulator itself was violated. */
#define via_panic(...) \
    ::via::detail::panicImpl(__FILE__, __LINE__, \
                             ::via::detail::fmtCat(__VA_ARGS__))

/** Exit(1): the user asked for something the simulator cannot do. */
#define via_fatal(...) \
    ::via::detail::fatalImpl(__FILE__, __LINE__, \
                             ::via::detail::fmtCat(__VA_ARGS__))

/**
 * Exit(2): the command line is a usage error (a key value the model
 * cannot take), reported before any simulation or output.
 */
#define via_usage(...) \
    ::via::detail::usageImpl(::via::detail::fmtCat(__VA_ARGS__))

/** Non-fatal: functionality may be modelled imperfectly. */
#define via_warn(...) \
    ::via::detail::warnImpl(::via::detail::fmtCat(__VA_ARGS__))

/** Status message for the user. */
#define via_inform(...) \
    ::via::detail::informImpl(::via::detail::fmtCat(__VA_ARGS__))

/** Developer chatter, hidden unless LogLevel::Debug. */
#define via_debug(...) \
    ::via::detail::debugImpl(::via::detail::fmtCat(__VA_ARGS__))

/**
 * Condition-checked panic, in the spirit of gem5's panic_if. The
 * failure path (message formatting and the panic call) sits in a
 * cold, never-inlined lambda, so a check costs its hot caller one
 * compare and branch: small accessors that assert stay inlinable.
 */
#define via_assert(cond, ...) \
    do { \
        if (!(cond)) [[unlikely]] { \
            [&]() __attribute__((cold, noinline)) { \
                via_panic("assertion '" #cond "' failed: ", \
                          ::via::detail::fmtCat(__VA_ARGS__)); \
            }(); \
        } \
    } while (0)

#endif // VIA_SIMCORE_LOG_HH
