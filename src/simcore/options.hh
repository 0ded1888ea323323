/**
 * @file
 * The shared typed command-line options registry.
 *
 * Every harness in this repository — the bench/ figure binaries,
 * via_sim, via_fuzz and bench_report — takes "key=value" arguments.
 * Options is the one parser they all share: each binary registers
 * its keys (type, default, help text, optional numeric range) and
 * parse() enforces a uniform contract:
 *
 *   - unknown key        -> message + sorted valid-key list, exit 2
 *   - duplicate key      -> hard error, exit 2 (a repeated key on
 *                           one command line is almost always a
 *                           typo silently dropping the first value)
 *   - malformed value    -> type/range diagnosis, exit 2
 *   - help=1 or --help   -> generated key table, exit 0
 *
 * Parsed values land in a plain Config, so the existing typed
 * consumers (machineParamsFrom, SampleOptions::fromConfig,
 * TraceOptions::fromConfig) keep working unchanged. Programmatic
 * Config::set stays last-wins — sweep mode's per-point overrides
 * rely on that — only command-line redefinition is rejected.
 */

#ifndef VIA_SIMCORE_OPTIONS_HH
#define VIA_SIMCORE_OPTIONS_HH

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "simcore/config.hh"

namespace via
{

/** Value type of one registered option. */
enum class OptType
{
    String,
    Int,    //!< signed 64-bit
    UInt,   //!< unsigned 64-bit
    Double,
    Bool,   //!< 1/0, true/false, yes/no, on/off
};

/** One registered key: type, default, help text, numeric range. */
struct OptionSpec
{
    std::string key;
    OptType type = OptType::String;
    std::string dflt; //!< default, as it would be typed ("" = none)
    std::string help;
    double min = std::numeric_limits<double>::lowest();
    double max = std::numeric_limits<double>::max();
    bool minExclusive = false; //!< values must exceed min
};

/**
 * A per-binary registry of OptionSpecs plus the parsed values.
 *
 * Typical use:
 *
 *   Options opts("fig10_spmv", "Figure 10 SpMV speedup");
 *   opts.addUInt("count", 24, "corpus matrices");
 *   addMachineOptions(opts);
 *   opts.parse(argc, argv);          // exits on error or help
 *   const Config &cfg = opts.config();
 */
class Options
{
  public:
    Options(std::string binary, std::string description);

    /** Register a key; fatal (programmer error) on duplicates. */
    Options &add(OptionSpec spec);

    /** Typed registration conveniences. */
    Options &addString(const std::string &key,
                       const std::string &dflt,
                       const std::string &help);
    Options &addInt(const std::string &key, std::int64_t dflt,
                    const std::string &help,
                    std::int64_t min =
                        std::numeric_limits<std::int64_t>::min(),
                    std::int64_t max =
                        std::numeric_limits<std::int64_t>::max());
    Options &addUInt(const std::string &key, std::uint64_t dflt,
                     const std::string &help,
                     std::uint64_t min = 0,
                     std::uint64_t max = std::uint64_t(1) << 62);
    Options &addDouble(
        const std::string &key, double dflt,
        const std::string &help,
        double min = std::numeric_limits<double>::lowest(),
        double max = std::numeric_limits<double>::max());
    /** A Double over (min, max]: min itself is rejected. */
    Options &addDoubleAbove(const std::string &key, double dflt,
                            const std::string &help, double min,
                            double max);
    Options &addBool(const std::string &key, bool dflt,
                     const std::string &help);
    /** A bool defaulting to false (the common "flag" shape). */
    Options &addFlag(const std::string &key,
                     const std::string &help);

    /** True if @p key is registered. */
    bool knows(const std::string &key) const;

    /**
     * Parse "key=value" tokens (and --help). On any user error the
     * process exits with status 2 after printing the diagnosis and
     * the sorted valid-key list; help exits 0. Call at most once.
     */
    void parse(const std::vector<std::string> &args);
    /** argv convenience; parses argv[first..argc). */
    void parse(int argc, char **argv, int first = 1);

    /**
     * Typed getters. The registry's default applies when the key
     * was not given; reading an unregistered key or one of another
     * type is a fatal programmer error, so a binary can only read
     * keys its help output documents.
     */
    std::string getString(const std::string &key) const;
    std::int64_t getInt(const std::string &key) const;
    std::uint64_t getUInt(const std::string &key) const;
    double getDouble(const std::string &key) const;
    bool getBool(const std::string &key) const;

    /** True if the key was given on the command line. */
    bool given(const std::string &key) const;

    /** The parsed values (command-line keys only, validated). */
    const Config &config() const { return _values; }

    /** Print the generated key table (help=1 / --help). */
    void printHelp(std::ostream &os) const;

    /** Sorted registered keys (help, docs, error messages). */
    std::vector<std::string> keys() const;

    const std::string &binary() const { return _binary; }
    const std::string &description() const { return _description; }

  private:
    const OptionSpec *find(const std::string &key) const;
    const OptionSpec &require(const std::string &key,
                              OptType type) const;
    /** Validate one value against its spec; returns a diagnosis or
     *  the empty string when the value is well-formed. */
    std::string checkValue(const OptionSpec &spec,
                           const std::string &value) const;
    [[noreturn]] void usageError(const std::string &message) const;

    std::string _binary;
    std::string _description;
    std::vector<OptionSpec> _specs;
    Config _values;
    bool _parsed = false;
};

/**
 * Shared key groups living at this layer. Binaries compose exactly
 * the groups whose features they wire up, so the help table never
 * advertises a key the binary ignores. Higher-layer groups are
 * declared next to their consumers: addMachineOptions
 * (cpu/machine_config.hh), addSampleOptions (sample/sampling.hh),
 * addTraceOptions (trace/trace_io.hh).
 */

/** threads=N for SweepExecutor-based harnesses. */
void addThreadsOption(Options &opts);
/** selfprof=1: host wall-time self-profile report at exit. */
void addSelfProfOption(Options &opts);

/**
 * Act on the shared selfprof=1 key: enables the self-profiler and
 * installs the at-exit report (simcore/selfprof.hh). Call once
 * right after parse().
 */
void applySelfProfOption(const Options &opts);

} // namespace via

#endif // VIA_SIMCORE_OPTIONS_HH
