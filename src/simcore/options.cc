#include "simcore/options.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "simcore/log.hh"
#include "simcore/selfprof.hh"

namespace via
{

namespace
{

const char *
typeName(OptType t)
{
    switch (t) {
    case OptType::String: return "string";
    case OptType::Int: return "int";
    case OptType::UInt: return "uint";
    case OptType::Double: return "double";
    case OptType::Bool: return "bool";
    }
    return "?";
}

bool
parseBool(const std::string &v, bool &out)
{
    if (v == "1" || v == "true" || v == "yes" || v == "on") {
        out = true;
        return true;
    }
    if (v == "0" || v == "false" || v == "no" || v == "off") {
        out = false;
        return true;
    }
    return false;
}

/** Format a range bound without trailing zeros. */
std::string
boundStr(double v)
{
    char buf[32];
    if (v == std::int64_t(v) && std::abs(v) < 9.0e15)
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

Options::Options(std::string binary, std::string description)
    : _binary(std::move(binary)),
      _description(std::move(description))
{
    addFlag("help", "print this key table and exit");
}

Options &
Options::add(OptionSpec spec)
{
    via_assert(!spec.key.empty(), "empty option key");
    via_assert(find(spec.key) == nullptr, "option '", spec.key,
               "' registered twice in ", _binary);
    _specs.push_back(std::move(spec));
    return *this;
}

Options &
Options::addString(const std::string &key, const std::string &dflt,
                   const std::string &help)
{
    return add({key, OptType::String, dflt, help});
}

Options &
Options::addInt(const std::string &key, std::int64_t dflt,
                const std::string &help, std::int64_t min,
                std::int64_t max)
{
    OptionSpec spec{key, OptType::Int, std::to_string(dflt), help};
    spec.min = double(min);
    spec.max = double(max);
    return add(std::move(spec));
}

Options &
Options::addUInt(const std::string &key, std::uint64_t dflt,
                 const std::string &help, std::uint64_t min,
                 std::uint64_t max)
{
    OptionSpec spec{key, OptType::UInt, std::to_string(dflt), help};
    spec.min = double(min);
    spec.max = double(max);
    return add(std::move(spec));
}

Options &
Options::addDouble(const std::string &key, double dflt,
                   const std::string &help, double min, double max)
{
    OptionSpec spec{key, OptType::Double, boundStr(dflt), help};
    spec.min = min;
    spec.max = max;
    return add(std::move(spec));
}

Options &
Options::addDoubleAbove(const std::string &key, double dflt,
                        const std::string &help, double min,
                        double max)
{
    addDouble(key, dflt, help, min, max);
    _specs.back().minExclusive = true;
    return *this;
}

Options &
Options::addBool(const std::string &key, bool dflt,
                 const std::string &help)
{
    return add({key, OptType::Bool, dflt ? "1" : "0", help});
}

Options &
Options::addFlag(const std::string &key, const std::string &help)
{
    return addBool(key, false, help);
}

bool
Options::knows(const std::string &key) const
{
    return find(key) != nullptr;
}

const OptionSpec *
Options::find(const std::string &key) const
{
    for (const OptionSpec &spec : _specs)
        if (spec.key == key)
            return &spec;
    return nullptr;
}

std::vector<std::string>
Options::keys() const
{
    std::vector<std::string> out;
    out.reserve(_specs.size());
    for (const OptionSpec &spec : _specs)
        out.push_back(spec.key);
    std::sort(out.begin(), out.end());
    return out;
}

std::string
Options::checkValue(const OptionSpec &spec,
                    const std::string &value) const
{
    auto rangeCheck = [&](double v) -> std::string {
        bool low = spec.minExclusive ? !(v > spec.min) : !(v >= spec.min);
        if (low || !(v <= spec.max))
            return "value " + value + " out of range " +
                   (spec.minExclusive ? "(" : "[") +
                   boundStr(spec.min) + ", " + boundStr(spec.max) +
                   "]";
        return "";
    };

    switch (spec.type) {
    case OptType::String:
        return "";
    case OptType::Bool: {
        bool b;
        if (!parseBool(value, b))
            return "expected a boolean (1/0/true/false), got '" +
                   value + "'";
        return "";
    }
    case OptType::Int:
    case OptType::UInt: {
        try {
            std::size_t pos = 0;
            std::int64_t v = std::stoll(value, &pos);
            if (pos != value.size())
                throw std::invalid_argument(value);
            if (spec.type == OptType::UInt && v < 0)
                return "expected a non-negative integer, got '" +
                       value + "'";
            return rangeCheck(double(v));
        } catch (const std::exception &) {
            return "expected an integer, got '" + value + "'";
        }
    }
    case OptType::Double: {
        try {
            std::size_t pos = 0;
            double v = std::stod(value, &pos);
            if (pos != value.size())
                throw std::invalid_argument(value);
            return rangeCheck(v);
        } catch (const std::exception &) {
            return "expected a number, got '" + value + "'";
        }
    }
    }
    return "";
}

void
Options::usageError(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\n", _binary.c_str(),
                 message.c_str());
    std::fprintf(stderr, "valid keys:");
    for (const std::string &key : keys())
        std::fprintf(stderr, " %s", key.c_str());
    std::fprintf(stderr, "\n(run %s help=1 for the key table)\n",
                 _binary.c_str());
    std::exit(2);
}

void
Options::parse(const std::vector<std::string> &args)
{
    via_assert(!_parsed, "Options::parse called twice");
    _parsed = true;

    bool help = false;
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h") {
            help = true;
            continue;
        }
        auto eq = arg.find('=');
        if (eq == std::string::npos || eq == 0)
            usageError("malformed argument '" + arg +
                       "' (expected key=value)");
        std::string key = arg.substr(0, eq);
        std::string value = arg.substr(eq + 1);

        const OptionSpec *spec = find(key);
        if (spec == nullptr)
            usageError("unknown key '" + key + "'");
        if (_values.has(key))
            usageError("duplicate key '" + key +
                       "' (each key may be given once)");
        std::string diag = checkValue(*spec, value);
        if (!diag.empty())
            usageError("key '" + key + "': " + diag);
        _values.set(key, value);
    }

    if (help || getBool("help")) {
        printHelp(std::cout);
        std::exit(0);
    }
}

void
Options::parse(int argc, char **argv, int first)
{
    std::vector<std::string> args;
    for (int i = first; i < argc; ++i)
        args.emplace_back(argv[i]);
    parse(args);
}

const OptionSpec &
Options::require(const std::string &key, OptType type) const
{
    const OptionSpec *spec = find(key);
    via_assert(spec != nullptr, _binary, " reads unregistered key '",
               key, "'");
    via_assert(spec->type == type, "key '", key, "' is ",
               typeName(spec->type), ", read as ", typeName(type));
    return *spec;
}

std::string
Options::getString(const std::string &key) const
{
    const OptionSpec &spec = require(key, OptType::String);
    return _values.getString(key, spec.dflt);
}

std::int64_t
Options::getInt(const std::string &key) const
{
    const OptionSpec &spec = require(key, OptType::Int);
    return _values.getInt(key, std::stoll(spec.dflt));
}

std::uint64_t
Options::getUInt(const std::string &key) const
{
    const OptionSpec &spec = require(key, OptType::UInt);
    return _values.getUInt(key, std::stoull(spec.dflt));
}

double
Options::getDouble(const std::string &key) const
{
    const OptionSpec &spec = require(key, OptType::Double);
    return _values.getDouble(key, std::stod(spec.dflt));
}

bool
Options::getBool(const std::string &key) const
{
    const OptionSpec &spec = require(key, OptType::Bool);
    return _values.getBool(key, spec.dflt == "1");
}

bool
Options::given(const std::string &key) const
{
    return _values.has(key);
}

void
Options::printHelp(std::ostream &os) const
{
    os << _binary << " — " << _description << "\n\n";
    os << "usage: " << _binary << " [key=value ...]\n\n";

    std::vector<const OptionSpec *> sorted;
    for (const OptionSpec &spec : _specs)
        sorted.push_back(&spec);
    std::sort(sorted.begin(), sorted.end(),
              [](const OptionSpec *a, const OptionSpec *b) {
                  return a->key < b->key;
              });

    std::size_t key_w = 3, type_w = 4, dflt_w = 7;
    for (const OptionSpec *spec : sorted) {
        key_w = std::max(key_w, spec->key.size());
        type_w = std::max(
            type_w, std::string(typeName(spec->type)).size());
        dflt_w = std::max(dflt_w, spec->dflt.size());
    }

    char line[256];
    std::snprintf(line, sizeof(line), "  %-*s  %-*s  %-*s  %s\n",
                  int(key_w), "key", int(type_w), "type",
                  int(dflt_w), "default", "description");
    os << line;
    for (const OptionSpec *spec : sorted) {
        std::snprintf(line, sizeof(line), "  %-*s  %-*s  %-*s  %s\n",
                      int(key_w), spec->key.c_str(), int(type_w),
                      typeName(spec->type), int(dflt_w),
                      spec->dflt.c_str(), spec->help.c_str());
        os << line;
    }
}

void
addThreadsOption(Options &opts)
{
    opts.addUInt("threads", 0,
                 "worker threads (0 = hardware concurrency)");
}

void
addSelfProfOption(Options &opts)
{
    opts.addFlag("selfprof",
                 "report host wall-time by simulator component at "
                 "exit");
}

void
applySelfProfOption(const Options &opts)
{
    if (!opts.getBool("selfprof"))
        return;
    selfprof::enable(true);
    selfprof::installAtExitReport();
}

} // namespace via
