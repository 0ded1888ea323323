/**
 * @file
 * The shared Options registry: typed parsing, registry defaults,
 * the exit-2 contract for unknown / duplicate / malformed /
 * out-of-range keys, and the generated help table.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "simcore/options.hh"

using namespace via;

namespace
{

Options
makeOpts()
{
    Options opts("optest", "options test harness");
    opts.addString("name", "default", "a string")
        .addInt("delta", -3, "a signed int", -10, 10)
        .addUInt("count", 7, "an unsigned int", 1, 100)
        .addDouble("ratio", 0.5, "a double", 0.0, 1.0)
        .addBool("fast", true, "a bool")
        .addFlag("verbose", "a flag");
    return opts;
}

} // namespace

TEST(Options, DefaultsApplyWhenNotGiven)
{
    Options opts = makeOpts();
    opts.parse({});
    EXPECT_EQ(opts.getString("name"), "default");
    EXPECT_EQ(opts.getInt("delta"), -3);
    EXPECT_EQ(opts.getUInt("count"), 7u);
    EXPECT_DOUBLE_EQ(opts.getDouble("ratio"), 0.5);
    EXPECT_TRUE(opts.getBool("fast"));
    EXPECT_FALSE(opts.getBool("verbose"));
    EXPECT_FALSE(opts.given("count"));
}

TEST(Options, TypedValuesParse)
{
    Options opts = makeOpts();
    opts.parse({"name=via", "delta=-7", "count=42", "ratio=0.25",
                "fast=no", "verbose=1"});
    EXPECT_EQ(opts.getString("name"), "via");
    EXPECT_EQ(opts.getInt("delta"), -7);
    EXPECT_EQ(opts.getUInt("count"), 42u);
    EXPECT_DOUBLE_EQ(opts.getDouble("ratio"), 0.25);
    EXPECT_FALSE(opts.getBool("fast"));
    EXPECT_TRUE(opts.getBool("verbose"));
    EXPECT_TRUE(opts.given("count"));
}

TEST(Options, ConfigHoldsOnlyGivenKeys)
{
    // machineParamsFrom-style consumers depend on cfg.has() meaning
    // "explicitly overridden", so defaults must not leak into the
    // Config.
    Options opts = makeOpts();
    opts.parse({"count=42"});
    EXPECT_TRUE(opts.config().has("count"));
    EXPECT_FALSE(opts.config().has("name"));
    EXPECT_FALSE(opts.config().has("ratio"));
}

TEST(Options, BoolSpellings)
{
    for (const char *spelling : {"1", "true", "yes", "on"}) {
        Options opts = makeOpts();
        opts.parse({std::string("verbose=") + spelling});
        EXPECT_TRUE(opts.getBool("verbose")) << spelling;
    }
    for (const char *spelling : {"0", "false", "no", "off"}) {
        Options opts = makeOpts();
        opts.parse({std::string("fast=") + spelling});
        EXPECT_FALSE(opts.getBool("fast")) << spelling;
    }
}

TEST(Options, KeysAreSortedAndIncludeHelp)
{
    Options opts = makeOpts();
    auto keys = opts.keys();
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_NE(std::find(keys.begin(), keys.end(), "help"),
              keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "count"),
              keys.end());
}

TEST(Options, HelpTableListsEveryKey)
{
    Options opts = makeOpts();
    std::ostringstream os;
    opts.printHelp(os);
    std::string text = os.str();
    for (const std::string &key : opts.keys())
        EXPECT_NE(text.find(key), std::string::npos) << key;
    EXPECT_NE(text.find("optest"), std::string::npos);
    EXPECT_NE(text.find("a signed int"), std::string::npos);
}

TEST(Options, GroupHelpersRegisterSharedKeys)
{
    Options opts("grouped", "group test");
    addThreadsOption(opts);
    addSelfProfOption(opts);
    EXPECT_TRUE(opts.knows("threads"));
    EXPECT_TRUE(opts.knows("selfprof"));
    opts.parse({"threads=4"});
    EXPECT_EQ(opts.getUInt("threads"), 4u);
    EXPECT_FALSE(opts.getBool("selfprof"));
}

using OptionsDeath = ::testing::Test;

TEST(OptionsDeath, UnknownKeyExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"bogus=1"}),
                ::testing::ExitedWithCode(2),
                "unknown key 'bogus'");
}

TEST(OptionsDeath, UnknownKeyListsValidKeysSorted)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"treads=4"}),
                ::testing::ExitedWithCode(2),
                "valid keys: count delta fast help name ratio "
                "verbose");
}

TEST(OptionsDeath, DuplicateKeyExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"count=1", "count=2"}),
                ::testing::ExitedWithCode(2),
                "duplicate key 'count'");
}

TEST(OptionsDeath, MalformedIntExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"count=abc"}),
                ::testing::ExitedWithCode(2),
                "expected an integer");
}

TEST(OptionsDeath, NegativeUIntExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"count=-4"}),
                ::testing::ExitedWithCode(2),
                "non-negative integer");
}

TEST(OptionsDeath, OutOfRangeExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"count=500"}),
                ::testing::ExitedWithCode(2),
                "out of range \\[1, 100\\]");
    Options opts2 = makeOpts();
    EXPECT_EXIT(opts2.parse({"ratio=1.5"}),
                ::testing::ExitedWithCode(2),
                "out of range \\[0, 1\\]");
}

TEST(OptionsDeath, ExclusiveLowerBoundExits2)
{
    // A density of 0 describes no input at all: the open lower bound
    // turns it into a usage error instead of a generator assert.
    auto make = [] {
        Options opts("optest", "options test harness");
        opts.addDoubleAbove("density", 0.5, "a probability", 0.0, 1.0);
        return opts;
    };
    for (const char *bad : {"density=0", "density=-0.1", "density=nan"}) {
        Options opts = make();
        EXPECT_EXIT(opts.parse({bad}), ::testing::ExitedWithCode(2),
                    "out of range \\(0, 1\\]")
            << bad;
    }
    Options opts = make();
    opts.parse({"density=1e-9"});
    EXPECT_DOUBLE_EQ(opts.getDouble("density"), 1e-9);
}

TEST(OptionsDeath, MalformedArgumentExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"count"}),
                ::testing::ExitedWithCode(2),
                "expected key=value");
}

TEST(OptionsDeath, HelpExitsZero)
{
    Options key_form = makeOpts();
    EXPECT_EXIT(key_form.parse({"help=1"}),
                ::testing::ExitedWithCode(0), "");
    Options flag_form = makeOpts();
    EXPECT_EXIT(flag_form.parse({"--help"}),
                ::testing::ExitedWithCode(0), "");
}
