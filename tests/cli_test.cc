/**
 * @file
 * The shared option parser (src/common/cli.hh), tested in process: the
 * value rules every tool inherits, and the diagnostics and exit
 * statuses a malformed command line ends in. Running the parser here,
 * not a tool, means no value that would wrap (a negative or huge
 * worker count) ever starts one.
 */

#include <cstdint>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hh"

using namespace liquid;

namespace
{

enum class Mode
{
    Scalar,
    Native,
};

/** Every target kind, with the defaults a tool would give them. */
struct Fields
{
    bool flag = false;
    bool fallback = true;
    std::string text = "default";
    unsigned jobs = 7;
    std::uint64_t seed = 9;
    double tol = 2.0;
    Mode mode = Mode::Scalar;
    std::vector<std::string> names{"dflt"};
    std::vector<double> qps{200.0};
    unsigned width = 8;
    std::vector<unsigned> widths{2, 4, 8, 16};
    std::vector<Mode> modes{Mode::Scalar};
    cli::Regex filter;
    std::vector<std::string> files;
};

cli::Command
command(Fields &f)
{
    return {"usage: tool [options] file\n",
            {{"--flag", "a flag", cli::flag(f.flag)},
             {"--no-fallback", "a clearing flag",
              cli::flag(f.fallback, false)},
             {"--text S", "a string", cli::value(f.text)},
             {"-j, --jobs N", "an unsigned", cli::value(f.jobs)},
             {"--seed S", "a u64", cli::value(f.seed)},
             {"--tol PCT", "a double", cli::value(f.tol)},
             {"--mode M", "a choice",
              cli::choice(f.mode, {{"scalar", Mode::Scalar},
                                   {"native", Mode::Native}})},
             {"--names LIST", "a comma list", cli::list(f.names)},
             {"--qps LIST", "a list of doubles", cli::list(f.qps)},
             {"-w, --width N", "one width", cli::width(f.width)},
             {"--widths LIST", "a width list", cli::widths(f.widths)},
             {"--modes LIST", "a list of choices",
              cli::list(f.modes, {{"scalar", Mode::Scalar},
                                  {"native", Mode::Native}})},
             {"--filter REGEX", "a regular expression",
              cli::regex(f.filter)}},
            &f.files, 1};
}

/** What one parse returned and printed. */
struct Outcome
{
    std::optional<int> status;
    std::string out;
    std::string err;
};

Outcome
parse(Fields &f, std::vector<std::string> args)
{
    args.insert(args.begin(), "tool");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    Outcome o;
    o.status = cli::parse(command(f), static_cast<int>(argv.size()),
                          argv.data());
    o.out = testing::internal::GetCapturedStdout();
    o.err = testing::internal::GetCapturedStderr();
    return o;
}

/** A rejected command line: exit 2 and exactly one stderr line. */
void
expectRejected(std::vector<std::string> args, const std::string &line)
{
    Fields f;
    const Outcome o = parse(f, std::move(args));
    EXPECT_EQ(o.status, std::optional<int>(2));
    EXPECT_EQ(o.err, line + "\n");
    EXPECT_EQ(o.out, "");
}

TEST(Cli, ValidValuesReachTheirTargets)
{
    Fields f;
    const Outcome o =
        parse(f, {"--flag", "--no-fallback", "--text", "-x", "-j", "12",
                  "prog.s", "--seed", "18446744073709551615", "--tol",
                  "0.5", "--mode", "native", "--names", "a,,b", "--qps",
                  "1.5,2e3", "--width", "16", "--widths", "4,16",
                  "--modes", "native,scalar", "--filter", "^f.r$"});
    EXPECT_EQ(o.status, std::nullopt);
    EXPECT_EQ(o.err, "");
    EXPECT_TRUE(f.flag);
    EXPECT_FALSE(f.fallback);
    EXPECT_EQ(f.text, "-x");  // a value is the whole next token
    EXPECT_EQ(f.jobs, 12u);
    EXPECT_EQ(f.seed, UINT64_MAX);
    EXPECT_EQ(f.tol, 0.5);
    EXPECT_EQ(f.mode, Mode::Native);
    EXPECT_EQ(f.names, (std::vector<std::string>{"a", "", "b"}));
    EXPECT_EQ(f.qps, (std::vector<double>{1.5, 2000.0}));
    EXPECT_EQ(f.width, 16u);
    EXPECT_EQ(f.widths, (std::vector<unsigned>{4, 16}));
    EXPECT_EQ(f.modes, (std::vector<Mode>{Mode::Native, Mode::Scalar}));
    EXPECT_EQ(f.filter.text, "^f.r$");
    EXPECT_TRUE(std::regex_search("fir", f.filter.compiled));
    EXPECT_FALSE(std::regex_search("fft", f.filter.compiled));
    EXPECT_EQ(f.files, (std::vector<std::string>{"prog.s"}));
}

TEST(Cli, LeadingZeroIsDecimal)
{
    Fields f;
    EXPECT_EQ(parse(f, {"--seed", "010", "--jobs", "010"}).status,
              std::nullopt);
    EXPECT_EQ(f.seed, 10u);
    EXPECT_EQ(f.jobs, 10u);
}

TEST(Cli, ListFirstUseReplacesDefaultThenAppends)
{
    Fields f;
    EXPECT_EQ(parse(f, {"--names", "x", "--names", "y,z", "--widths", "8",
                        "--widths", "2"})
                  .status,
              std::nullopt);
    EXPECT_EQ(f.names, (std::vector<std::string>{"x", "y", "z"}));
    EXPECT_EQ(f.widths, (std::vector<unsigned>{8, 2}));
}

TEST(Cli, MalformedIntegersAreRejected)
{
    const std::string u32 = "a decimal integer up to 4294967295";
    const std::string u64 = "a decimal integer up to 18446744073709551615";
    expectRejected({"--jobs", "-1"}, "--jobs takes " + u32 + ", got '-1'");
    expectRejected({"-j", "4294967296"},
                   "-j takes " + u32 + ", got '4294967296'");
    expectRejected({"--seed", "18446744073709551616"},
                   "--seed takes " + u64 + ", got '18446744073709551616'");
    expectRejected({"--jobs", "4x"}, "--jobs takes " + u32 + ", got '4x'");
    expectRejected({"--jobs", ""}, "--jobs takes " + u32 + ", got ''");
    expectRejected({"--jobs", "+4"}, "--jobs takes " + u32 + ", got '+4'");
    expectRejected({"--jobs", " 4"}, "--jobs takes " + u32 + ", got ' 4'");
    expectRejected({"--seed", "0x10"},
                   "--seed takes " + u64 + ", got '0x10'");
}

TEST(Cli, MalformedDoublesAreRejected)
{
    const std::string num = "--tol takes a finite unsigned number, got ";
    expectRejected({"--tol", "1e999"}, num + "'1e999'");
    expectRejected({"--tol", "x10"}, num + "'x10'");
    expectRejected({"--tol", "inf"}, num + "'inf'");
    expectRejected({"--tol", "nan"}, num + "'nan'");
    expectRejected({"--tol", "-1"}, num + "'-1'");
    expectRejected({"--tol", ""}, num + "''");
    expectRejected({"--qps", "1,x"},
                   "--qps takes a comma list of finite unsigned numbers, "
                   "got '1,x'");
}

TEST(Cli, ChoicesAndWidthsAreRejectedOutsideTheirNames)
{
    expectRejected({"--mode", "liquid"},
                   "--mode takes one of scalar/native, got 'liquid'");
    expectRejected({"--modes", "scalar,liquid"},
                   "--modes takes a comma list of scalar/native, got "
                   "'scalar,liquid'");
    for (const char *w : {"0", "3", "32", "abc", "08", ""}) {
        expectRejected({"-w", w}, std::string("-w takes one of 2/4/8/16, "
                                              "got '") + w + "'");
    }
    expectRejected({"--widths", "4,abc"},
                   "--widths takes a comma list of 2/4/8/16, got '4,abc'");
    expectRejected({"--widths", "4,"},
                   "--widths takes a comma list of 2/4/8/16, got '4,'");
}

TEST(Cli, MalformedRegexIsRejected)
{
    for (const char *bad : {"(", "[a", "a{2,1}", "*"}) {
        expectRejected({"--filter", bad},
                       std::string("--filter takes a regular expression, "
                                   "got '") + bad + "'");
    }
}

TEST(Cli, RejectedValueLeavesTheDefault)
{
    Fields f;
    EXPECT_EQ(parse(f, {"--widths", "4,3"}).status, 2);
    EXPECT_EQ(f.widths, (std::vector<unsigned>{2, 4, 8, 16}));
    EXPECT_EQ(parse(f, {"--jobs", "5x"}).status, 2);
    EXPECT_EQ(f.jobs, 7u);
    EXPECT_EQ(parse(f, {"--filter", "("}).status, 2);
    EXPECT_EQ(f.filter.text, "");
}

TEST(Cli, MissingValueUnknownOptionAndExtraArgument)
{
    expectRejected({"--jobs"}, "missing value for --jobs");
    expectRejected({"prog.s", "-w"}, "missing value for -w");
    expectRejected({"--bogus"}, "unknown option '--bogus'");
    expectRejected({"--jobs=4"}, "unknown option '--jobs=4'");
    expectRejected({"-"}, "unknown option '-'");
    expectRejected({"a.s", "b.s"}, "unexpected argument 'b.s'");
}

TEST(Cli, HelpListsEveryOptionAndExitsZero)
{
    for (const char *help : {"-h", "--help"}) {
        Fields f;
        const Outcome o = parse(f, {"--jobs", "3", help, "--bogus"});
        EXPECT_EQ(o.status, std::optional<int>(0));
        EXPECT_EQ(o.err, "");
        EXPECT_EQ(o.out.rfind("usage: tool [options] file\n", 0), 0u);
        Fields g;
        for (const cli::Option &opt : command(g).options)
            EXPECT_NE(o.out.find(opt.synopsis), std::string::npos)
                << opt.synopsis;
    }
}

TEST(Cli, HelpWrapsAtColumn79)
{
    bool on = false;
    const std::string words(20, 'w');
    const std::string help = words + " " + words + " " + words;
    std::ostringstream os;
    cli::printOptions(os, {{"--long-option-name VALUE", help.c_str(),
                            cli::flag(on)}});
    const std::string indent(28, ' ');
    EXPECT_EQ(os.str(), "  --long-option-name VALUE  " + words + " " +
                            words + "\n" + indent + words + "\n");
}

TEST(Cli, SplitListKeepsEmptyItems)
{
    EXPECT_EQ(cli::splitList(""), (std::vector<std::string>{""}));
    EXPECT_EQ(cli::splitList("a,b,"),
              (std::vector<std::string>{"a", "b", ""}));
}

} // namespace
