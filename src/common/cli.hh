/**
 * @file
 * Option tables shared by the command-line tools.
 *
 * Each tool declares its options once, as rows of a table: a synopsis
 * (names and value placeholder), the help text and a typed target.
 * parse() walks argv against the table and printHelp() renders
 * `--help` from it, so every tool reads values by the same rules:
 *  - a value is the whole next token;
 *  - a number has no sign; an integer is decimal digits only and must
 *    fit its field; a double must be finite;
 *  - a choice is one of its listed names; a width is 2, 4, 8 or 16;
 *  - a regular expression must compile, and is compiled once, here;
 *  - a list is comma-separated; the first occurrence of a list option
 *    replaces its default and each repeat appends.
 * Any other value, a missing value or an unknown option prints one
 * line naming the option, and the tool exits 2.
 */

#ifndef LIQUID_COMMON_CLI_HH
#define LIQUID_COMMON_CLI_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace liquid::cli
{

/** The names a choice accepts, each with the value it stores. */
template <typename T>
using Names = std::vector<std::pair<const char *, T>>;

/** Split @p list at commas; an empty list is one empty item. */
inline std::vector<std::string>
splitList(std::string_view list)
{
    std::vector<std::string> out;
    for (std::size_t comma = 0; comma != std::string_view::npos;) {
        comma = list.find(',');
        out.emplace_back(list.substr(0, comma));
        list.remove_prefix(comma == list.npos ? list.size() : comma + 1);
    }
    return out;
}

/** Text to value; false unless @p text is the whole of one value. */
template <typename T>
bool
convert(std::string_view text, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = text;
        return true;
    } else {
        static_assert(std::is_unsigned_v<T> || std::is_same_v<T, double>);
        const char *end = text.data() + text.size();
        T v{};
        const auto [ptr, ec] = std::from_chars(text.data(), end, v);
        if (ec != std::errc{} || ptr != end || text[0] == '-' ||
            !std::isfinite(double(v)))
            return false;
        out = v;
        return true;
    }
}

/** What convert() accepts for T, for diagnostics. */
template <typename T>
std::string
kind()
{
    if constexpr (std::is_same_v<T, std::string>)
        return "value";
    else if constexpr (std::is_same_v<T, double>)
        return "finite unsigned number";
    else
        return "decimal integer up to " +
               std::to_string(std::numeric_limits<T>::max());
}

/** The typed destination of one option. */
struct Target
{
    /** How a valid value reads; empty for a flag, which takes none. */
    std::string expects;
    /** Store a value; false when it is malformed. */
    std::function<bool(const std::string &)> store;
};

/** A flag: sets @p out to @p value. */
inline Target
flag(bool &out, bool value = true)
{
    return {"", [&out, value](const std::string &) {
                out = value;
                return true;
            }};
}

/** A string, an unsigned integer or a double. */
template <typename T>
Target
value(T &out)
{
    return {"a " + kind<T>(),
            [&out](const std::string &s) { return convert(s, out); }};
}

/** A regular expression as given and compiled. */
struct Regex
{
    std::string text;  ///< empty when the option was not given
    std::regex compiled;
};

/** A regular expression (ECMAScript grammar). */
inline Target
regex(Regex &out)
{
    return {"a regular expression", [&out](const std::string &s) {
                try {
                    out = {s, std::regex(s)};
                    return true;
                } catch (const std::regex_error &) {
                    return false;
                }
            }};
}

/** The names of @p names, '/'-separated, for diagnostics. */
template <typename T>
std::string
join(const Names<T> &names)
{
    std::string s;
    for (const auto &[name, v] : names)
        s += (s.empty() ? "" : "/") + std::string(name);
    return s;
}

/** One of @p names. */
template <typename T>
Target
choice(T &out, std::type_identity_t<Names<T>> names)
{
    return {"one of " + join(names), [&out, names](const std::string &s) {
                for (const auto &[name, v] : names) {
                    if (s == name) {
                        out = v;
                        return true;
                    }
                }
                return false;
            }};
}

/** A comma list of @p what, each item read as @p item reads it. */
template <typename T>
Target
listOf(std::vector<T> &out, const std::string &what,
       std::function<Target(T &)> item)
{
    return {"a comma list of " + what,
            [&out, item, fresh = true](const std::string &s) mutable {
                std::vector<T> items;
                for (const std::string &text : splitList(s)) {
                    if (!item(items.emplace_back()).store(text))
                        return false;
                }
                if (std::exchange(fresh, false))
                    out.clear();
                out.insert(out.end(), items.begin(), items.end());
                return true;
            }};
}

/** A comma list of strings, unsigned integers or doubles. */
template <typename T>
Target
list(std::vector<T> &out)
{
    return listOf<T>(out, kind<T>() + "s", [](T &v) { return value(v); });
}

/** A comma list of names from @p names. */
template <typename T>
Target
list(std::vector<T> &out, std::type_identity_t<Names<T>> names)
{
    return listOf<T>(out, join(names),
                     [names](T &v) { return choice(v, names); });
}

/** The accelerator widths. */
inline const Names<unsigned> widthNames{
    {"2", 2}, {"4", 4}, {"8", 8}, {"16", 16}};

inline Target
width(unsigned &out)
{
    return choice(out, widthNames);
}

inline Target
widths(std::vector<unsigned> &out)
{
    return list(out, widthNames);
}

/** One row of an option table. */
struct Option
{
    const char *synopsis;  ///< names, then a placeholder: "-w, --width N"
    const char *help;
    Target target;
};

/** One command's options and positional arguments. */
struct Command
{
    std::string usage;  ///< printed above the option list
    std::vector<Option> options;
    /** Positional arguments land here; null when none are taken. */
    std::vector<std::string> *args = nullptr;
    std::size_t maxArgs = std::numeric_limits<std::size_t>::max();
};

/** Render @p options as two columns, help wrapped at 79. */
inline void
printOptions(std::ostream &os, const std::vector<Option> &options)
{
    std::size_t column = 0;
    for (const Option &o : options)
        column = std::max(column, std::string_view(o.synopsis).size() + 4);
    for (const Option &o : options) {
        std::string line = std::string("  ") + o.synopsis;
        std::istringstream words(o.help);
        for (std::string word, sep; words >> word; sep = " ") {
            if (line.size() >= column &&
                line.size() + sep.size() + word.size() > 79) {
                os << line << '\n';
                line.clear();
                sep.clear();
            }
            line.resize(std::max(line.size(), column), ' ');
            line += sep + word;
        }
        os << line << '\n';
    }
}

inline void
printHelp(std::ostream &os, const Command &cmd)
{
    os << cmd.usage;
    printOptions(os, cmd.options);
}

/** Whether @p synopsis names @p arg. */
inline bool
matches(std::string_view synopsis, std::string_view arg)
{
    for (;;) {
        // A comma starts the next name; a space, the value placeholder.
        const std::size_t end = synopsis.find_first_of(", ");
        if (synopsis.substr(0, end) == arg)
            return true;
        if (end == std::string_view::npos || synopsis[end] == ' ')
            return false;
        synopsis.remove_prefix(end + 2);
    }
}

/**
 * Parse argv[first..argc) against @p cmd. Returns nullopt when the
 * tool should go on, or the status it should exit with: 0 after
 * printing --help, 2 after a one-line diagnostic on stderr.
 */
inline std::optional<int>
parse(const Command &cmd, int argc, char **argv, int first = 1)
{
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto opt = std::find_if(
            cmd.options.begin(), cmd.options.end(),
            [&](const Option &o) { return matches(o.synopsis, arg); });
        const bool takesValue =
            opt != cmd.options.end() && !opt->target.expects.empty();
        std::string value;
        if (arg == "-h" || arg == "--help") {
            printHelp(std::cout, cmd);
            return 0;
        } else if (arg.empty() || arg[0] != '-') {
            if (!cmd.args || cmd.args->size() >= cmd.maxArgs) {
                std::cerr << "unexpected argument '" << arg << "'\n";
                return 2;
            }
            cmd.args->push_back(arg);
            continue;
        } else if (opt == cmd.options.end()) {
            std::cerr << "unknown option '" << arg << "'\n";
            return 2;
        } else if (takesValue && i + 1 >= argc) {
            std::cerr << "missing value for " << arg << '\n';
            return 2;
        } else if (takesValue) {
            value = argv[++i];
        }
        if (!opt->target.store(value)) {
            std::cerr << arg << " takes " << opt->target.expects
                      << ", got '" << value << "'\n";
            return 2;
        }
    }
    return std::nullopt;
}

/** The file at @p path, or nullopt after printing "cannot open". */
inline std::optional<std::string>
readSource(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open '" << path << "'\n";
        return std::nullopt;
    }
    std::ostringstream source;
    source << in.rdbuf();
    return source.str();
}

} // namespace liquid::cli

#endif // LIQUID_COMMON_CLI_HH
