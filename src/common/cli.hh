/**
 * @file
 * Option parsing shared by the command-line tools.
 */

#ifndef LIQUID_COMMON_CLI_HH
#define LIQUID_COMMON_CLI_HH

#include <iostream>
#include <string>
#include <vector>

namespace liquid
{

/**
 * Parse the value of a `--widths` option: a comma-separated list of
 * accelerator widths, each exactly 2, 4, 8 or 16. @p arg is null when
 * the option has no value. On failure prints a one-line diagnostic to
 * stderr and returns false; the tools then exit 2.
 */
inline bool
parseWidths(const char *arg, std::vector<unsigned> &out)
{
    out.clear();
    const std::string list = arg != nullptr ? arg : "";
    for (std::size_t pos = 0; arg != nullptr;) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok = list.substr(pos, comma - pos);
        const unsigned w = tok == "2"    ? 2
                           : tok == "4"  ? 4
                           : tok == "8"  ? 8
                           : tok == "16" ? 16
                                         : 0;
        if (w == 0) {
            out.clear();
            break;
        }
        out.push_back(w);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (out.empty()) {
        std::cerr << "--widths takes a comma list of 2/4/8/16\n";
        return false;
    }
    return true;
}

} // namespace liquid

#endif // LIQUID_COMMON_CLI_HH
