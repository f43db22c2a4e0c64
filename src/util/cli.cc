#include "util/cli.h"

#include <cerrno>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace qkc {

Cli::Cli(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string_view arg(argv[i]);
        if (arg.substr(0, 2) != "--")
            continue;
        arg.remove_prefix(2);
        auto eq = arg.find('=');
        if (eq == std::string_view::npos)
            args_[std::string(arg)] = "";
        else
            args_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
}

bool
Cli::has(const std::string& name) const
{
    return args_.count(name) > 0;
}

std::string
Cli::getString(const std::string& name, const std::string& dflt) const
{
    auto it = args_.find(name);
    return it == args_.end() ? dflt : it->second;
}

namespace {

/**
 * Parses the whole of `value` with `parse` (a strtoll/strtod wrapper):
 * empty input, leading blanks, trailing characters and out-of-range
 * values are refused as `--name=value: not a number`.
 */
template <class T, class Parse>
T
parseNumber(const std::string& name, const std::string& value, Parse parse)
{
    const char* begin = value.c_str();
    char* end = nullptr;
    errno = 0;
    const T v = parse(begin, &end);
    if (value.empty() || std::isspace(static_cast<unsigned char>(value[0])) ||
        end != begin + value.size() || errno == ERANGE)
        throw std::invalid_argument("--" + name + "=" + value +
                                    ": not a number");
    return v;
}

} // namespace

std::int64_t
Cli::getInt(const std::string& name, std::int64_t dflt) const
{
    auto it = args_.find(name);
    if (it == args_.end())
        return dflt;
    return parseNumber<std::int64_t>(
        name, it->second,
        [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

double
Cli::getDouble(const std::string& name, double dflt) const
{
    auto it = args_.find(name);
    if (it == args_.end())
        return dflt;
    return parseNumber<double>(name, it->second, [](const char* s, char** end) {
        return std::strtod(s, end);
    });
}

} // namespace qkc
