#ifndef QKC_UTIL_CLI_H
#define QKC_UTIL_CLI_H

#include <cstdint>
#include <map>
#include <string>

namespace qkc {

/**
 * Minimal --key=value / --flag command line parser for the benchmark
 * harness binaries (every bench accepts e.g. --max-qubits=16 --samples=500
 * so the paper experiments can be re-run at reduced or full scale).
 */
class Cli {
  public:
    Cli(int argc, char** argv);

    /** True if --name or --name=... was passed. */
    bool has(const std::string& name) const;

    std::string getString(const std::string& name, const std::string& dflt) const;

    /**
     * The flag's value as a number, or `dflt` when the flag is absent. The
     * whole value must parse: an empty value, trailing characters
     * (`--samples=1e3` for an integer, `--x=12abc`), a non-number or an
     * out-of-range value throws std::invalid_argument
     * ("--name=value: not a number").
     */
    std::int64_t getInt(const std::string& name, std::int64_t dflt) const;
    double getDouble(const std::string& name, double dflt) const;

  private:
    std::map<std::string, std::string> args_;
};

} // namespace qkc

#endif // QKC_UTIL_CLI_H
