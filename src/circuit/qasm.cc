#include "circuit/qasm.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace qkc {

namespace {

/** Minimal arithmetic evaluator for QASM angle expressions. */
class AngleParser {
  public:
    AngleParser(const std::string& text, std::size_t maxDepth)
        : text_(text), maxDepth_(maxDepth)
    {
    }

    double parse()
    {
        double v = expr();
        skipWs();
        if (pos_ != text_.size())
            throw std::invalid_argument("bad angle: " + text_);
        if (!std::isfinite(v))
            throw std::invalid_argument("non-finite angle: " +
                                        text_);
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }
    bool consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    /**
     * Recursion guard: unary minus and parentheses both recurse once per
     * nesting level, so a hostile "((((…" or "----…" chain would otherwise
     * walk the stack off a cliff instead of returning an error.
     */
    struct DepthGuard {
        explicit DepthGuard(AngleParser& p) : parser(p)
        {
            if (++parser.depth_ > parser.maxDepth_)
                throw std::invalid_argument(
                    "angle expression nested too deeply: " +
                    parser.text_);
        }
        ~DepthGuard() { --parser.depth_; }
        AngleParser& parser;
    };
    double expr()
    {
        double v = term();
        for (;;) {
            if (consume('+'))
                v += term();
            else if (consume('-'))
                v -= term();
            else
                return v;
        }
    }
    double term()
    {
        double v = unary();
        for (;;) {
            if (consume('*'))
                v *= unary();
            else if (consume('/'))
                v /= unary();
            else
                return v;
        }
    }
    double unary()
    {
        DepthGuard guard(*this);
        if (consume('-'))
            return -unary();
        return atom();
    }
    double atom()
    {
        skipWs();
        if (consume('(')) {
            DepthGuard guard(*this);
            double v = expr();
            if (!consume(')'))
                throw std::invalid_argument("missing ')'");
            return v;
        }
        if (text_.compare(pos_, 2, "pi") == 0) {
            pos_ += 2;
            return M_PI;
        }
        std::size_t end = pos_;
        while (end < text_.size() &&
               (std::isdigit(text_[end]) || text_[end] == '.' ||
                text_[end] == 'e' || text_[end] == 'E' ||
                ((text_[end] == '+' || text_[end] == '-') && end > pos_ &&
                 (text_[end - 1] == 'e' || text_[end - 1] == 'E'))))
            ++end;
        if (end == pos_)
            throw std::invalid_argument("bad angle: " + text_);
        double v = 0.0;
        try {
            v = std::stod(text_.substr(pos_, end - pos_));
        } catch (const std::exception&) {
            // stoull/stod throw out_of_range on e.g. "1e99999" — fold it
            // into the parser's own error currency.
            throw std::invalid_argument("angle literal out of range: " +
                                        text_);
        }
        pos_ = end;
        return v;
    }

    std::string text_;
    std::size_t maxDepth_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

/**
 * An unsigned decimal index (qreg size, qubit operand) with nothing else in
 * the token — std::stoul alone would accept "3garbage", throw raw
 * out_of_range on 2^70, and accept "-1" by wrapping it to 2^64-7.
 */
std::size_t
parseIndex(const std::string& token, const char* what)
{
    if (token.empty() ||
        token.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument(std::string("bad ") + what + " \"" +
                                    token + "\"");
    try {
        return std::stoul(token);
    } catch (const std::exception&) {
        throw std::invalid_argument(std::string(what) + " out of range: \"" +
                                    token + "\"");
    }
}

/** A finite decimal number with nothing else in the token. */
double
parseNumber(const std::string& token)
{
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (token.empty() || *end != '\0' || !std::isfinite(v))
        throw std::invalid_argument("bad noise parameter \"" + token + "\"");
    return v;
}

/** The gate a qelib1 name spells, or null. */
const GateInfo*
findGate(const std::string& name)
{
    static constexpr std::pair<const char*, GateKind> kAliases[] = {
        {"p", GateKind::PhaseZ}, {"cp", GateKind::CPhase}, {"CX", GateKind::CNOT}};
    for (const GateInfo& info : kGateInfo)
        if (info.qasm && name == info.qasm)
            return &info;
    for (const auto& [alias, kind] : kAliases)
        if (name == alias)
            return &gateInfo(kind);
    return nullptr;
}

/**
 * The channel of `// qkc.noise <tag> <qubits…> <params…>`, given the text
 * after the marker; NoiseChannel::make checks the counts.
 */
NoiseChannel
parseNoise(const std::string& args)
{
    std::istringstream ns(args);
    std::string tag;
    ns >> tag;
    const NoiseInfo* info = std::find_if(
        std::begin(kNoiseInfo), std::end(kNoiseInfo),
        [&tag](const NoiseInfo& row) { return tag == row.tag; });
    if (info == std::end(kNoiseInfo))
        throw std::invalid_argument("unknown noise tag \"" + tag + "\"");
    std::vector<std::size_t> qubits;
    std::vector<double> params;
    for (std::string token; ns >> token;) {
        if (qubits.size() < info->qubits)
            qubits.push_back(parseIndex(token, "noise qubit"));
        else
            params.push_back(parseNumber(token));
    }
    return NoiseChannel::make(info->kind, qubits, params);
}

std::string
trim(const std::string& s)
{
    auto b = s.find_first_not_of(" \t\r");
    auto e = s.find_last_not_of(" \t\r");
    return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
}

} // namespace

void
writeQasm(const Circuit& circuit, std::ostream& os)
{
    os << "OPENQASM 2.0;\n";
    os << "include \"qelib1.inc\";\n";
    os << "qreg q[" << circuit.numQubits() << "];\n";
    os << "creg c[" << circuit.numQubits() << "];\n";

    char number[32];
    for (const auto& op : circuit.operations()) {
        if (const NoiseChannel* ch = std::get_if<NoiseChannel>(&op)) {
            os << "// qkc.noise " << noiseInfo(ch->kind()).tag;
            for (std::size_t qi : ch->qubits())
                os << " " << qi;
            for (double p : ch->params()) {
                std::snprintf(number, sizeof(number), "%.17g", p);
                os << " " << number;
            }
            os << "\n";
            continue;
        }
        const Gate& g = std::get<Gate>(op);
        const GateInfo& info = gateInfo(g.kind());
        const auto& qs = g.qubits();
        if (g.kind() == GateKind::CCZ) {
            // qelib1 has no ccz; conjugate a Toffoli with Hadamards.
            os << "h q[" << qs[2] << "];\n";
            os << "ccx q[" << qs[0] << "],q[" << qs[1] << "],q[" << qs[2]
               << "];\n";
            os << "h q[" << qs[2] << "];\n";
            continue;
        }
        if (!info.qasm)
            throw std::invalid_argument(
                "writeQasm: custom unitaries have no QASM 2.0 spelling");
        os << info.qasm;
        if (info.parameterized) {
            std::snprintf(number, sizeof(number), "%.17g", g.param());
            os << "(" << number << ")";
        }
        for (std::size_t i = 0; i < qs.size(); ++i)
            os << (i ? ",q[" : " q[") << qs[i] << "]";
        os << ";\n";
    }
}

std::string
toQasm(const Circuit& circuit)
{
    std::ostringstream os;
    writeQasm(circuit, os);
    return os.str();
}

Circuit
parseQasm(std::istream& is, const QasmLimits& limits)
{
    // Stop at the byte cap instead of draining an unbounded stream into
    // memory; one extra byte distinguishes "exactly at the cap" from
    // "past it" for the size check below.
    std::string text;
    text.reserve(std::min<std::size_t>(limits.maxBytes + 1, 1u << 16));
    std::istreambuf_iterator<char> it(is), end;
    while (it != end && text.size() <= limits.maxBytes)
        text.push_back(*it++);
    return parseQasm(text, limits);
}

Circuit
parseQasm(const std::string& text, const QasmLimits& limits)
{
    if (text.size() > limits.maxBytes)
        throw QasmParseError(
            "parseQasm: program exceeds the " +
            std::to_string(limits.maxBytes) + "-byte limit");
    std::unique_ptr<Circuit> circuit;
    std::string qregName;

    // Split into statements. A `// qkc.noise` comment is kept whole, as
    // written, so errors can quote it; no other statement starts "//".
    std::istringstream lines(text);
    std::string line;
    std::vector<std::string> statements;
    while (std::getline(lines, line)) {
        const auto comment = line.find("//");
        const std::string code = line.substr(0, comment);
        std::size_t start = 0;
        for (std::size_t i = 0; i < code.size(); ++i) {
            if (code[i] == ';') {
                statements.push_back(trim(code.substr(start, i - start)));
                start = i + 1;
            }
        }
        std::string rest = trim(code.substr(start));
        if (!rest.empty())
            statements.push_back(rest);
        if (comment != std::string::npos) {
            std::istringstream cs(line.substr(comment + 2));
            std::string tag;
            if (cs >> tag && tag == "qkc.noise")
                statements.push_back(trim(line.substr(comment)));
        }
    }

    // Caps and exception discipline for untrusted input: every statement
    // is processed under a catch-all that rewraps whatever the IR
    // constructors and the helpers above throw (an operand check, a
    // probability validation, a wrong channel arity) into a QasmParseError
    // quoting the statement — the parser's only failure mode.
    const auto append = [&](auto op) {
        if (!circuit)
            throw std::invalid_argument("operation before qreg");
        if (circuit->size() >= limits.maxOperations)
            throw QasmParseError(
                "parseQasm: program exceeds the " +
                std::to_string(limits.maxOperations) + "-operation limit");
        circuit->append(std::move(op));
    };

    for (const std::string& stmt : statements) {
        if (stmt.empty())
            continue;
        try {

        if (stmt.rfind("//", 0) == 0) {
            const std::string marker = "qkc.noise";
            append(parseNoise(stmt.substr(stmt.find(marker) + marker.size())));
            continue;
        }
        if (stmt.rfind("OPENQASM", 0) == 0 || stmt.rfind("include", 0) == 0 ||
            stmt.rfind("creg", 0) == 0 || stmt.rfind("measure", 0) == 0 ||
            stmt.rfind("barrier", 0) == 0)
            continue;
        if (stmt.rfind("qreg", 0) == 0) {
            auto lb = stmt.find('[');
            auto rb = stmt.find(']');
            if (lb == std::string::npos || rb == std::string::npos ||
                rb < lb)
                throw std::invalid_argument("bad qreg");
            if (circuit)
                throw std::invalid_argument("multiple qregs");
            qregName = trim(stmt.substr(4, lb - 4));
            const std::size_t n = parseIndex(
                trim(stmt.substr(lb + 1, rb - lb - 1)), "qreg size");
            circuit = std::make_unique<Circuit>(n);
            continue;
        }

        // Gate application: name[(angle)] operand[,operand...]
        std::string name, argText, operandText;
        auto paren = stmt.find('(');
        auto space = stmt.find_first_of(" \t");
        const bool hasAngle = paren != std::string::npos && paren < space;
        if (hasAngle) {
            name = trim(stmt.substr(0, paren));
            // Match the closing paren by depth (angles may nest parens).
            std::size_t close = std::string::npos;
            int depth = 0;
            for (std::size_t i = paren; i < stmt.size(); ++i) {
                if (stmt[i] == '(')
                    ++depth;
                else if (stmt[i] == ')' && --depth == 0) {
                    close = i;
                    break;
                }
            }
            if (close == std::string::npos)
                throw std::invalid_argument("missing ')'");
            argText = stmt.substr(paren + 1, close - paren - 1);
            operandText = trim(stmt.substr(close + 1));
        } else {
            if (space == std::string::npos)
                throw std::invalid_argument("bad statement");
            name = trim(stmt.substr(0, space));
            operandText = trim(stmt.substr(space + 1));
        }

        const GateInfo* info = findGate(name);
        if (!info)
            throw std::invalid_argument("unsupported gate " + name);
        if (info->parameterized != hasAngle)
            throw std::invalid_argument(
                name + (hasAngle ? " takes no angle" : " needs an angle"));
        const double theta =
            hasAngle ? AngleParser(argText, limits.maxAngleDepth).parse()
                     : 0.0;

        std::vector<std::size_t> qubits;
        std::istringstream ops(operandText);
        std::string operand;
        while (std::getline(ops, operand, ',')) {
            operand = trim(operand);
            auto lb = operand.find('[');
            auto rb = operand.find(']');
            if (lb == std::string::npos || rb == std::string::npos ||
                rb < lb)
                throw std::invalid_argument(
                    "whole-register operations unsupported: " + operand);
            std::string reg = trim(operand.substr(0, lb));
            if (reg != qregName)
                throw std::invalid_argument("unknown register " + reg);
            qubits.push_back(parseIndex(
                trim(operand.substr(lb + 1, rb - lb - 1)), "qubit index"));
        }
        append(Gate(info->kind, qubits, theta));

        } catch (const QasmParseError&) {
            throw;
        } catch (const std::exception& e) {
            throw QasmParseError("parseQasm: invalid statement \"" + stmt +
                                 "\": " + e.what());
        }
    }

    if (!circuit)
        throw QasmParseError("parseQasm: no qreg declaration");
    return std::move(*circuit);
}

} // namespace qkc
