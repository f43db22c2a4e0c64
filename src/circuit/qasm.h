#ifndef QKC_CIRCUIT_QASM_H
#define QKC_CIRCUIT_QASM_H

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "circuit/circuit.h"

namespace qkc {

/**
 * OpenQASM 2.0 interoperability for the circuit IR, so circuits written for
 * other toolchains (Qiskit, Cirq's exporter, staq, ...) can be fed into the
 * knowledge-compilation pipeline and vice versa.
 *
 * Gate vocabulary (kGateInfo's `qasm` column): id, x, y, z, h, s, sdg, t,
 * tdg, rx, ry, rz, u1, cx, cz, swap, crz, cu1, rzz, ccx, cswap; the reader
 * also takes the aliases p, cp and CX. CCZ is written as h+ccx+h. Custom
 * unitaries have no QASM 2.0 spelling and are rejected.
 *
 * Noise channels are structured comments, one per line:
 * `// qkc.noise <tag> <qubits…> <params…>`, with the tags and counts of
 * kNoiseInfo: bitflip, phaseflip, depolarizing, ampdamp, phasedamp (1
 * qubit, 1 parameter); adepolarizing (1 qubit; pX pY pZ); gad (1 qubit;
 * gamma p); depol2q (2 qubits, 1 parameter). The writer prints
 * NoiseChannel::params() with 17 significant digits, so a channel reads
 * back with the same parameter and Kraus bits. Foreign readers ignore
 * the comments.
 */

/** Serializes `circuit` as OpenQASM 2.0. */
void writeQasm(const Circuit& circuit, std::ostream& os);

/** Convenience wrapper returning a string. */
std::string toQasm(const Circuit& circuit);

/**
 * Every way parseQasm rejects an input: malformed syntax, truncated
 * statements, out-of-range numbers, non-finite angles, unknown gates, and
 * programs past the QasmLimits caps. Derives from std::invalid_argument so
 * pre-hardening callers keep catching what they caught; what() always
 * carries the offending statement. The parser throws nothing else — the
 * contract the server relies on when it feeds untrusted request bodies
 * through here.
 */
class QasmParseError : public std::invalid_argument {
  public:
    explicit QasmParseError(const std::string& what)
        : std::invalid_argument(what)
    {
    }
};

/**
 * Caps enforced while parsing. The defaults are far above any legitimate
 * program this toolchain can simulate, and low enough that a hostile input
 * cannot run the parser out of memory or stack (angle expressions recurse
 * per nesting level).
 */
struct QasmLimits {
    std::size_t maxBytes = 4u << 20;      ///< program size, bytes
    std::size_t maxOperations = 1u << 20; ///< parsed gates + noise channels
    std::size_t maxAngleDepth = 64;       ///< angle-expression nesting depth
};

/**
 * Parses an OpenQASM 2.0 program. Requirements: a single qreg, the
 * `qelib1.inc` vocabulary listed above, an angle on exactly the
 * parameterized gates, numeric angle expressions made of literals, `pi`,
 * unary minus, `*` and `/` (e.g. `-3*pi/4`), and noise comments with
 * their kind's qubit and parameter counts. `measure`,
 * `barrier`, and creg declarations are accepted and ignored (measurement is
 * implicit at the end of our circuits).
 *
 * Any invalid input — malformed, truncated, oversized, numerically
 * out-of-range — throws QasmParseError; no input crashes the parser or
 * makes it allocate past the limits. The istream form stops reading at the
 * byte cap instead of draining an unbounded stream.
 */
Circuit parseQasm(std::istream& is, const QasmLimits& limits = {});

/** Convenience wrapper parsing from a string. */
Circuit parseQasm(const std::string& text, const QasmLimits& limits = {});

} // namespace qkc

#endif // QKC_CIRCUIT_QASM_H
