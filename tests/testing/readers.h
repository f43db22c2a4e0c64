#ifndef QKC_TESTS_TESTING_READERS_H
#define QKC_TESTS_TESTING_READERS_H

#include <iosfwd>

#include "ac/arithmetic_circuit.h"
#include "cnf/cnf.h"

namespace qkc::testing {

/**
 * Readers for the text formats the library writes, so tests can check a
 * writer by round trip.
 */

/**
 * Reads an arithmetic circuit from the qnnf text format produced by
 * ArithmeticCircuit::writeNnf. Node ids are remapped through the hash-
 * consing constructor, so the result is semantically identical (same value
 * under every evidence/parameter setting) though node ids may differ.
 */
ArithmeticCircuit readNnf(std::istream& is);

/** Parses the extended DIMACS produced by Cnf::writeDimacs. */
Cnf readDimacs(std::istream& is);

} // namespace qkc::testing

#endif // QKC_TESTS_TESTING_READERS_H
