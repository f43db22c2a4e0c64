#include "testing/readers.h"

#include <algorithm>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace qkc::testing {

ArithmeticCircuit
readNnf(std::istream& is)
{
    std::string header;
    std::size_t numNodes = 0, numEdges = 0;
    is >> header >> numNodes >> numEdges;
    if (header != "qnnf")
        throw std::invalid_argument("readNnf: bad header");

    ArithmeticCircuit ac;
    std::vector<AcNodeId> remap;
    remap.reserve(numNodes);

    std::string tag;
    while (is >> tag) {
        if (tag == "I") {
            BnVarId var;
            std::uint32_t value;
            is >> var >> value;
            remap.push_back(ac.indicator(var, value));
        } else if (tag == "P") {
            std::int32_t paramId;
            is >> paramId;
            remap.push_back(ac.param(paramId));
        } else if (tag == "C") {
            double re, im;
            is >> re >> im;
            remap.push_back(ac.constant(Complex{re, im}));
        } else if (tag == "A" || tag == "O") {
            std::size_t k;
            is >> k;
            std::vector<AcNodeId> children(k);
            for (std::size_t i = 0; i < k; ++i) {
                std::size_t old;
                is >> old;
                if (old >= remap.size())
                    throw std::invalid_argument("readNnf: forward reference");
                children[i] = remap[old];
            }
            remap.push_back(tag == "A" ? ac.mul(std::move(children))
                                       : ac.add(std::move(children)));
        } else if (tag == "R") {
            std::size_t root;
            is >> root;
            if (root >= remap.size())
                throw std::invalid_argument("readNnf: bad root");
            ac.setRoot(remap[root]);
            return ac;
        } else {
            throw std::invalid_argument("readNnf: unknown tag " + tag);
        }
    }
    throw std::invalid_argument("readNnf: missing root line");
}

Cnf
readDimacs(std::istream& is)
{
    Cnf cnf;
    std::string line;
    std::size_t expectedVars = 0;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        if (line[0] == 'c') {
            std::string c, tag, kind;
            ls >> c >> tag;
            if (tag != "qkc")
                continue;
            ls >> kind;
            if (kind == "ind") {
                std::size_t idx;
                CnfVariable v;
                v.kind = CnfVarKind::BinaryIndicator;
                int query;
                ls >> idx >> v.bnVar >> query;
                v.query = query != 0;
                if (cnf.vars.size() < idx)
                    cnf.vars.resize(idx);
                cnf.vars[idx - 1] = v;
            } else if (kind == "hot") {
                std::size_t idx;
                CnfVariable v;
                v.kind = CnfVarKind::OneHotIndicator;
                int query;
                ls >> idx >> v.bnVar >> v.value >> query;
                v.query = query != 0;
                if (cnf.vars.size() < idx)
                    cnf.vars.resize(idx);
                cnf.vars[idx - 1] = v;
            } else if (kind == "par") {
                std::size_t idx;
                CnfVariable v;
                v.kind = CnfVarKind::Param;
                ls >> idx >> v.paramId;
                if (cnf.vars.size() < idx)
                    cnf.vars.resize(idx);
                cnf.vars[idx - 1] = v;
            }
            continue;
        }
        if (line[0] == 'p') {
            std::string p, fmt;
            std::size_t numClauses;
            ls >> p >> fmt >> expectedVars >> numClauses;
            continue;
        }
        Clause clause;
        int lit;
        while (ls >> lit && lit != 0)
            clause.push_back(lit);
        if (!clause.empty())
            cnf.clauses.push_back(std::move(clause));
    }
    if (cnf.vars.size() < expectedVars)
        cnf.vars.resize(expectedVars);

    // Rebuild the BN-variable -> indicator map.
    BnVarId maxBn = 0;
    for (const auto& v : cnf.vars)
        if (v.kind != CnfVarKind::Param)
            maxBn = std::max(maxBn, v.bnVar);
    cnf.bnVarIndicators.assign(maxBn + 1, {});
    for (std::size_t i = 0; i < cnf.vars.size(); ++i) {
        const auto& v = cnf.vars[i];
        if (v.kind == CnfVarKind::Param)
            continue;
        auto& slots = cnf.bnVarIndicators[v.bnVar];
        if (v.kind == CnfVarKind::BinaryIndicator) {
            slots.assign(1, static_cast<int>(i + 1));
        } else {
            if (slots.size() <= v.value)
                slots.resize(v.value + 1, 0);
            slots[v.value] = static_cast<int>(i + 1);
        }
    }
    return cnf;
}

} // namespace qkc::testing
