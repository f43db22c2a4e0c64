#include "cnf/cnf.h"

#include <ostream>

namespace qkc {

std::size_t
Cnf::numIndicatorVars() const
{
    std::size_t n = 0;
    for (const auto& v : vars)
        n += v.kind != CnfVarKind::Param;
    return n;
}

void
Cnf::writeDimacs(std::ostream& os) const
{
    os << "c qkc quantum Bayesian network CNF\n";
    os << "p cnf " << vars.size() << " " << clauses.size() << "\n";
    for (std::size_t i = 0; i < vars.size(); ++i) {
        const auto& v = vars[i];
        switch (v.kind) {
          case CnfVarKind::BinaryIndicator:
            os << "c qkc ind " << i + 1 << " " << v.bnVar << " "
               << (v.query ? 1 : 0) << "\n";
            break;
          case CnfVarKind::OneHotIndicator:
            os << "c qkc hot " << i + 1 << " " << v.bnVar << " " << v.value
               << " " << (v.query ? 1 : 0) << "\n";
            break;
          case CnfVarKind::Param:
            os << "c qkc par " << i + 1 << " " << v.paramId << "\n";
            break;
        }
    }
    for (const Clause& c : clauses) {
        for (int lit : c)
            os << lit << " ";
        os << "0\n";
    }
}

} // namespace qkc
