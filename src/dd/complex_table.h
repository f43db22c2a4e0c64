#ifndef QKC_DD_COMPLEX_TABLE_H
#define QKC_DD_COMPLEX_TABLE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "linalg/types.h"

namespace qkc {

/**
 * DDSIM-style interning table for edge-weight components.
 *
 * Hash tables need exact keys but floating-point weights need a tolerance.
 * The seed package approximated the standard resolution by snapping each
 * component to a fixed 1e-12 grid, which merges correctly *within* a cell
 * but misses values that straddle a cell boundary. This table implements
 * the real thing: lookup returns the canonical stored representative
 * within kTolerance of the query (checking the neighboring buckets, so
 * boundary straddle cannot cause a miss), inserting the value as the new
 * canonical representative if none exists.
 *
 * Returned pointers are stable for the lifetime of the table (deque
 * storage), so two weights are equal-within-tolerance iff their canonical
 * pointers are equal — exactly what unique-table keys require.
 */
class ComplexTable {
  public:
    /**
     * Merge tolerance. An order of magnitude below the seed's 1e-12 grid
     * and three below the library-wide kAmpEps = 1e-9: snapping a weight to
     * its canonical representative perturbs amplitudes far less than the
     * dedup itself already did.
     */
    static constexpr double kTolerance = 1e-13;

    /** Canonical representative within kTolerance of x (inserts if none). */
    const double* intern(double x);

    /** Number of distinct live components. */
    std::size_t size() const { return liveCount_; }

    /** Storage slots ever allocated (live + free-listed). */
    std::size_t allocated() const { return storage_.size(); }

    /**
     * Garbage-collection hook: drops every entry whose pointer is not in
     * `live`, recycling its storage slot for future interns. Pointers in
     * `live` stay valid and canonical; swept pointers must no longer be
     * referenced anywhere (DdPackage::garbageCollect computes `live` from
     * the surviving unique-table keys, which are the only holders).
     */
    void sweep(const std::unordered_set<const double*>& live);

  private:
    std::deque<double> storage_;
    std::vector<double*> freeSlots_;
    std::size_t liveCount_ = 0;
    std::unordered_map<std::int64_t, std::vector<const double*>> buckets_;
};

/** A complex weight as a pair of canonical component pointers. */
struct InternedComplex {
    const double* re = nullptr;
    const double* im = nullptr;

    bool operator==(const InternedComplex& o) const
    {
        return re == o.re && im == o.im;
    }

    Complex value() const { return Complex(*re, *im); }
};

inline InternedComplex
internComplex(ComplexTable& table, const Complex& w)
{
    return InternedComplex{table.intern(w.real()), table.intern(w.imag())};
}

} // namespace qkc

#endif // QKC_DD_COMPLEX_TABLE_H
