#include "dd/complex_table.h"

#include <cmath>

namespace qkc {

namespace {

std::int64_t
bucketOf(double x)
{
    const double scaled = x / ComplexTable::kTolerance;
    // Clamp: buckets only need to distinguish values, not represent them.
    if (scaled > 9.2e18)
        return INT64_MAX;
    if (scaled < -9.2e18)
        return INT64_MIN;
    return static_cast<std::int64_t>(std::llround(scaled));
}

} // namespace

const double*
ComplexTable::intern(double x)
{
    const std::int64_t b = bucketOf(x);
    // A value within kTolerance of x lives in bucket b or a neighbor.
    const std::int64_t candidates[3] = {
        b == INT64_MIN ? b : b - 1, b, b == INT64_MAX ? b : b + 1};
    for (std::int64_t nb : candidates) {
        auto it = buckets_.find(nb);
        if (it == buckets_.end())
            continue;
        for (const double* v : it->second) {
            if (std::abs(*v - x) <= kTolerance)
                return v;
        }
    }
    double* slot;
    if (!freeSlots_.empty()) {
        // Reuse a slot a sweep recycled; addresses of live entries are
        // untouched either way (deque storage never relocates).
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        *slot = x;
    } else {
        storage_.push_back(x);
        slot = &storage_.back();
    }
    buckets_[b].push_back(slot);
    ++liveCount_;
    return slot;
}

void
ComplexTable::sweep(const std::unordered_set<const double*>& live)
{
    std::unordered_map<std::int64_t, std::vector<const double*>> kept;
    std::size_t keptCount = 0;
    for (auto& [bucket, entries] : buckets_) {
        for (const double* p : entries) {
            if (live.count(p) != 0) {
                kept[bucket].push_back(p);
                ++keptCount;
            } else {
                freeSlots_.push_back(const_cast<double*>(p));
            }
        }
    }
    buckets_ = std::move(kept);
    liveCount_ = keptCount;
}

} // namespace qkc
