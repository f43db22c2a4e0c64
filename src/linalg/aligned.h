#ifndef QKC_LINALG_ALIGNED_H
#define QKC_LINALG_ALIGNED_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "linalg/types.h"

namespace qkc {

/**
 * Minimal aligned allocator for amplitude buffers. 64 bytes covers a full
 * cache line (and two AVX2 ymm vectors), so a contiguous run of amplitudes
 * never starts on a split line and vector loads in the kernel sweeps stay
 * within naturally aligned lines.
 */
template <typename T, std::size_t Align = 64>
struct AlignedAllocator {
    static_assert((Align & (Align - 1)) == 0, "alignment must be a power of 2");
    static_assert(Align >= alignof(T), "alignment below the type's own");

    using value_type = T;

    AlignedAllocator() noexcept = default;

    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept
    {
    }

    template <typename U>
    struct rebind {
        using other = AlignedAllocator<U, Align>;
    };

    T* allocate(std::size_t n)
    {
        return static_cast<T*>(::operator new(
            n * sizeof(T), static_cast<std::align_val_t>(Align)));
    }

    void deallocate(T* p, std::size_t) noexcept
    {
        ::operator delete(p, static_cast<std::align_val_t>(Align));
    }

    /**
     * Value-initialization (vector(n), resize(n)) leaves the storage
     * untouched: every owner of a 2^n buffer fills it itself, in parallel,
     * so its pages are first touched by the lanes that sweep them.
     */
    template <typename U>
    void construct(U*) noexcept
    {
    }

    template <typename U, typename... Args>
    void construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }

    friend bool operator==(const AlignedAllocator&, const AlignedAllocator&)
    {
        return true;
    }
    friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&)
    {
        return false;
    }
};

/**
 * The amplitude container used by StateVector / DensityMatrix and exec
 * scratch buffers: std::vector semantics, 64-byte-aligned storage.
 */
using AmpVector = std::vector<Complex, AlignedAllocator<Complex, 64>>;

// The SIMD kernels reinterpret Complex* as interleaved (re, im) double
// pairs; pin the layout assumptions they rely on.
static_assert(sizeof(Complex) == 2 * sizeof(double),
              "Complex must be exactly an interleaved (re, im) double pair");
static_assert(alignof(Complex) <= 64,
              "Complex alignment exceeds the amplitude buffer alignment");
static_assert(std::is_trivially_copyable<Complex>::value,
              "Complex amplitudes must be memcpy-safe for vector load/store");

} // namespace qkc

#endif // QKC_LINALG_ALIGNED_H
