/**
 * @file
 * Portable SIMD shim for the batched lattice kernels.
 *
 * VDouble is a fixed-width pack of doubles with exactly the vertical
 * (element-wise) operations the lattice hot paths need: arithmetic,
 * min/max, comparisons, and branchless select. Two backends provide
 * it:
 *
 *  - std::experimental::simd (native width for the translation unit's
 *    target ISA) when the HARMONIA_SIMD CMake option is ON and the
 *    header exists;
 *  - a fixed-width scalar-loop fallback otherwise, written so the
 *    autovectorizer can do what it likes — the semantics are the
 *    per-lane scalar expressions either way.
 *
 * Determinism contract (docs/MODEL.md §9): every operation here is a
 * lane-wise IEEE-754 exactly-rounded op (+ - * /, min/max on non-NaN
 * inputs, compares, select). No operation reassociates, reduces
 * across lanes, or contracts into FMA (the TUs including this header
 * are compiled with -ffp-contract=off), so a vertical kernel built
 * from these ops is bitwise identical to its scalar mirror at any
 * vector width — which is what lets the batched lattice path promise
 * byte-identical results to the naive GpuDevice::run() reference.
 *
 * Tail handling: loadN/storeN process a partial pack at a table edge.
 * loadN replicates the last valid element into the padding lanes so
 * they hold finite in-domain values (no spurious NaN/inf arithmetic);
 * storeN writes only the first n lanes back.
 *
 * ODR note: the pack width follows the including TU's target flags.
 * Every TU that includes this header must be compiled with the same
 * HARMONIA_SIMD_SOURCE_OPTIONS (top-level CMakeLists.txt), so there is
 * exactly one VDouble layout per build.
 */

#ifndef HARMONIA_COMMON_SIMD_HH
#define HARMONIA_COMMON_SIMD_HH

#include <cstddef>

#ifndef HARMONIA_SIMD
#define HARMONIA_SIMD 1
#endif

#if HARMONIA_SIMD && defined(__has_include)
#if __has_include(<experimental/simd>)
#define HARMONIA_SIMD_STDX 1
#endif
#endif
#ifndef HARMONIA_SIMD_STDX
#define HARMONIA_SIMD_STDX 0
#endif

#if HARMONIA_SIMD_STDX
#include <experimental/simd>
#endif

namespace harmonia::simd
{

#if HARMONIA_SIMD_STDX

namespace stdx = std::experimental;

class VMask;

/** A pack of doubles at the TU's native vector width. */
class VDouble
{
  public:
    using Native = stdx::native_simd<double>;
    static constexpr size_t width = Native::size();

    VDouble() = default;
    explicit VDouble(double broadcast) : v_(broadcast) {}
    explicit VDouble(Native v) : v_(v) {}

    /** Load width lanes from @p p (unaligned). */
    static VDouble load(const double *p)
    {
        return VDouble(Native(p, stdx::element_aligned));
    }

    /** Load @p n <= width lanes; padding lanes replicate p[n-1]. */
    static VDouble loadN(const double *p, size_t n)
    {
        if (n >= width)
            return load(p);
        Native v(p[n - 1]);
        for (size_t i = 0; i < n; ++i)
            v[i] = p[i];
        return VDouble(v);
    }

    void store(double *p) const { v_.copy_to(p, stdx::element_aligned); }

    /** Store only the first @p n <= width lanes. */
    void storeN(double *p, size_t n) const
    {
        if (n >= width) {
            store(p);
            return;
        }
        for (size_t i = 0; i < n; ++i)
            p[i] = v_[i];
    }

    double operator[](size_t i) const { return v_[i]; }

    friend VDouble operator+(VDouble a, VDouble b)
    {
        return VDouble(a.v_ + b.v_);
    }
    friend VDouble operator-(VDouble a, VDouble b)
    {
        return VDouble(a.v_ - b.v_);
    }
    friend VDouble operator*(VDouble a, VDouble b)
    {
        return VDouble(a.v_ * b.v_);
    }
    friend VDouble operator/(VDouble a, VDouble b)
    {
        return VDouble(a.v_ / b.v_);
    }

    friend class VMask;
    friend VDouble select(VMask m, VDouble a, VDouble b);
    friend VDouble vmin(VDouble a, VDouble b);
    friend VDouble vmax(VDouble a, VDouble b);
    friend VMask operator>=(VDouble a, VDouble b);
    friend VMask operator>(VDouble a, VDouble b);

  private:
    Native v_{};
};

/** Lane-wise boolean companion of VDouble. */
class VMask
{
  public:
    using Native = stdx::native_simd_mask<double>;

    VMask() = default;
    explicit VMask(Native m) : m_(m) {}

    bool operator[](size_t i) const { return m_[i]; }

    friend VMask operator&&(VMask a, VMask b)
    {
        return VMask(a.m_ && b.m_);
    }

    /** Branchless per-lane select: m ? a : b. */
    friend VDouble select(VMask m, VDouble a, VDouble b)
    {
        VDouble::Native r = b.v_;
        stdx::where(m.m_, r) = a.v_;
        return VDouble(r);
    }

  private:
    Native m_{};
};

inline VDouble
vmin(VDouble a, VDouble b)
{
    return VDouble(stdx::min(a.v_, b.v_));
}

inline VDouble
vmax(VDouble a, VDouble b)
{
    return VDouble(stdx::max(a.v_, b.v_));
}

inline VMask
operator>=(VDouble a, VDouble b)
{
    return VMask(a.v_ >= b.v_);
}

inline VMask
operator>(VDouble a, VDouble b)
{
    return VMask(a.v_ > b.v_);
}

#else // !HARMONIA_SIMD_STDX — autovectorizable scalar fallback

class VMask;

/** Fixed-width fallback pack; plain per-lane loops. */
class VDouble
{
  public:
    static constexpr size_t width = 4;

    VDouble() = default;
    explicit VDouble(double broadcast)
    {
        for (size_t i = 0; i < width; ++i)
            v_[i] = broadcast;
    }

    static VDouble load(const double *p)
    {
        VDouble out;
        for (size_t i = 0; i < width; ++i)
            out.v_[i] = p[i];
        return out;
    }

    static VDouble loadN(const double *p, size_t n)
    {
        if (n >= width)
            return load(p);
        VDouble out(p[n - 1]);
        for (size_t i = 0; i < n; ++i)
            out.v_[i] = p[i];
        return out;
    }

    void store(double *p) const
    {
        for (size_t i = 0; i < width; ++i)
            p[i] = v_[i];
    }

    void storeN(double *p, size_t n) const
    {
        if (n >= width) {
            store(p);
            return;
        }
        for (size_t i = 0; i < n; ++i)
            p[i] = v_[i];
    }

    double operator[](size_t i) const { return v_[i]; }

    friend VDouble operator+(VDouble a, VDouble b)
    {
        VDouble out;
        for (size_t i = 0; i < width; ++i)
            out.v_[i] = a.v_[i] + b.v_[i];
        return out;
    }
    friend VDouble operator-(VDouble a, VDouble b)
    {
        VDouble out;
        for (size_t i = 0; i < width; ++i)
            out.v_[i] = a.v_[i] - b.v_[i];
        return out;
    }
    friend VDouble operator*(VDouble a, VDouble b)
    {
        VDouble out;
        for (size_t i = 0; i < width; ++i)
            out.v_[i] = a.v_[i] * b.v_[i];
        return out;
    }
    friend VDouble operator/(VDouble a, VDouble b)
    {
        VDouble out;
        for (size_t i = 0; i < width; ++i)
            out.v_[i] = a.v_[i] / b.v_[i];
        return out;
    }

    friend class VMask;
    friend VDouble select(VMask m, VDouble a, VDouble b);
    friend VDouble vmin(VDouble a, VDouble b);
    friend VDouble vmax(VDouble a, VDouble b);
    friend VMask operator>=(VDouble a, VDouble b);
    friend VMask operator>(VDouble a, VDouble b);

  private:
    double v_[width] = {};
};

class VMask
{
  public:
    bool operator[](size_t i) const { return m_[i]; }

    friend VMask operator&&(VMask a, VMask b)
    {
        VMask out;
        for (size_t i = 0; i < VDouble::width; ++i)
            out.m_[i] = a.m_[i] && b.m_[i];
        return out;
    }

    friend VDouble select(VMask m, VDouble a, VDouble b)
    {
        VDouble out;
        for (size_t i = 0; i < VDouble::width; ++i)
            out.v_[i] = m.m_[i] ? a.v_[i] : b.v_[i];
        return out;
    }

    friend VMask operator>=(VDouble a, VDouble b);
    friend VMask operator>(VDouble a, VDouble b);

  private:
    bool m_[VDouble::width] = {};
};

inline VDouble
vmin(VDouble a, VDouble b)
{
    VDouble out;
    for (size_t i = 0; i < VDouble::width; ++i)
        out.v_[i] = b.v_[i] < a.v_[i] ? b.v_[i] : a.v_[i];
    return out;
}

inline VDouble
vmax(VDouble a, VDouble b)
{
    VDouble out;
    for (size_t i = 0; i < VDouble::width; ++i)
        out.v_[i] = a.v_[i] < b.v_[i] ? b.v_[i] : a.v_[i];
    return out;
}

inline VMask
operator>=(VDouble a, VDouble b)
{
    VMask out;
    for (size_t i = 0; i < VDouble::width; ++i)
        out.m_[i] = a.v_[i] >= b.v_[i];
    return out;
}

inline VMask
operator>(VDouble a, VDouble b)
{
    VMask out;
    for (size_t i = 0; i < VDouble::width; ++i)
        out.m_[i] = a.v_[i] > b.v_[i];
    return out;
}

#endif // HARMONIA_SIMD_STDX

} // namespace harmonia::simd

#endif // HARMONIA_COMMON_SIMD_HH
