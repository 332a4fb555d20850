/**
 * @file
 * Runtime SIMD dispatch for the vectorized kernel layer.
 *
 * The kernels in tensor/kernels.h run at one of three levels — a portable
 * scalar fallback, AVX2+FMA, and AVX-512 (F/VL/DQ) — picked at runtime
 * from CPU feature detection. A kernel without an AVX-512 body runs its
 * AVX2 body at the AVX-512 level. The `SWORDFISH_SIMD={auto,avx2,scalar}`
 * knob in util::RuntimeConfig overrides detection (e.g. to measure the
 * AVX2 or scalar bodies on an AVX-512 host), and ScopedSimdLevel gives
 * tests an RAII override so the determinism grid can sweep every level in
 * one process.
 *
 * The central contract (DESIGN.md §4.11): for identical inputs, every
 * level produces bitwise-identical outputs. Every kernel fixes one blocked
 * reduction order (8 independent fma lanes + a fixed reduction tree) that
 * the scalar path executes lane-by-lane, the AVX2 path as one 8-wide
 * vector op, and the AVX-512 path as one 256-bit half of a 16-wide op, so
 * switching levels never changes a single bit.
 */

#ifndef SWORDFISH_TENSOR_SIMD_H
#define SWORDFISH_TENSOR_SIMD_H

#include <string>

namespace swordfish {

/** Resolved instruction-set level a kernel call executes at. */
enum class SimdLevel : int {
    Scalar = 0, ///< portable fallback (auto-vectorization disabled)
    Avx2 = 1,   ///< AVX2 + FMA intrinsics
    Avx512 = 2, ///< AVX-512 F/VL/DQ intrinsics (AVX2 where a kernel has none)
};

/** Human-readable level name ("scalar" / "avx2" / "avx512"). */
const char* simdLevelName(SimdLevel level);

/**
 * Parsed form of the SWORDFISH_SIMD spec. Mirrors the FaultConfig /
 * RefreshConfig pattern: parse() returns typed errors instead of dying, so
 * drivers can report a bad spec with context.
 */
struct SimdConfig
{
    enum class Mode { Auto, Scalar, Avx2 };

    Mode mode = Mode::Auto;

    /**
     * Parse "auto" / "avx2" / "scalar" (empty = auto). On failure returns
     * false and sets `error`; `out` is left untouched. AVX-512 has no
     * spelling: "auto" picks it where the CPU has it, and the two pinned
     * levels exist to run the lower bodies on such a CPU.
     */
    static bool parse(const std::string& spec, SimdConfig& out,
                      std::string& error);

    /** The spec string this config round-trips to. */
    const char* name() const;
};

/** True when the CPU supports the AVX2+FMA kernel path. */
bool cpuSupportsAvx2();

/**
 * True when the CPU and OS support the AVX-512 kernel path (AVX-512 F, VL
 * and DQ with the ZMM state enabled, as __builtin_cpu_supports reports
 * it, on top of AVX2+FMA).
 */
bool cpuSupportsAvx512();

/** True when kernels can run at `level` on this CPU. */
bool simdLevelSupported(SimdLevel level);

/**
 * The level kernels dispatch on right now: a scoped test override if one
 * is active, else the SWORDFISH_SIMD spec (resolved once; "auto" picks
 * the highest level the CPU supports). Panics on an unparsable spec or on
 * SWORDFISH_SIMD=avx2 when the CPU lacks AVX2/FMA.
 */
SimdLevel activeSimdLevel();

/**
 * RAII level override for tests (the determinism grid sweeps every
 * supported level x threads x batch within one process). Process-wide
 * and not thread-safe against in-flight evaluations; unlike fault and
 * refresh settings it is no per-evaluation knob, because every level
 * yields the same bits. Requesting a level the CPU lacks panics.
 */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level);
    ~ScopedSimdLevel();

    ScopedSimdLevel(const ScopedSimdLevel&) = delete;
    ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

  private:
    int prev_; ///< previous override slot (-1 = none was active)
};

/** Env var naming the SIMD spec ("" / unset = auto-detect). */
inline constexpr const char* kSimdEnv = "SWORDFISH_SIMD";

} // namespace swordfish

#endif // SWORDFISH_TENSOR_SIMD_H
