// Runtime-dispatched bulk kernels over GF(2^8).
//
// The scalar field (`mul`, `inv`, log/exp tables in gf256.h) is the single
// source of truth; every kernel here is an alternative *implementation* of
// the same bulk operations, required to be byte-identical to the scalar
// reference for all inputs (DESIGN.md invariant 10).  The shuffle variants
// use the ISA-L idiom: a per-coefficient pair of 16-entry nibble tables
// applied with PSHUFB/VPSHUFB (x86) or TBL (NEON), so one vector op computes
// 16/32 products.  The `gfni` kernel instead applies each coefficient as an
// 8x8 bit matrix with one VGF2P8AFFINEQB per 64 bytes (AVX-512BW + GFNI).
//
// Selection happens once, on the first call to `kernel()`:
//   * `EAR_GF_KERNEL=auto` (or unset): the widest kernel the CPU supports
//     (gfni > avx2 > ssse3 > neon > scalar).
//   * `EAR_GF_KERNEL=scalar|ssse3|avx2|gfni|neon`: that kernel, or a loud
//     std::runtime_error naming the supported values if it is unknown or not
//     available on this CPU (mirrors the checkpoint version-error style).
// Tests switch kernels in-process with `KernelOverride`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ear::gf {

// Function table for one ISA. All functions share the scalar semantics:
//   mul_add:       dst[i] ^= c * src[i]
//   mul_assign:    dst[i]  = c * src[i]
//   xor_add:       dst[i] ^= src[i]
//   mul_add_multi: dst[i] = (accumulate ? dst[i] : 0) ^ XOR_j coeffs[j] *
//                  srcs[j][i], zero coefficients skipped.  One sweep over
//                  dst replaces nsrc separate mul_add passes, so dst traffic
//                  stays resident while every source streams through once.
//   mul_add_rows:  for every row r < ndst, dsts[r][i] = (accumulate ?
//                  dsts[r][i] : 0) ^ XOR_j coeffs[r * nsrc + j] * srcs[j][i]
//                  (coeffs is ndst x nsrc, row-major).  The columns are
//                  walked in fixed tiles (kRowsTile bytes) and every row of
//                  a tile is finished before the next tile starts, so the
//                  sources are read from memory once for all rows instead of
//                  once per row.
// Sources must not alias any destination. Zero-length calls are no-ops.
struct GfKernel {
  const char* name;
  void (*mul_add)(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n);
  void (*mul_assign)(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n);
  void (*xor_add)(const uint8_t* src, uint8_t* dst, size_t n);
  void (*mul_add_multi)(uint8_t* dst, const uint8_t* const* srcs,
                        const uint8_t* coeffs, size_t nsrc, size_t n,
                        bool accumulate);
  void (*mul_add_rows)(uint8_t* const* dsts, size_t ndst,
                       const uint8_t* const* srcs, const uint8_t* coeffs,
                       size_t nsrc, size_t n, bool accumulate);
};

// Column tile of mul_add_rows: the sources' bytes of one tile stay cache
// resident while every row consumes them.  Picked by a 4-64 KiB sweep over
// k = 10 sources at 1 MiB (EXPERIMENTS.md, "One pass over the sources").
inline constexpr size_t kRowsTile = 32 * 1024;

// The active kernel. First call resolves EAR_GF_KERNEL (function-local
// static, so concurrent first touches are race-free); later calls are an
// atomic load.  Throws std::runtime_error if EAR_GF_KERNEL is invalid.
const GfKernel& kernel();

// Kernels compiled into this binary *and* supported by this CPU, best first
// (the first entry is what `auto` picks; "scalar" is always last).
std::vector<const GfKernel*> compiled_kernels();

// Maps a kernel spec ("auto", "", or a kernel name) to a kernel.  Throws
// std::runtime_error for unknown names and for kernels this build or CPU
// lacks, listing the supported values.
const GfKernel& resolve_kernel(std::string_view spec);

// RAII: forces `kernel()` to return the named kernel until destruction.
// For equivalence tests and benches; not thread-safe against concurrent
// overrides (concurrent *readers* are fine).
class KernelOverride {
 public:
  explicit KernelOverride(std::string_view spec);
  ~KernelOverride();
  KernelOverride(const KernelOverride&) = delete;
  KernelOverride& operator=(const KernelOverride&) = delete;

 private:
  const GfKernel* prev_;
};

namespace detail {

// Per-coefficient shuffle tables: c * b == lo[b & 15] ^ hi[b >> 4].  The
// 16-byte alignment lets the SIMD kernels load each half as one register.
struct NibbleTables {
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
};

NibbleTables make_nibble_tables(uint8_t c);

// Scalar reference implementations (also the head/tail path of every SIMD
// kernel, so ragged edges stay bit-compatible by construction).
void scalar_mul_add(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n);
void scalar_mul_assign(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n);
void scalar_xor_add(const uint8_t* src, uint8_t* dst, size_t n);
void scalar_mul_add_multi(uint8_t* dst, const uint8_t* const* srcs,
                          const uint8_t* coeffs, size_t nsrc, size_t n,
                          bool accumulate);

// The shared mul_add_rows of the shuffle kernels: one `multi` sweep per row
// and tile, rows innermost, so a tile's sources are re-read from cache
// rather than memory.  `mul_add_rows_via<f>` gives it the GfKernel
// signature.
using MulAddMultiFn = void (*)(uint8_t*, const uint8_t* const*,
                               const uint8_t*, size_t, size_t, bool);
void tiled_mul_add_rows(MulAddMultiFn multi, uint8_t* const* dsts,
                        size_t ndst, const uint8_t* const* srcs,
                        const uint8_t* coeffs, size_t nsrc, size_t n,
                        bool accumulate);

template <MulAddMultiFn Multi>
void mul_add_rows_via(uint8_t* const* dsts, size_t ndst,
                      const uint8_t* const* srcs, const uint8_t* coeffs,
                      size_t nsrc, size_t n, bool accumulate) {
  tiled_mul_add_rows(Multi, dsts, ndst, srcs, coeffs, nsrc, n, accumulate);
}

}  // namespace detail

}  // namespace ear::gf
