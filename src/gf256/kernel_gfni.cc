// GFNI GF(2^8) kernels: each coefficient c is the 8x8 bit matrix of
// "multiply by c" in the 0x11d field, and one VGF2P8AFFINEQB applies it to
// 64 bytes at once — no nibble split, no table shuffles.  The matrices come
// from one 256-entry table built at compile time from the scalar field.
// Ragged tails fall back to the scalar reference so every length is
// bit-compatible with it.
//
// mul_add_rows is the fused encoder sweep: up to four rows share each load
// of a source vector, so a column tile of the sources is read once for all
// parity rows instead of once per row.
//
// This TU is compiled with -mgfni -mavx512f -mavx512bw; nothing here may run
// before the dispatcher has checked __builtin_cpu_supports("gfni") and
// ("avx512bw").
#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "gf256/gf256.h"
#include "gf256/kernel.h"

namespace ear::gf {

namespace {

constexpr size_t kVec = 64;
constexpr size_t kRowGroup = 4;  // rows that share one load of a source

// Affine matrix of "multiply by c": bit i of c * x is the parity of
// (row i & x), and VGF2P8AFFINEQB reads row i from byte 7 - i.
struct AffineTable {
  uint64_t m[256];

  constexpr AffineTable() : m{} {
    for (int c = 0; c < 256; ++c) {
      uint64_t matrix = 0;
      for (int i = 0; i < 8; ++i) {
        uint64_t row = 0;
        for (int j = 0; j < 8; ++j) {
          const uint8_t column =
              mul(static_cast<uint8_t>(c), static_cast<uint8_t>(1u << j));
          row |= static_cast<uint64_t>((column >> i) & 1u) << j;
        }
        matrix |= row << (8 * (7 - i));
      }
      m[c] = matrix;
    }
  }
};

constexpr AffineTable kAffine{};

inline __m512i load(const uint8_t* p) { return _mm512_loadu_si512(p); }
inline void store(uint8_t* p, __m512i v) { _mm512_storeu_si512(p, v); }
inline __m512i matrix_of(uint64_t m) {
  return _mm512_set1_epi64(static_cast<long long>(m));
}
inline __m512i mul_vec(__m512i v, __m512i matrix) {
  return _mm512_gf2p8affine_epi64_epi8(v, matrix, 0);
}

void gfni_xor_add(const uint8_t* src, uint8_t* dst, size_t n) {
  size_t i = 0;
  for (; i + 2 * kVec <= n; i += 2 * kVec) {
    const __m512i a0 = _mm512_xor_si512(load(src + i), load(dst + i));
    const __m512i a1 =
        _mm512_xor_si512(load(src + i + kVec), load(dst + i + kVec));
    store(dst + i, a0);
    store(dst + i + kVec, a1);
  }
  if (i + kVec <= n) {
    store(dst + i, _mm512_xor_si512(load(src + i), load(dst + i)));
    i += kVec;
  }
  detail::scalar_xor_add(src + i, dst + i, n - i);
}

void gfni_mul_add(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  if (n == 0 || c == 0) return;
  if (c == 1) {
    gfni_xor_add(src, dst, n);
    return;
  }
  const __m512i a = matrix_of(kAffine.m[c]);
  size_t i = 0;
  for (; i + 2 * kVec <= n; i += 2 * kVec) {
    const __m512i p0 = mul_vec(load(src + i), a);
    const __m512i p1 = mul_vec(load(src + i + kVec), a);
    store(dst + i, _mm512_xor_si512(load(dst + i), p0));
    store(dst + i + kVec, _mm512_xor_si512(load(dst + i + kVec), p1));
  }
  if (i + kVec <= n) {
    store(dst + i, _mm512_xor_si512(load(dst + i), mul_vec(load(src + i), a)));
    i += kVec;
  }
  detail::scalar_mul_add(c, src + i, dst + i, n - i);
}

void gfni_mul_assign(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  if (n == 0) return;
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    std::memmove(dst, src, n);
    return;
  }
  const __m512i a = matrix_of(kAffine.m[c]);
  size_t i = 0;
  for (; i + 2 * kVec <= n; i += 2 * kVec) {
    const __m512i p0 = mul_vec(load(src + i), a);
    const __m512i p1 = mul_vec(load(src + i + kVec), a);
    store(dst + i, p0);
    store(dst + i + kVec, p1);
  }
  if (i + kVec <= n) {
    store(dst + i, mul_vec(load(src + i), a));
    i += kVec;
  }
  detail::scalar_mul_assign(c, src + i, dst + i, n - i);
}

// Up to kRowGroup rows and the sources any of them reads: mats[s *
// kRowGroup + r] is row r's matrix for live source s (zero matrix for a
// zero coefficient, which contributes nothing).
struct RowGroup {
  uint8_t* const* dsts;
  size_t rows;
  std::vector<const uint8_t*> srcs;
  std::vector<uint64_t> mats;
};

std::vector<RowGroup> make_groups(uint8_t* const* dsts, size_t ndst,
                                  const uint8_t* const* srcs,
                                  const uint8_t* coeffs, size_t nsrc) {
  std::vector<RowGroup> groups;
  groups.reserve((ndst + kRowGroup - 1) / kRowGroup);
  for (size_t r0 = 0; r0 < ndst; r0 += kRowGroup) {
    RowGroup g{dsts + r0, std::min(kRowGroup, ndst - r0), {}, {}};
    g.srcs.reserve(nsrc);
    g.mats.reserve(nsrc * kRowGroup);
    for (size_t j = 0; j < nsrc; ++j) {
      bool live = false;
      for (size_t r = 0; r < g.rows; ++r) {
        live = live || coeffs[(r0 + r) * nsrc + j] != 0;
      }
      if (!live) continue;  // sparse rows (LRC local parities) skip loads
      g.srcs.push_back(srcs[j]);
      for (size_t r = 0; r < kRowGroup; ++r) {
        g.mats.push_back(r < g.rows ? kAffine.m[coeffs[(r0 + r) * nsrc + j]]
                                    : 0);
      }
    }
    groups.push_back(std::move(g));
  }
  return groups;
}

// Bytes [begin, end) of a group's R rows (end - begin a multiple of kVec):
// each source vector is loaded once and multiplied into all R accumulators,
// two vectors per step.
template <size_t R>
void sweep_group(const RowGroup& g, size_t begin, size_t end,
                 bool accumulate) {
  const size_t nlive = g.srcs.size();
  size_t i = begin;
  for (; i + 2 * kVec <= end; i += 2 * kVec) {
    __m512i acc0[R], acc1[R];
    for (size_t r = 0; r < R; ++r) {
      acc0[r] = accumulate ? load(g.dsts[r] + i) : _mm512_setzero_si512();
      acc1[r] =
          accumulate ? load(g.dsts[r] + i + kVec) : _mm512_setzero_si512();
    }
    for (size_t s = 0; s < nlive; ++s) {
      const __m512i v0 = load(g.srcs[s] + i);
      const __m512i v1 = load(g.srcs[s] + i + kVec);
      const uint64_t* m = g.mats.data() + s * kRowGroup;
      for (size_t r = 0; r < R; ++r) {
        const __m512i a = matrix_of(m[r]);
        acc0[r] = _mm512_xor_si512(acc0[r], mul_vec(v0, a));
        acc1[r] = _mm512_xor_si512(acc1[r], mul_vec(v1, a));
      }
    }
    for (size_t r = 0; r < R; ++r) {
      store(g.dsts[r] + i, acc0[r]);
      store(g.dsts[r] + i + kVec, acc1[r]);
    }
  }
  for (; i < end; i += kVec) {
    __m512i acc[R];
    for (size_t r = 0; r < R; ++r) {
      acc[r] = accumulate ? load(g.dsts[r] + i) : _mm512_setzero_si512();
    }
    for (size_t s = 0; s < nlive; ++s) {
      const __m512i v = load(g.srcs[s] + i);
      const uint64_t* m = g.mats.data() + s * kRowGroup;
      for (size_t r = 0; r < R; ++r) {
        acc[r] = _mm512_xor_si512(acc[r], mul_vec(v, matrix_of(m[r])));
      }
    }
    for (size_t r = 0; r < R; ++r) store(g.dsts[r] + i, acc[r]);
  }
}

void sweep_group(const RowGroup& g, size_t begin, size_t end,
                 bool accumulate) {
  switch (g.rows) {
    case 1:
      return sweep_group<1>(g, begin, end, accumulate);
    case 2:
      return sweep_group<2>(g, begin, end, accumulate);
    case 3:
      return sweep_group<3>(g, begin, end, accumulate);
    default:
      return sweep_group<kRowGroup>(g, begin, end, accumulate);
  }
}

void gfni_mul_add_rows(uint8_t* const* dsts, size_t ndst,
                       const uint8_t* const* srcs, const uint8_t* coeffs,
                       size_t nsrc, size_t n, bool accumulate) {
  if (n == 0 || ndst == 0) return;
  const std::vector<RowGroup> groups =
      make_groups(dsts, ndst, srcs, coeffs, nsrc);
  for (size_t t = 0; t < n; t += kRowsTile) {
    const size_t end = std::min(n, t + kRowsTile);
    const size_t vend = t + (end - t) / kVec * kVec;
    for (const RowGroup& g : groups) sweep_group(g, t, vend, accumulate);
    if (vend == end) continue;
    // Ragged tail of the last tile: the scalar reference, row by row.
    std::vector<const uint8_t*> tail(nsrc);
    for (size_t j = 0; j < nsrc; ++j) tail[j] = srcs[j] + vend;
    for (size_t r = 0; r < ndst; ++r) {
      detail::scalar_mul_add_multi(dsts[r] + vend, tail.data(),
                                   coeffs + r * nsrc, nsrc, end - vend,
                                   accumulate);
    }
  }
}

void gfni_mul_add_multi(uint8_t* dst, const uint8_t* const* srcs,
                        const uint8_t* coeffs, size_t nsrc, size_t n,
                        bool accumulate) {
  gfni_mul_add_rows(&dst, 1, srcs, coeffs, nsrc, n, accumulate);
}

}  // namespace

extern const GfKernel kGfniKernel;
const GfKernel kGfniKernel = {
    "gfni",
    gfni_mul_add,
    gfni_mul_assign,
    gfni_xor_add,
    gfni_mul_add_multi,
    gfni_mul_add_rows,
};

}  // namespace ear::gf
