// microkernel.h — runtime-dispatched GEMM register micro-kernels.
//
// The paper's premise is that the sequential kernels are *already
// optimized*; the scheduler comparison is only meaningful if S tasks run
// near peak.  This layer provides the register kernel of the Goto/BLIS
// decomposition as a function-pointer table selected once at startup:
//
//   "avx512"  — 24x8 double / 48x8 float kernel on 512-bit vectors
//               (__builtin_cpu_supports)
//   "avx2"    — 8x6 double / 16x6 float kernel on 256-bit FMA vectors
//   "generic" — 8x4 portable C++ kernel at both precisions (always
//               available; the fallback — a 16-row float accumulator
//               would spill the entire baseline XMM file)
//
// Every variant exists at BOTH precisions under the same name: float32
// doubles the SIMD lanes of the same silicon, which is the whole
// mixed-precision speedup (gesv_mixed, solve.h).  select_kernel() pins the
// double and float tables together so a CALU_KERNEL pin or a test-fixture
// selection governs both precisions at once.
//
// Cache blocking (mc/kc/nc) is derived from the detected L1/L2/L3 sizes
// and sizeof(T) instead of hard-coded constants, so the same binary blocks
// sensibly on any host at either precision.  All kernels consume operands
// packed by gemm_pack_a/_b (blas.h): A in mr-row strips, B in nr-column
// strips, zero-padded to full strips, split into kc-deep blocks.
//
// Numerical contract: for a fixed kernel variant and precision, the value
// written to any C element depends only on (its row of packed A, its
// column of packed B, alpha) — never on strip boundaries or on whether the
// edge or the full write-back path ran.  That is what makes "pack once per
// panel" vs "pack per task" bit-identical, and it is enforced by using
// fused multiply-adds in both the vector and the edge write-back of the
// SIMD kernels.
#pragma once

#include <string>
#include <vector>

namespace calu::blas {

/// C(0:mr, 0:nr) += alpha * Apanel * Bpanel over a kc-deep packed block.
/// `ap` is an mr_max-row strip (kc entries of mr_max values), `bp` an
/// nr_max-column strip; mr/nr mask the write-back for edge tiles (the
/// packed data itself is always padded to the full strip).
template <class T>
using MicroKernelFnT = void (*)(int kc, T alpha, const T* ap, const T* bp,
                                T* c, int ldc, int mr, int nr);
using MicroKernelFn = MicroKernelFnT<double>;

// --- panel-factorization kernels ---------------------------------------
//
// The blocked LU panel (getf2) has a stricter numerical contract than
// gemm: a tournament replays pivot DECISIONS, so the blocked panel
// kernel must be bit-identical to the classic column-at-a-time
// elimination it replaces on every dispatch variant — the value of
// every element must go through the same chain of roundings.  Unblocked
// elimination applies rank-1 updates one at a time, i.e. per element
//     c = ((c - l0*u0) - l1*u1) - ...        (multiply, then subtract,
//                                             each individually rounded)
// in ascending update order, skipping a term entirely when its U entry
// is exactly zero (so non-finite L entries cannot poison columns the
// reference leaves untouched).  The kernels below keep exactly that
// chain: they accumulate DIRECTLY into C in ascending-p order with one
// multiply and one subtract per term (never the register-accumulate-
// then-merge rounding of the gemm micro-kernel, and never a fused
// multiply-add — they live in panel_kernels.cpp, compiled with
// -ffp-contract=off, to pin this down).  Vectorizing across rows is
// free: each element's chain is untouched.  The contract holds per
// precision: the float instantiations chain float roundings the same way.

/// C(0:m, 0:n) -= L(0:m, 0:kb) * U(0:kb, 0:n), all column-major,
/// accumulating directly into C in ascending-p order with mul-then-sub
/// rounding — bit-identical to kb successive rank-1 updates.
template <class T>
using PanelUpdateFnT = void (*)(int m, int n, int kb, const T* l, int ldl,
                                const T* u, int ldu, T* c, int ldc);
using PanelUpdateFn = PanelUpdateFnT<double>;

/// Fused rank-1 update + pivot search: c[i] -= l[i] * u for i in [0, m)
/// (mul-then-sub), returning the smallest index attaining max |c[i]| —
/// exactly the ascending strictly-greater scan of unblocked getf2, with
/// the search folded into the update pass that finalizes the column.
template <class T>
using Rank1IamaxFnT = int (*)(int m, const T* l, T u, T* c);
using Rank1IamaxFn = Rank1IamaxFnT<double>;

/// Smallest index attaining max |x[i]|, i in [0, m); m >= 1.
template <class T>
using IamaxFnT = int (*)(int m, const T* x);
using IamaxFn = IamaxFnT<double>;

// --- trsm leaf kernels -------------------------------------------------
//
// The blocked trsm inverts its kTrsmLeafNB-wide diagonal blocks and
// applies them as tiny in-place matrix multiplies.  Those multiplies are
// far below the gemm front end's pack-and-block profitability threshold,
// so they get their own register kernels: the inverse (or the B row
// block) stays resident in vector registers and the product is written
// back in place with no packing and no scratch copy.  No bit-identity
// constraint here — FMAs welcome.

/// Diagonal-leaf width the trsm leaf kernels are specialized for.
inline constexpr int kTrsmLeafNB = 8;

/// B(0:kb, 0:n) := inv * B in place; inv is kb x kb, column-major,
/// contiguous (ld = kb), kb <= 16 (fast path at kb == kTrsmLeafNB).
template <class T>
using TrsmLeafLeftFnT = void (*)(int kb, int n, const T* inv, T* b, int ldb);
using TrsmLeafLeftFn = TrsmLeafLeftFnT<double>;

/// B(0:m, 0:kb) := B * inv in place; same inv conventions.
template <class T>
using TrsmLeafRightFnT = void (*)(int m, int kb, const T* inv, T* b,
                                  int ldb);
using TrsmLeafRightFn = TrsmLeafRightFnT<double>;

/// inv := T^{-1} for the nb x nb lower triangle of `t` (unit diagonal
/// when `unit`), in the form the leaf kernels take: column-major,
/// contiguous (ld = nb), upper part zero.
template <class T>
void invert_lower(const T* t, int ldt, int nb, bool unit, T* inv) {
  for (int j = 0; j < nb; ++j) {
    T* x = inv + static_cast<std::size_t>(j) * nb;
    for (int i = 0; i < j; ++i) x[i] = T(0);
    x[j] = unit ? T(1) : T(1) / t[j + static_cast<std::size_t>(j) * ldt];
    for (int i = j + 1; i < nb; ++i) {
      const T* ti = t + i;
      T s = T(0);
      for (int p = j; p < i; ++p)
        s += ti[static_cast<std::size_t>(p) * ldt] * x[p];
      x[i] = unit ? -s : -s / ti[static_cast<std::size_t>(i) * ldt];
    }
  }
}

template <class T>
struct MicroKernelT {
  const char* name = "generic";
  int mr = 8, nr = 4;  // register tile
  int mc = 256, kc = 256, nc = 4096;  // cache blocking (derived at startup)
  MicroKernelFnT<T> fn = nullptr;
  PanelUpdateFnT<T> panel_update = nullptr;
  /// panel_update's FMA twin: C -= L * U with one fused multiply-add per
  /// term (one rounding instead of two), ascending p, directly into C,
  /// and no skip of zero U entries.  Not bound by the panel contract: the
  /// getrf_recursive leaf, trsm's narrow couplings, the LU solve and the
  /// residual take it.  The generic entry leaves the rounding to the
  /// compiler (contracted where the baseline ISA has FMA).
  PanelUpdateFnT<T> panel_fma = nullptr;
  Rank1IamaxFnT<T> rank1_iamax = nullptr;
  IamaxFnT<T> iamax = nullptr;
  TrsmLeafLeftFnT<T> trsm_leaf_left = nullptr;
  TrsmLeafRightFnT<T> trsm_leaf_right = nullptr;
};
using MicroKernel = MicroKernelT<double>;

/// The panel kernels' elementary operation, for writing bit-exact
/// references in tests: one multiply and one subtract, each individually
/// rounded, with the intermediate forced to memory so no compiler can
/// contract the pair into an FMA whatever its -ffp-contract default.
inline double mul_then_sub(double c, double a, double b) {
  volatile double p = a * b;
  return c - p;
}
inline float mul_then_sub(float c, float a, float b) {
  volatile float p = a * b;
  return c - p;
}

/// The double kernel the process dispatches to.  Selected once
/// (thread-safe, on first use) as: $CALU_KERNEL if set, else the best
/// variant the CPU supports.  A CALU_KERNEL naming no available variant
/// aborts — a silently ignored pin would defeat CI's forced-generic
/// conformance run.
const MicroKernel& active_kernel();

/// Precision-generic accessor: the active kernel's entry in the table of
/// the requested scalar type.  Both precisions always dispatch the same
/// variant name.
template <class T>
const MicroKernelT<T>& active_kernel_t();
template <>
const MicroKernelT<double>& active_kernel_t<double>();
template <>
const MicroKernelT<float>& active_kernel_t<float>();

/// Forces a variant by name ("avx512", "avx2", "generic") at BOTH
/// precisions; nullptr or "" restores automatic selection.  Returns false
/// (and leaves the selection unchanged) if the name is unknown or
/// unsupported on this CPU.  Not thread-safe against concurrent gemm
/// calls — a test/bench hook; call it only from single-threaded sections.
bool select_kernel(const char* name);

/// Variants supported on this CPU, best first (same list per precision).
std::vector<std::string> available_kernels();

/// Detected cache sizes in bytes (fallback defaults when undetectable);
/// exposed for tests and bench reporting.
struct CacheInfo {
  long l1 = 0, l2 = 0, l3 = 0;
};
CacheInfo cache_info();

}  // namespace calu::blas
