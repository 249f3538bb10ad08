// blas.h — dense kernel layer (column-major, leading dimension).
//
// This is the kernel substrate of the reproduction: the paper runs on top of
// MKL/GotoBLAS; in this environment we implement the subset dense LU needs
// ourselves.  All matrices are column-major with an explicit leading
// dimension `ld >= number of rows`, exactly like the BLAS/LAPACK convention,
// so the tile engine can pass views into any of the three storage layouts.
//
// The LU operator set (gemm / trsm / laswp / getf2 / getrf_recursive /
// getrf_nopiv and the packed-operand interface) exists at both double and
// float32 precision as plain overloads over one templated implementation —
// the float width feeds the mixed-precision solver (core::gesv_mixed):
// float halves every packed operand and doubles every SIMD lane.  The
// Cholesky operators, norms, and residual diagnostics stay double-only
// (nothing consumes them in float).
//
// Pivot convention: `ipiv[i] = r` means "row i was swapped with row r"
// (0-based, both indices relative to the first row of the factored panel),
// i.e. the LAPACK convention shifted to 0-based indexing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace calu::blas {

enum class Trans : std::uint8_t { No, Yes };
enum class Side : std::uint8_t { Left, Right };
enum class UpLo : std::uint8_t { Lower, Upper };
enum class Diag : std::uint8_t { Unit, NonUnit };

/// C := alpha*op(A)*op(B) + beta*C.  op(A) is m x k, op(B) is k x n.
/// Blocked, with a runtime-dispatched SIMD register micro-kernel
/// (microkernel.h); falls back to a naive loop for tiny problems.
/// Supports No/No, No/Yes and Yes/No transpose pairs (all the
/// factorization needs).
void gemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
          const double* a, int lda, const double* b, int ldb, double beta,
          double* c, int ldc);
void gemm(Trans ta, Trans tb, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta,
          float* c, int ldc);

// --- pre-packed operand interface -------------------------------------
//
// The trailing-update (S) hot path packs each L panel and U block row
// exactly once per factorization step and feeds every S task the shared
// packed copy (O(nb) packs per step instead of O(nb^2)).  Pack layout is
// the active micro-kernel's: mr-row / nr-column strips, zero-padded to
// full strips, split into kc-deep blocks.  Buffers must be 64-byte
// aligned (util::AlignedBufferT) and pack/consume must run under the same
// selected kernel — the selection is process-wide and fixed outside
// tests, so this only constrains select_kernel() callers.

/// Elements of T needed for a packed m x k panel of op(A) / k x n panel
/// of op(B), padding included.  The strip widths are the active kernel's
/// at precision T, so the sizes differ between float and double.
template <class T = double>
std::size_t packed_a_size(int m, int k);
template <class T = double>
std::size_t packed_b_size(int k, int n);

extern template std::size_t packed_a_size<double>(int, int);
extern template std::size_t packed_b_size<double>(int, int);
extern template std::size_t packed_a_size<float>(int, int);
extern template std::size_t packed_b_size<float>(int, int);

/// Pack op(A) (m x k) / op(B) (k x n) into `buf`.
void gemm_pack_a(Trans ta, int m, int k, const double* a, int lda,
                 double* buf);
void gemm_pack_b(Trans tb, int k, int n, const double* b, int ldb,
                 double* buf);
void gemm_pack_a(Trans ta, int m, int k, const float* a, int lda,
                 float* buf);
void gemm_pack_b(Trans tb, int k, int n, const float* b, int ldb,
                 float* buf);

/// C := alpha * A * B + C over pre-packed operands (pure accumulate; the
/// kernels never scale C, so beta handling stays with the caller).  For a
/// fixed kernel variant the result is bit-identical for any split of the
/// row range across separate pack/compute calls — what makes
/// pack-once-per-panel equivalent to pack-per-task.
void gemm_packed(int m, int n, int k, double alpha, const double* apack,
                 const double* bpack, double* c, int ldc);
void gemm_packed(int m, int n, int k, float alpha, const float* apack,
                 const float* bpack, float* c, int ldc);

/// Diagonal-block width of the blocked trsm: the triangle is processed in
/// kTrsmBlock-wide blocks whose inverses are precomputed once per call so
/// the block solves run as register-kernel gemms.  Exported so the
/// conformance tests and benches can sweep the boundary sizes.
inline constexpr int kTrsmBlock = 64;

/// Triangular solve with multiple right-hand sides:
///   Side::Left :  B := alpha * op(T)^{-1} * B   (T is m x m)
///   Side::Right:  B := alpha * B * op(T)^{-1}   (T is n x n)
/// B is m x n.  Blocked: the off-diagonal bulk is delegated to gemm, and
/// for wide B the diagonal-block solves are recast as multiplies by
/// precomputed inverted diagonal blocks (gemm-shaped, microkernel-backed).
/// Narrow B keeps the substitution path.
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, int m, int n,
          double alpha, const double* t, int ldt, double* b, int ldb);
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, int m, int n,
          float alpha, const float* t, int ldt, float* b, int ldb);

/// Apply the swap sequence ipiv[k1..k2) to rows of the m x n matrix A:
/// for i = k1..k2-1 (forward) or k2-1..k1 (backward): swap rows i and
/// ipiv[i].  Matches LAPACK dlaswp with incx = +/-1.
void laswp(int n, double* a, int lda, int k1, int k2, const int* ipiv,
           bool forward = true);
void laswp(int n, float* a, int lda, int k1, int k2, const int* ipiv,
           bool forward = true);

/// Swap rows r1 and r2 across n columns of A.
void swap_rows(int n, double* a, int lda, int r1, int r2);
void swap_rows(int n, float* a, int lda, int r1, int r2);

/// Unblocked Gaussian elimination with partial pivoting of the m x n matrix.
/// On exit A holds L (unit diagonal implicit) and U.  ipiv must have
/// room for min(m,n) entries.  Returns the index (1-based, LAPACK style) of
/// the first exactly-zero pivot, or 0 on success; the factorization is
/// completed either way (zero pivots leave zero columns in L).
int getf2(int m, int n, double* a, int lda, int* ipiv);
int getf2(int m, int n, float* a, int lda, int* ipiv);

/// Toledo's recursive LU with partial pivoting — the sequential GEPP
/// operator the paper uses inside TSLU reductions (reference [23]).
/// Same info contract as getf2, but factors agree with unblocked
/// elimination only to rounding: the halves meet in trsm and gemm, and
/// small shapes (at most 96 rows or columns and 96 x 768 elements, or at
/// most 32 rows or columns) run an unpacked blocked leaf whose updates
/// are fused multiply-adds.
int getrf_recursive(int m, int n, double* a, int lda, int* ipiv);
int getrf_recursive(int m, int n, float* a, int lda, int* ipiv);

/// LU factorization *without* pivoting (recursive, gemm-rich) — the second
/// step of TSLU: the tournament already permuted good pivots into place.
/// Returns the index (1-based) of the first zero pivot, or 0.
int getrf_nopiv(int m, int n, double* a, int lda);
int getrf_nopiv(int m, int n, float* a, int lda);

/// Symmetric rank-k update, lower triangle only (the Cholesky update):
///   C := alpha * A * A^T + beta * C,  C is n x n (lower), A is n x k.
/// Only the lower triangle of C is referenced/written.
void syrk_lower(int n, int k, double alpha, const double* a, int lda,
                double beta, double* c, int ldc);

/// Unblocked Cholesky factorization (lower) of the SPD matrix A; on exit
/// the lower triangle holds L.  Returns the index (1-based) of the first
/// non-positive pivot, or 0.
int potf2(int n, double* a, int lda);

/// Recursive (gemm/syrk-rich) Cholesky, same contract as potf2.
int potrf_recursive(int n, double* a, int lda, int threshold = 32);

/// Matrix norms of the m x n matrix A.
double norm_inf(int m, int n, const double* a, int lda);  // max row sum
double norm_one(int m, int n, const double* a, int lda);  // max col sum
double norm_max(int m, int n, const double* a, int lda);  // max |a_ij|
double norm_fro(int m, int n, const double* a, int lda);

/// ||P*A0 - L*U||_inf / (||A0||_inf * n * eps): the normalized backward
/// error of an LU factorization stored LAPACK-style in `lu` with swap
/// sequence `ipiv` (length npiv, convention above).  A0 is the original
/// matrix.  O(n^3) reconstruction — intended for tests and examples.
double lu_residual(int m, int n, const double* a0, int lda0, const double* lu,
                   int ldlu, const int* ipiv, int npiv);

/// Growth factor g = max_ij |U_ij| / max_ij |A0_ij| of a factorization —
/// the stability statistic used to compare tournament pivoting with GEPP.
double growth_factor(int m, int n, const double* a0, int lda0,
                     const double* lu, int ldlu);

}  // namespace calu::blas
