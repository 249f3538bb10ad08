#include "src/core/tslu.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "src/blas/blas.h"

namespace calu::core {
namespace {

template <class T>
std::vector<T>& tl_select_scratch() {
  thread_local std::vector<T> scratch;
  return scratch;
}

template <class T>
void tournament_select_impl(int rows, int width, T* w, int ldw, int* src) {
  assert(rows >= 0 && width >= 1);
  if (rows <= 1) return;
  std::vector<T>& scratch = tl_select_scratch<T>();
  thread_local std::vector<int> ipiv;
  scratch.resize(static_cast<std::size_t>(rows) * width);
  ipiv.resize(std::min(rows, width));
  for (int j = 0; j < width; ++j)
    std::copy_n(w + static_cast<std::size_t>(j) * ldw, rows,
                scratch.data() + static_cast<std::size_t>(j) * rows);
  // Recursive GEPP picks the pivots.  Its factors agree with unblocked
  // elimination only to rounding, so on near-ties a pivot may differ from
  // getf2's; the swaps are replayed on the untouched original rows below.
  blas::getrf_recursive(rows, width, scratch.data(), rows, ipiv.data());
  // Replay the pivot swaps on the original values and the origin ids.
  const int k = std::min(rows, width);
  for (int i = 0; i < k; ++i) {
    const int p = ipiv[i];
    if (p == i) continue;
    blas::swap_rows(width, w, ldw, i, p);
    std::swap(src[i], src[p]);
  }
}

template <class T>
std::vector<T>& tl_gather_vals() {
  thread_local std::vector<T> w;
  return w;
}

}  // namespace

void tournament_select(int rows, int width, double* w, int ldw, int* src) {
  tournament_select_impl(rows, width, w, ldw, src);
}

void tournament_select(int rows, int width, float* w, int ldw, int* src) {
  tournament_select_impl(rows, width, w, ldw, src);
}

template <class T>
CandidatesT<T> tslu_leaf(const layout::PackedMatrixT<T>& a, int kcol,
                         int first, int stride) {
  const layout::Tiling& t = a.tiling();
  const int width = t.tile_cols(kcol);
  int rows = 0;
  for (int I = first; I < t.mb(); I += stride) rows += t.tile_rows(I);

  std::vector<T>& w = tl_gather_vals<T>();
  thread_local std::vector<int> src;
  w.resize(static_cast<std::size_t>(rows) * width);
  src.resize(rows);
  int r = 0;
  for (int I = first; I < t.mb(); I += stride) {
    const layout::BlockRefT<T> blk = a.block(I, kcol);
    for (int j = 0; j < width; ++j)
      std::copy_n(blk.ptr + static_cast<std::size_t>(j) * blk.ld, blk.rows,
                  w.data() + r + static_cast<std::size_t>(j) * rows);
    for (int i = 0; i < blk.rows; ++i) src[r + i] = t.row0(I) + i;
    r += blk.rows;
  }
  tournament_select(rows, width, w.data(), rows, src.data());

  const int keep = std::min(rows, width);
  CandidatesT<T> c;
  c.count = keep;
  c.width = width;
  c.vals.resize(static_cast<std::size_t>(keep) * width);
  c.src.assign(src.begin(), src.begin() + keep);
  for (int j = 0; j < width; ++j)
    std::copy_n(w.data() + static_cast<std::size_t>(j) * rows, keep,
                c.vals.data() + static_cast<std::size_t>(j) * keep);
  return c;
}

template <class T>
CandidatesT<T> tslu_merge(const CandidatesT<T>& x, const CandidatesT<T>& y) {
  assert(x.width == y.width);
  const int width = x.width;
  const int rows = x.count + y.count;

  std::vector<T>& w = tl_gather_vals<T>();
  thread_local std::vector<int> src;
  w.resize(static_cast<std::size_t>(rows) * width);
  src.resize(rows);
  for (int j = 0; j < width; ++j) {
    std::copy_n(x.data() + static_cast<std::size_t>(j) * x.count, x.count,
                w.data() + static_cast<std::size_t>(j) * rows);
    std::copy_n(y.data() + static_cast<std::size_t>(j) * y.count, y.count,
                w.data() + x.count + static_cast<std::size_t>(j) * rows);
  }
  std::copy(x.src.begin(), x.src.end(), src.begin());
  std::copy(y.src.begin(), y.src.end(), src.begin() + x.count);
  tournament_select(rows, width, w.data(), rows, src.data());

  const int keep = std::min(rows, width);
  CandidatesT<T> c;
  c.count = keep;
  c.width = width;
  c.vals.resize(static_cast<std::size_t>(keep) * width);
  c.src.assign(src.begin(), src.begin() + keep);
  for (int j = 0; j < width; ++j)
    std::copy_n(w.data() + static_cast<std::size_t>(j) * rows, keep,
                c.vals.data() + static_cast<std::size_t>(j) * keep);
  return c;
}

template CandidatesT<double> tslu_leaf<double>(
    const layout::PackedMatrixT<double>&, int, int, int);
template CandidatesT<float> tslu_leaf<float>(const layout::PackedMatrixT<float>&,
                                             int, int, int);
template CandidatesT<double> tslu_merge<double>(const CandidatesT<double>&,
                                                const CandidatesT<double>&);
template CandidatesT<float> tslu_merge<float>(const CandidatesT<float>&,
                                              const CandidatesT<float>&);

std::vector<int> build_swap_list(const std::vector<int>& winners, int row0,
                                 int count) {
  // Winner i moves to position row0 + i.  Every row and position the
  // swaps touch lies in [lo, hi): the panel's top `count` positions and
  // the winners' home rows.  Two flat arrays over that window track where
  // each row is and which row sits at each position, starting at
  // identity.
  int lo = row0, hi = row0 + count;
  for (int i = 0; i < count; ++i) {
    lo = std::min(lo, winners[i]);
    hi = std::max(hi, winners[i] + 1);
  }
  std::vector<int> loc(static_cast<std::size_t>(hi - lo));  // row -> position
  std::iota(loc.begin(), loc.end(), lo);
  std::vector<int> at = loc;                                // position -> row
  std::vector<int> swaps(count);
  for (int i = 0; i < count; ++i) {
    const int g = winners[i];
    const int p1 = row0 + i;
    const int p2 = loc[g - lo];
    swaps[i] = p2;
    if (p1 != p2) {
      const int r1 = at[p1 - lo];
      loc[g - lo] = p1;
      at[p1 - lo] = g;
      loc[r1 - lo] = p2;
      at[p2 - lo] = r1;
    }
  }
  return swaps;
}

std::vector<int> tslu_factor(layout::Matrix& panel, int nchunks) {
  const int m = panel.rows();
  const int n = panel.cols();
  assert(m >= 1 && n >= 1);
  nchunks = std::clamp(nchunks, 1, m);

  // Leaves over contiguous row chunks.
  std::vector<Candidates> nodes;
  nodes.reserve(nchunks);
  for (int c = 0; c < nchunks; ++c) {
    const int lo = static_cast<int>(static_cast<long long>(m) * c / nchunks);
    const int hi =
        static_cast<int>(static_cast<long long>(m) * (c + 1) / nchunks);
    if (hi <= lo) continue;
    const int rows = hi - lo;
    Candidates leaf;
    leaf.width = n;
    std::vector<double> w(static_cast<std::size_t>(rows) * n);
    std::vector<int> src(rows);
    for (int j = 0; j < n; ++j)
      std::copy_n(panel.data() + lo + static_cast<std::size_t>(j) * panel.ld(),
                  rows, w.data() + static_cast<std::size_t>(j) * rows);
    for (int i = 0; i < rows; ++i) src[i] = lo + i;
    tournament_select(rows, n, w.data(), rows, src.data());
    const int keep = std::min(rows, n);
    leaf.count = keep;
    leaf.vals.resize(static_cast<std::size_t>(keep) * n);
    leaf.src.assign(src.begin(), src.begin() + keep);
    for (int j = 0; j < n; ++j)
      std::copy_n(w.data() + static_cast<std::size_t>(j) * rows, keep,
                  leaf.vals.data() + static_cast<std::size_t>(j) * keep);
    nodes.push_back(std::move(leaf));
  }
  // Binary-tree reduction.
  while (nodes.size() > 1) {
    std::vector<Candidates> next;
    next.reserve((nodes.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < nodes.size(); i += 2)
      next.push_back(tslu_merge(nodes[i], nodes[i + 1]));
    if (nodes.size() % 2 == 1) next.push_back(std::move(nodes.back()));
    nodes = std::move(next);
  }

  const Candidates& root = nodes.front();
  std::vector<int> swaps = build_swap_list(root.src, 0, root.count);
  blas::laswp(n, panel.data(), panel.ld(), 0, root.count, swaps.data());
  blas::getrf_nopiv(m, n, panel.data(), panel.ld());
  return swaps;
}

}  // namespace calu::core
