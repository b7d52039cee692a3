#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "tensor/assert.hpp"
#include "tensor/check.hpp"

namespace cnd::linalg {

namespace {

// The sweeps walk two columns of two n x n row-major matrices per rotation:
// a stride of n doubles. At the width PCA runs at (256) that is half a page,
// so one column touches 128 pages, and what the walk costs depends on where
// those pages sit in physical memory (TLB reach, L2 set conflicts). That
// placement differs from one process to the next: on a 4-vCPU Xeon KVM guest
// the same 256-wide decomposition took 1.1 to 1.7 s across runs. Backing both
// matrices with one transparent huge page makes the placement the same in
// every run (0.69 to 0.80 s on that guest). Below half a huge page (e.g. the
// serving models' 32-wide PCA) the buffer is ordinary memory, so a small
// decomposition does not commit a 2 MiB page.
struct FreeDeleter {
  void operator()(double* p) const { std::free(p); }
};
using WorkBuffer = std::unique_ptr<double[], FreeDeleter>;

WorkBuffer work_buffer(std::size_t count) {
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  const std::size_t want = count * sizeof(double);
  const bool huge = want >= kHugePage / 2;
  const std::size_t align = huge ? kHugePage : alignof(std::max_align_t);
  const std::size_t bytes = (want + align - 1) / align * align;
  auto* p = static_cast<double*>(std::aligned_alloc(align, bytes));
  if (p == nullptr) throw std::bad_alloc();
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  // Advice only: where huge pages are off the pages stay ordinary.
  if (huge) ::madvise(p, bytes, MADV_HUGEPAGE);
#endif
  return WorkBuffer(p);
}

/// Row-major n x n view over memory it does not own.
struct SquareView {
  double* p;
  std::size_t n;
  double& operator()(std::size_t i, std::size_t j) const { return p[i * n + j]; }
};

}  // namespace

EigenResult eigen_symmetric(const Matrix& a, double sym_tol, int max_sweeps) {
  require(a.rows() == a.cols(), "eigen_symmetric: matrix must be square");
  const std::size_t n = a.rows();
  require(n > 0, "eigen_symmetric: empty matrix");

  // Symmetry check, relative to the matrix scale.
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) scale = std::max(scale, std::abs(a(i, j)));
  const double tol = sym_tol * std::max(scale, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      require(std::abs(a(i, j) - a(j, i)) <= tol, "eigen_symmetric: matrix not symmetric");

  const WorkBuffer work = work_buffer(2 * n * n);
  const SquareView d{work.get(), n};          // working copy, driven to diagonal
  const SquareView v{work.get() + n * n, n};  // accumulated rotations
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      d(i, j) = a(i, j);
      v(i, j) = i == j ? 1.0 : 0.0;
    }

  const double conv_eps = 1e-14 * std::max(scale, 1.0);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += d(p, q) * d(p, q);
    if (std::sqrt(off) <= conv_eps) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::abs(apq) <= conv_eps) continue;
        const double app = d(p, p);
        const double aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply rotation J(p,q,theta) on both sides of d: d = J^T d J.
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k);
          const double dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        // Accumulate eigenvectors: v = v J.
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs descending by eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = d(i, i);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return diag[x] > diag[y]; });

  EigenResult res;
  res.values.resize(n);
  res.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    res.values[j] = diag[order[j]];
    for (std::size_t i = 0; i < n; ++i) res.vectors(i, j) = v(i, order[j]);
  }
  // A non-finite input slips past the symmetry check (NaN compares false);
  // catch it where the rotation sweeps would have amplified it.
  CND_DCHECK_ALL_FINITE(std::span<const double>(res.values),
                        "eigen_symmetric: non-finite eigenvalue");
  CND_DCHECK_ALL_FINITE(res.vectors, "eigen_symmetric: non-finite eigenvector");
  return res;
}

}  // namespace cnd::linalg
