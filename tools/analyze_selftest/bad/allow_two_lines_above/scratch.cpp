// cnd-analyze-path: src/linalg/scratch.cpp
// cnd-analyze-expect: no-float, hot-path-alloc
// A waiver two lines above the flagged line covers nothing: only the
// flagged line and the line directly above it count.
#include <vector>

namespace cnd::linalg {

// cnd-hot
double widen(std::vector<double>& acc, double v) {
  // cnd-analyze: allow(no-float, hot-path-alloc) — first batch only
  const bool first = acc.empty();
  if (first) acc.assign(4, static_cast<float>(v));
  return acc[0];
}

}  // namespace cnd::linalg
