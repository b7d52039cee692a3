// cnd-analyze-path: src/linalg/scratch.cpp
// A `cnd-analyze: allow(...)` waiver on the line directly above the flagged
// line suppresses the finding, for a textual rule (no-float) and a
// reachability rule (hot-path-alloc) alike. A hex integer ending in `f` is
// not a float literal.
#include <vector>

namespace cnd::linalg {

// cnd-hot
double widen(std::vector<double>& acc, double v) {
  // cnd-analyze: allow(no-float, hot-path-alloc) — first batch only
  if (acc.empty()) acc.assign(4, static_cast<float>(v));
  return acc[0x1f & 0];
}

}  // namespace cnd::linalg
