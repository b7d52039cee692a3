// cnd-analyze-path: src/nn/scale.cpp
// cnd-analyze-expect: no-float
// An f-suffixed literal is float arithmetic even without the `float`
// keyword: 0.1f is not 0.1, so the product differs from the double one.
namespace cnd::nn {

double shrink(double x) { return x * 0.1f; }

}  // namespace cnd::nn
