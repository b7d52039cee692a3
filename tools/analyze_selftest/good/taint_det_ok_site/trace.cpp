// cnd-analyze-path: src/eval/trace.cpp
// A single sanctioned clock read waived at the site with a trailing
// `// cnd-det-ok(<reason>)`. The whole-file no-clock ban takes its own
// waiver.
namespace cnd::eval {

void write_trace(double v) {
  // cnd-analyze: allow(no-clock)
  const auto t = std::chrono::steady_clock::now();  // cnd-det-ok(timestamp column is documented as wall-clock)
  emit_row(t, v);
}

}  // namespace cnd::eval
