// Benchmark driver. Usage:
//
//   cnd_perfbench --workload <serve_replay|serve_adapt|protocol_run> --seed N
//                 --seconds S --trace 0|1 [--work-dir DIR] [--commit ID]
//                 [--self-test]
//
// Prints a human-readable report, one `meta` JSON line (run conditions and
// workload parameters), and as its last line one JSON object with the
// attempted/failed counts and the metrics: end-to-end with --trace 0,
// per-layer with --trace 1. Exits 1 when an output check fails, 2 on a
// usage or runtime error (no result line then).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

/// Every check a workload must run, by name: the self-test fails when one
/// of them did not run.
std::set<std::string> expected_checks(const std::string& w, bool trace) {
  std::set<std::string> c;
  if (w == "serve_replay" || w == "serve_adapt") {
    c = {"serving: every flow scored exactly once", "serving: every score finite",
         "serving: verdict == (score > batch artifact threshold)",
         "serving: sampled batches re-scored out of service match bit for bit"};
    if (trace) {
      c.insert(
          "serving: encoder + PCA split reproduces replica score_into bit for bit");
      c.insert("trace: spans written");
    }
  }
  if (w == "serve_replay") {
    c.insert("serve_replay: no adaptation round ran");
    c.insert("serve_replay: replica builds == shards");
  }
  if (w == "serve_adapt") {
    c.insert("serve_adapt: batch artifact version == 1 + floor(first_flow / interval)");
    c.insert("serve_adapt: rounds == floor(flows / interval)");
    c.insert("serve_adapt: replica builds == shards * (rounds + 1)");
    if (trace) {
      c.insert("serve_adapt: composed rounds reproduce every published threshold");
      c.insert(
          "serve_adapt: composed rounds score the clean window bit for bit as every "
          "published artifact");
      c.insert(
          "serve_adapt: snapshots of published replicas reproduce the artifacts byte "
          "for byte");
      c.insert("serve_adapt: traced schedule ran the same rounds");
    }
  }
  if (w == "protocol_run") {
    c = {"protocol: F1 matrix finite", "protocol: PR-AUC matrix finite",
         "protocol: repeated passes give identical F1 and PR-AUC matrices"};
    if (trace) {
      c.insert(
          "protocol: traced composition (Cfe + Pca) reproduces the untraced F1 "
          "matrix exactly");
      c.insert("trace: spans written");
    }
  }
  return c;
}

std::string arg_value(int& i, int argc, char** argv) {
  if (i + 1 >= argc)
    throw std::invalid_argument(std::string(argv[i]) + " needs a value");
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string commit = "unknown";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--workload") {
        opt.workload = arg_value(i, argc, argv);
      } else if (a == "--seed") {
        opt.seed = std::stoull(arg_value(i, argc, argv));
      } else if (a == "--seconds") {
        opt.seconds = std::stod(arg_value(i, argc, argv));
      } else if (a == "--trace") {
        const std::string v = arg_value(i, argc, argv);
        if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--work-dir") {
        opt.work_dir = arg_value(i, argc, argv);
      } else if (a == "--commit") {
        commit = arg_value(i, argc, argv);
      } else if (a == "--self-test") {
        opt.self_test = true;
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
    if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cnd_perfbench: %s\n", e.what());
    return 2;
  }

  Report r;
  try {
    if (opt.workload == "serve_replay")
      r = perfbench::run_serve_replay(opt);
    else if (opt.workload == "serve_adapt")
      r = perfbench::run_serve_adapt(opt);
    else if (opt.workload == "protocol_run")
      r = perfbench::run_protocol(opt);
    else
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cnd_perfbench: %s\n", e.what());
    return 2;
  }

  if (opt.self_test) {
    for (const std::string& name : expected_checks(opt.workload, opt.trace)) {
      bool ran = false;
      for (const auto& c : r.checks_run) ran = ran || c.first == name;
      r.check("self-test: ran '" + name + "'", ran);
    }
  }

  std::printf("checks:\n");
  for (const auto& [name, n] : r.checks_run)
    std::printf("  [%zux] %s\n", n, name.c_str());
  for (const std::string& f : r.failed_checks) std::printf("  FAILED %s\n", f.c_str());
  const auto& metrics = opt.trace ? r.layer : r.e2e;
  std::printf("%s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
  for (const perfbench::Metric& m : metrics)
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("attempted %llu failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));

  const char* env_threads = std::getenv("CND_THREADS");
  std::string meta = "{\"workload\":\"" + opt.workload +
                     "\",\"seed\":" + std::to_string(opt.seed) +
                     ",\"seconds\":" + std::to_string(opt.seconds) +
                     ",\"trace\":" + (opt.trace ? "1" : "0") +
                     ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ",\"commit\":\"" + json_escape(commit) + "\"" +
                     ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"" +
                     ",\"cxx_flags\":\"" + json_escape(PERFBENCH_CXX_FLAGS) + "\"" +
                     ",\"compiler\":\"" PERFBENCH_COMPILER "\"" +
                     ",\"CND_THREADS\":\"" +
                     json_escape(env_threads ? env_threads : "") + "\"" +
                     ",\"runtime_lanes\":" + std::to_string(cnd::runtime::threads());
  for (const auto& [k, v] : r.meta) meta += ",\"" + json_escape(k) + "\":" + v;
  meta += "}";
  std::printf("meta %s\n", meta.c_str());

  const bool correct = r.failed_checks.empty();
  std::string out = "{\"correct\":" + std::string(correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i > 0) out += ',';
    out += '"';
    out += metrics[i].name;
    out += "\":{\"value\":";
    out += buf;
    out += ",\"unit\":\"";
    out += metrics[i].unit;
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
