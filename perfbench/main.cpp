// Benchmark binary for the FastCHGNet library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// --workers <n> overrides the workload's fixed worker count (reference
// measurements of thread scaling; the benchmark itself never passes it).
//
// Prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics when
// --trace 1.  Check failures are listed on standard error and make the exit
// code 1.  perfbench/run.py builds this binary and forwards its arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "core/parallel_for.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  int workers;  ///< FASTCHG_NUM_THREADS for the whole process
  Outcome (*run)(const Options&);
};

// Worker counts: training runs on more than one worker; the data-parallel
// devices, the single serving client and MD run on one.  With the training
// prefetch thread the process never holds more than 3 threads.
constexpr Workload kWorkloads[] = {
    {"train_shuffled", 2, run_train_shuffled},
    {"dp_epoch", 2, run_dp_epoch},
    {"serve_stream", 1, run_serve_stream},
    {"md_nvt", 1, run_md_nvt},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> | --selftest\n",
               why);
  return 2;
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    // A non-finite value fails the run (see main) and prints as 0 so the
    // line stays valid JSON.
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool selftest = false, have_workload = false;
  int workers = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--workers") {
      workers = std::atoi(v);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  if (selftest) {
    setenv("FASTCHG_NUM_THREADS", "1", 1);
    return run_selftest() == 0 ? 0 : 1;
  }
  if (!have_workload) return usage("no --workload");
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (o.workload == k.name) w = &k;
  }
  if (w == nullptr) return usage(("unknown workload " + o.workload).c_str());

  // Fix the worker count before the library's thread pool first starts.
  if (workers <= 0) workers = w->workers;
  setenv("FASTCHG_NUM_THREADS", std::to_string(workers).c_str(), 1);
  Outcome out;
  try {
    if (fastchg::num_threads() != workers) {
      std::fprintf(stderr, "perfbench: worker count %d, wanted %d\n",
                   fastchg::num_threads(), workers);
      return 2;
    }
    out = w->run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", w->name, e.what());
    return 2;
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.problems.push_back(m.name + " is not finite");
  }
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED (%s): %s\n", w->name, p.c_str());
  }
  std::fflush(stderr);
  print_result(out);
  return out.problems.empty() ? 0 : 1;
}
