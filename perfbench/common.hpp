// Shared pieces of the benchmark binary: options, the result record, the
// scaled model/graph settings, timing and order statistics, the process's
// peak RSS, and the tally that turns the program's trace spans into
// per-layer times.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chgnet/config.hpp"
#include "data/graph.hpp"
#include "perf/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation, before main(): the reference point
/// of `setup_s` (a cold set-up, measured from the start of the process).
extern const Clock::time_point kProcessStart;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the verdict of its checks, the operation ledger,
/// and the metrics (end-to-end when untraced, per-layer when traced).
struct Outcome {
  std::vector<std::string> problems;  ///< failed checks, empty when correct
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// ---------------------------------------------------------------------------
// Scaled model and graph settings, as the repository's bench/ binaries use
// them (feature width 32, 15 radial / angular basis functions, 5 A / 2.5 A
// cutoffs): the FastCHGNet configuration with decoupled heads.

inline fastchg::data::GraphConfig graph_config() {
  fastchg::data::GraphConfig gc;
  gc.atom_cutoff = 5.0;
  gc.bond_cutoff = 2.5;
  return gc;
}

inline fastchg::model::ModelConfig model_config() {
  fastchg::model::ModelConfig cfg = fastchg::model::ModelConfig::fast();
  cfg.feat_dim = 32;
  cfg.num_radial = 15;
  cfg.num_angular = 15;
  const fastchg::data::GraphConfig gc = graph_config();
  cfg.atom_cutoff = gc.atom_cutoff;
  cfg.bond_cutoff = gc.bond_cutoff;
  return cfg;
}

// ---------------------------------------------------------------------------
// Order statistics.

/// Linear-interpolation quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mib();

// ---------------------------------------------------------------------------
// Span tally.  absorb() takes the wall-clock spans the program recorded
// since the last clear and accumulates, per span name, the count, the
// inclusive time, the self time (minus every nested span) and the time
// minus nested `model.*` spans only.  Callers absorb and clear the trace
// ring once per round so it never overwrites.

class SpanTally {
 public:
  struct Entry {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    double excl_model_ms = 0.0;  ///< minus nested model.* spans
  };

  void absorb(const std::vector<fastchg::perf::TraceEvent>& events);
  /// absorb(perf::trace_events()) then perf::trace_clear().
  void drain_trace();

  Entry get(const std::string& name) const;
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::map<std::string, Entry> by_name_;
  std::uint64_t dropped_ = 0;
};

/// Turn the program's tracer on with a ring large enough for one round.
void enable_trace();

}  // namespace perfbench
