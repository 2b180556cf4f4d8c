#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void SpanTally::absorb(const std::vector<fastchg::perf::TraceEvent>& events) {
  using fastchg::perf::TraceClock;
  using fastchg::perf::TraceEvent;
  std::vector<const TraceEvent*> ev;
  ev.reserve(events.size());
  for (const TraceEvent& e : events) {
    if (e.clock == TraceClock::kWall) ev.push_back(&e);
  }
  // Parents sort before their children: by lane, start, then longer first.
  std::sort(ev.begin(), ev.end(), [](const TraceEvent* a, const TraceEvent* b) {
    if (a->lane != b->lane) return a->lane < b->lane;
    if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
    return a->dur_us > b->dur_us;
  });
  struct Open {
    const TraceEvent* e;
    double child_us = 0.0;
    double model_child_us = 0.0;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    Entry& en = by_name_[o.e->name];
    ++en.count;
    en.total_ms += o.e->dur_us * 1e-3;
    en.self_ms += (o.e->dur_us - o.child_us) * 1e-3;
    en.excl_model_ms += (o.e->dur_us - o.model_child_us) * 1e-3;
  };
  for (const TraceEvent* e : ev) {
    while (!stack.empty() &&
           (stack.back().e->lane != e->lane ||
            stack.back().e->ts_us + stack.back().e->dur_us <= e->ts_us)) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      stack.back().child_us += e->dur_us;
      if (std::strncmp(e->name, "model.", 6) == 0) {
        stack.back().model_child_us += e->dur_us;
      }
    }
    stack.push_back(Open{e});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

void SpanTally::drain_trace() {
  absorb(fastchg::perf::trace_events());
  dropped_ += fastchg::perf::Trace::instance().dropped();
  fastchg::perf::trace_clear();
}

SpanTally::Entry SpanTally::get(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? Entry{} : it->second;
}

void enable_trace() { fastchg::perf::trace_enable(1u << 17); }

}  // namespace perfbench
