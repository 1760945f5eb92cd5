#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace wireframe {
namespace perfbench {

const std::array<SpanDef, kNumSpans> kSpans = {{
    {"request", kRequest},
    {"query.parse_bind", kRequest},
    {"net.round_trip", kRequest},
    {"runtime.queue_wait", kRequest},
    {"runtime.run", kRequest},
    {"query.canonicalize", kRun},
    {"planner.plan", kRun},
    {"core.phase1", kRun},
    {"core.burnback", kPhase1},
    {"core.freeze", kPhase1},
    {"core.phase2", kRun},
    {"exec.aggregate", kPhase2},
    {"exec.sink", kPhase2},
}};

std::array<double, kNumSpans> SelfTimes(const RequestTrace& trace) {
  std::array<double, kNumSpans> self = trace.seconds;
  for (size_t s = 1; s < kNumSpans; ++s) {
    self[kSpans[s].parent] -= trace.seconds[s];
  }
  for (double& v : self) v = std::max(v, 0.0);
  return self;
}

bool WriteSpans(const std::string& path,
                const std::vector<RequestTrace>& traces) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t r = 0; r < traces.size(); ++r) {
    const RequestTrace& t = traces[r];
    // Children are placed back to back inside their parent, in SpanId
    // order; `cursor` is where the next child of each span starts.
    std::array<double, kNumSpans> start{};
    std::array<double, kNumSpans> cursor{};
    start[kRequest] = cursor[kRequest] = t.start_seconds;
    for (size_t s = 0; s < kNumSpans; ++s) {
      if (s != kRequest) {
        if (t.seconds[s] <= 0.0) continue;
        const SpanId parent = kSpans[s].parent;
        start[s] = cursor[parent];
        cursor[parent] += t.seconds[s];
        cursor[s] = start[s];
      }
      std::fprintf(out,
                   "{\"request\":%zu,\"span\":\"%s\",\"parent\":%s%s%s,"
                   "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                   r, kSpans[s].name, s == kRequest ? "" : "\"",
                   s == kRequest ? "null" : kSpans[kSpans[s].parent].name,
                   s == kRequest ? "" : "\"", start[s] * 1e6,
                   t.seconds[s] * 1e6);
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
}  // namespace wireframe
