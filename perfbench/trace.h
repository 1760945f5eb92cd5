// Spans of the benchmark's traced run. Every span is recorded by the
// benchmark itself, around a call it makes into a module's public
// functions or from the durations that module reports back (REPORT frame,
// QuerySession, WireframeRunDetail); nothing inside the engine is
// instrumented. The tree is fixed, so each span's self time (its duration
// minus its children's) is well defined.

#ifndef WIREFRAME_PERFBENCH_TRACE_H_
#define WIREFRAME_PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace wireframe {
namespace perfbench {

enum SpanId : uint8_t {
  kRequest,       // root: one request as the caller sees it
  kParseBind,     // query: SparqlParser::Parse + Bind
  kRoundTrip,     // net: one PING/PONG exchange on the query's connection
  kQueueWait,     // runtime: admission queue (QuerySession / REPORT)
  kRun,           // runtime: execution on a driver (QuerySession / REPORT)
  kCanonicalize,  // query: CanonicalizeQuery, inside the run (AG cache on)
  kPlan,          // planner: WireframeRunDetail::plan_seconds
  kPhase1,        // core: answer-graph generation
  kBurnback,      // core: node burnback, inside phase 1
  kFreeze,        // core: CSR freeze, inside phase 1
  kPhase2,        // core: defactorization or the counting DP
  kAggregate,     // exec: aggregate slice of phase 2
  kSink,          // exec: the benchmark sink's Emit (embedded only)
  kNumSpans,
};

/// Every span's parent precedes it in SpanId order.
struct SpanDef {
  const char* name;
  SpanId parent;  // kRequest's own parent is itself (root)
};

/// Name and parent of every span, indexed by SpanId.
extern const std::array<SpanDef, kNumSpans> kSpans;

/// One traced request: the duration of every span on its path, in
/// seconds (0 = the span did not occur).
struct RequestTrace {
  double start_seconds = 0.0;  // root start, relative to the run start
  std::array<double, kNumSpans> seconds{};
};

/// Self time of every span of `trace`: its duration minus the durations
/// of its direct children, floored at zero.
std::array<double, kNumSpans> SelfTimes(const RequestTrace& trace);

/// Writes every span of every request as one JSON object per line
/// (request, name, parent, start and duration in microseconds). Child
/// spans are laid out back to back from their parent's start: reported
/// durations carry no timestamps of their own. Returns false when the
/// file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<RequestTrace>& traces);

}  // namespace perfbench
}  // namespace wireframe

#endif  // WIREFRAME_PERFBENCH_TRACE_H_
