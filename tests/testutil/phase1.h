#ifndef WIREFRAME_TESTS_TESTUTIL_PHASE1_H_
#define WIREFRAME_TESTS_TESTUTIL_PHASE1_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/estimator.h"
#include "planner/edgifier.h"
#include "planner/plan.h"
#include "planner/triangulator.h"
#include "query/query_graph.h"
#include "query/shape.h"
#include "util/hash.h"

namespace wireframe::testutil {

/// The phase-1 plan the engine builds: the Edgifier's edge order plus,
/// for cyclic queries, the Triangulator's chords and base triangles.
inline AgPlan PlanWithChords(const QueryGraph& q, const Catalog& cat) {
  CardinalityEstimator est(cat);
  Edgifier edgifier(q, est);
  auto plan = edgifier.PlanEdgeOrder();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return AgPlan();
  const QueryShape shape = AnalyzeShape(q);
  if (!shape.acyclic) {
    Triangulator tri(q, est);
    auto chords = tri.Triangulate(shape);
    EXPECT_TRUE(chords.ok()) << chords.status().ToString();
    if (chords.ok()) {
      plan->chords = std::move(chords->chords);
      plan->base_triangles = std::move(chords->base_triangles);
      plan->base_triangle_closing_edge =
          std::move(chords->base_triangle_closing_edge);
    }
  }
  return std::move(plan).value();
}

/// Every edge set of an AG (either form), query edges and chords, as
/// packed pairs, for equality checks.
template <typename Graph>
std::vector<std::set<uint64_t>> AgPairs(const Graph& ag) {
  std::vector<std::set<uint64_t>> out(ag.NumEdgeSets());
  for (uint32_t e = 0; e < ag.NumEdgeSets(); ++e) {
    ag.Set(e).ForEachPair(
        [&](NodeId u, NodeId v) { out[e].insert(PackPair(u, v)); });
  }
  return out;
}

}  // namespace wireframe::testutil

#endif  // WIREFRAME_TESTS_TESTUTIL_PHASE1_H_
