#ifndef WIREFRAME_TESTS_TESTUTIL_ROWS_H_
#define WIREFRAME_TESTS_TESTUTIL_ROWS_H_

#include <vector>

#include "net/client.h"

namespace wireframe {
namespace testutil {

/// A streamed result's flat rows as one vector per row (arrival order),
/// the shape CollectingSink stores — for comparisons against it.
inline std::vector<std::vector<NodeId>> RowVectors(
    const net::QueryResult& result) {
  std::vector<std::vector<NodeId>> rows;
  rows.reserve(result.rows());
  for (size_t i = 0; i < result.rows(); ++i) {
    const auto row = result.row(i);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

}  // namespace testutil
}  // namespace wireframe

#endif  // WIREFRAME_TESTS_TESTUTIL_ROWS_H_
