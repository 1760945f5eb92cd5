#ifndef WIREFRAME_RUNTIME_SERVER_H_
#define WIREFRAME_RUNTIME_SERVER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "query/parser.h"
#include "runtime/query_runtime.h"

namespace wireframe {
namespace runtime {

/// Server configuration: the runtime knobs plus per-query defaults
/// applied to every submission.
struct ServerOptions {
  RuntimeOptions runtime;
  /// Engine every query runs on (MakeEngine tag).
  std::string default_engine = "WF";
  /// Per-query execution budget in seconds; negative inherits the
  /// admission default, 0 is unlimited.
  double timeout_seconds = -1.0;
  /// Per-query row budget; negative inherits the admission default, 0 is
  /// unlimited.
  int64_t row_budget = -1;
  /// Service class queries run as when a Submit names none (see
  /// AdmissionControl::tenants). Empty = the implicit "default" tenant.
  std::string default_service_class;
};

/// Front-end of the shared query runtime: accepts SPARQL text (or
/// pre-bound QueryGraphs), parses and binds it against one immutable
/// database, and runs any number of in-flight queries concurrently
/// against the runtime's single pool. This is the serving shape the
/// ROADMAP's "concurrent multi-query serving" item asks for: stores and
/// catalog are shared read-only, per-query state lives in the sessions.
class Server {
 public:
  /// `db` and `catalog` are borrowed and must outlive the server.
  Server(const Database& db, const Catalog& catalog,
         ServerOptions options = {});

  /// Parses, binds, and submits one query. Parse/bind errors surface
  /// immediately; admission rejections (runtime saturation or tenant
  /// quota) surface as ResourceExhausted. `sink` (borrowed, may be null)
  /// receives the embeddings. `service_class` picks the tenant the query
  /// runs as; empty inherits ServerOptions::default_service_class.
  Result<std::shared_ptr<QuerySession>> Submit(
      std::string_view sparql, Sink* sink = nullptr,
      std::string_view service_class = {});

  /// Same, with per-query overrides of the server defaults (negative =
  /// inherit, 0 = unlimited — QueryRequest semantics). The network
  /// front-end routes QUERY-frame overrides through here. `rejection`,
  /// when non-null, receives the retry-after hint of a brownout shed
  /// (see QueryRuntime::Submit).
  Result<std::shared_ptr<QuerySession>> Submit(
      std::string_view sparql, Sink* sink, std::string_view service_class,
      double timeout_seconds, int64_t row_budget,
      SubmitRejection* rejection = nullptr);

  /// Submits a pre-bound query graph (no parsing).
  Result<std::shared_ptr<QuerySession>> Submit(
      const QueryGraph& query, Sink* sink = nullptr,
      std::string_view service_class = {});

  /// Runs a whole batch concurrently (bounded by the runtime's admission
  /// limits) and blocks until every query finished. Reports are in batch
  /// order. `sinks` and `service_classes`, when given, must parallel
  /// `queries`; null sink entries count rows only, empty class entries
  /// inherit the server default.
  std::vector<QueryReport> RunBatch(
      const std::vector<std::string>& queries,
      const std::vector<Sink*>* sinks = nullptr,
      const std::vector<std::string>* service_classes = nullptr);

  /// Name of the tenant a query naming `service_class` runs as (or, if
  /// rejected, would have run as): empty takes
  /// ServerOptions::default_service_class, then the name resolves like
  /// QueryRuntime::ResolveServiceClassName.
  const std::string& ResolveServiceClass(
      std::string_view service_class) const;

  QueryRuntime& runtime() { return runtime_; }
  const QueryRuntime& runtime() const { return runtime_; }
  const ServerOptions& options() const { return options_; }
  const Database& db() const { return *db_; }
  const Catalog& catalog() const { return *catalog_; }

 private:
  QueryRequest MakeRequest(QueryGraph query, Sink* sink,
                           std::string_view service_class) const;

  const Database* db_;
  const Catalog* catalog_;
  ServerOptions options_;
  QueryRuntime runtime_;
};

}  // namespace runtime
}  // namespace wireframe

#endif  // WIREFRAME_RUNTIME_SERVER_H_
