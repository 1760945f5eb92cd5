#include "runtime/server.h"

#include <utility>

namespace wireframe {
namespace runtime {

Server::Server(const Database& db, const Catalog& catalog,
               ServerOptions options)
    : db_(&db),
      catalog_(&catalog),
      options_(std::move(options)),
      runtime_(options_.runtime) {}

QueryRequest Server::MakeRequest(QueryGraph query, Sink* sink,
                                 std::string_view service_class) const {
  QueryRequest request;
  request.db = db_;
  request.catalog = catalog_;
  request.query = std::move(query);
  request.engine = options_.default_engine;
  request.sink = sink;
  request.timeout_seconds = options_.timeout_seconds;
  request.row_budget = options_.row_budget;
  request.service_class = service_class.empty()
                              ? options_.default_service_class
                              : std::string(service_class);
  return request;
}

Result<std::shared_ptr<QuerySession>> Server::Submit(
    std::string_view sparql, Sink* sink, std::string_view service_class) {
  WF_ASSIGN_OR_RETURN(QueryGraph query,
                      SparqlParser::ParseAndBind(sparql, *db_));
  return runtime_.Submit(MakeRequest(std::move(query), sink, service_class));
}

Result<std::shared_ptr<QuerySession>> Server::Submit(
    std::string_view sparql, Sink* sink, std::string_view service_class,
    double timeout_seconds, int64_t row_budget,
    SubmitRejection* rejection) {
  WF_ASSIGN_OR_RETURN(QueryGraph query,
                      SparqlParser::ParseAndBind(sparql, *db_));
  QueryRequest request =
      MakeRequest(std::move(query), sink, service_class);
  // Negative keeps the server default already in the request; 0 and up
  // is a real per-query value (0 = unlimited).
  if (timeout_seconds >= 0) request.timeout_seconds = timeout_seconds;
  if (row_budget >= 0) request.row_budget = row_budget;
  return runtime_.Submit(std::move(request), rejection);
}

Result<std::shared_ptr<QuerySession>> Server::Submit(
    const QueryGraph& query, Sink* sink, std::string_view service_class) {
  return runtime_.Submit(MakeRequest(query, sink, service_class));
}

const std::string& Server::ResolveServiceClass(
    std::string_view service_class) const {
  return runtime_.ResolveServiceClassName(
      service_class.empty() ? options_.default_service_class
                            : std::string(service_class));
}

std::vector<QueryReport> Server::RunBatch(
    const std::vector<std::string>& queries,
    const std::vector<Sink*>* sinks,
    const std::vector<std::string>* service_classes) {
  std::vector<QueryReport> reports(queries.size());
  std::vector<std::shared_ptr<QuerySession>> sessions(queries.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    Sink* sink =
        sinks != nullptr && i < sinks->size() ? (*sinks)[i] : nullptr;
    const std::string_view service_class =
        service_classes != nullptr && i < service_classes->size()
            ? std::string_view((*service_classes)[i])
            : std::string_view();
    Result<std::shared_ptr<QuerySession>> session =
        Submit(queries[i], sink, service_class);
    if (!session.ok()) {
      // Parse error or admission rejection: terminal immediately, with
      // the status saying why (quota sheds are ResourceExhausted). A
      // rejected query is still the resolved tenant's rejection.
      reports[i].index = i;
      reports[i].service_class = ResolveServiceClass(service_class);
      reports[i].status = session.status();
      continue;
    }
    sessions[i] = std::move(session).value();
  }

  for (size_t i = 0; i < sessions.size(); ++i) {
    if (sessions[i] == nullptr) continue;
    sessions[i]->Wait();
    reports[i] = sessions[i]->Report();
    reports[i].index = i;
  }
  return reports;
}

}  // namespace runtime
}  // namespace wireframe
