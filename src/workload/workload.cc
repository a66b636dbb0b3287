#include "workload/workload.h"

#include "sql/normalizer.h"
#include "sql/parser.h"

namespace aim::workload {

Result<Query> MakeQuery(std::string sql, double weight) {
  Query q;
  AIM_ASSIGN_OR_RETURN(q.stmt, sql::Parse(sql));
  // Canonical literal form (sorted, deduplicated IN lists): statements
  // that differ only in IN-list literal order/duplication become
  // byte-identical, so they share plan-cache keys and compression
  // clusters.
  sql::Canonicalize(&q.stmt);
  q.sql = std::move(sql);
  q.weight = weight;
  q.normalized_sql = sql::NormalizedSql(q.stmt);
  q.fingerprint = sql::TextFingerprint(q.normalized_sql);
  return q;
}

Status Workload::Add(std::string sql, double weight) {
  AIM_ASSIGN_OR_RETURN(Query q, MakeQuery(std::move(sql), weight));
  queries.push_back(std::move(q));
  return Status::OK();
}

std::vector<const sql::Statement*> Workload::statements() const {
  std::vector<const sql::Statement*> out;
  out.reserve(queries.size());
  for (const Query& q : queries) out.push_back(&q.stmt);
  return out;
}

std::vector<double> Workload::weights() const {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const Query& q : queries) out.push_back(q.weight);
  return out;
}

}  // namespace aim::workload
