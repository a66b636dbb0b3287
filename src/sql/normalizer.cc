#include "sql/normalizer.h"

#include <algorithm>

#include "sql/printer.h"

namespace aim::sql {

namespace {

void CanonicalizeExpr(Expr* e) {
  for (auto& c : e->children) CanonicalizeExpr(c.get());
  if (e->kind != Expr::Kind::kInList || e->children.size() < 3) return;
  const auto first = e->children.begin() + 1;
  if (!std::all_of(first, e->children.end(), [](const ExprPtr& c) {
        return c->kind == Expr::Kind::kLiteral;
      })) {
    return;
  }
  std::sort(first, e->children.end(), [](const ExprPtr& a, const ExprPtr& b) {
    return a->value < b->value;
  });
  e->children.erase(std::unique(first, e->children.end(),
                                [](const ExprPtr& a, const ExprPtr& b) {
                                  return a->value == b->value;
                                }),
                    e->children.end());
}

void NormalizeExpr(Expr* e) {
  switch (e->kind) {
    case Expr::Kind::kLiteral:
      e->kind = Expr::Kind::kParam;
      e->value = Value::Null();
      break;
    case Expr::Kind::kInList: {
      // Collapse the IN-list to a single placeholder so that
      // `IN (1,2)` and `IN (3,4,5)` normalize identically.
      NormalizeExpr(e->children[0].get());
      Expr* col = nullptr;
      ExprPtr col_holder = std::move(e->children[0]);
      col = col_holder.get();
      (void)col;
      e->children.clear();
      e->children.push_back(std::move(col_holder));
      e->children.push_back(Expr::MakeParam());
      break;
    }
    default:
      for (auto& c : e->children) NormalizeExpr(c.get());
      break;
  }
}

}  // namespace

void Normalize(SelectStatement* stmt) {
  for (auto& e : stmt->select_list) NormalizeExpr(e.get());
  if (stmt->where) NormalizeExpr(stmt->where.get());
  for (auto& e : stmt->group_by) NormalizeExpr(e.get());
  for (auto& o : stmt->order_by) NormalizeExpr(o.expr.get());
  if (stmt->limit >= 0) stmt->limit = -2;
}

void Normalize(Statement* stmt) {
  switch (stmt->kind) {
    case Statement::Kind::kSelect:
      Normalize(stmt->select.get());
      break;
    case Statement::Kind::kInsert:
      for (auto& v : stmt->insert->values) NormalizeExpr(v.get());
      break;
    case Statement::Kind::kUpdate:
      for (auto& [col, v] : stmt->update->assignments) NormalizeExpr(v.get());
      if (stmt->update->where) NormalizeExpr(stmt->update->where.get());
      break;
    case Statement::Kind::kDelete:
      if (stmt->del->where) NormalizeExpr(stmt->del->where.get());
      break;
  }
}

void Canonicalize(SelectStatement* stmt) {
  for (auto& e : stmt->select_list) CanonicalizeExpr(e.get());
  if (stmt->where) CanonicalizeExpr(stmt->where.get());
  for (auto& e : stmt->group_by) CanonicalizeExpr(e.get());
  for (auto& o : stmt->order_by) CanonicalizeExpr(o.expr.get());
}

void Canonicalize(Statement* stmt) {
  switch (stmt->kind) {
    case Statement::Kind::kSelect:
      Canonicalize(stmt->select.get());
      break;
    case Statement::Kind::kInsert:
      for (auto& v : stmt->insert->values) CanonicalizeExpr(v.get());
      break;
    case Statement::Kind::kUpdate:
      for (auto& [col, v] : stmt->update->assignments) {
        CanonicalizeExpr(v.get());
      }
      if (stmt->update->where) CanonicalizeExpr(stmt->update->where.get());
      break;
    case Statement::Kind::kDelete:
      if (stmt->del->where) CanonicalizeExpr(stmt->del->where.get());
      break;
  }
}

std::string NormalizedSql(const Statement& stmt) {
  Statement copy = stmt.Clone();
  Normalize(&copy);
  return ToSql(copy);
}

uint64_t NormalizedFingerprint(const Statement& stmt) {
  return TextFingerprint(NormalizedSql(stmt));
}

uint64_t TextFingerprint(std::string_view normalized_sql) {
  // FNV-1a over the normalized text.
  uint64_t h = 1469598103934665603ULL;
  for (char c : normalized_sql) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace aim::sql
