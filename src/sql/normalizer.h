#ifndef AIM_SQL_NORMALIZER_H_
#define AIM_SQL_NORMALIZER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "sql/ast.h"

namespace aim::sql {

/// \brief Replaces every literal appearing as a predicate operand, IN-list
/// element, BETWEEN bound, assignment value, insert value, or LIMIT with a
/// `?` placeholder, in place (Sec. III-A1 "normalized query").
///
/// Queries that differ only in parameter values normalize to identical
/// statements and therefore share execution statistics.
void Normalize(Statement* stmt);
void Normalize(SelectStatement* stmt);

/// \brief Canonicalizes a statement for templating, in place: every IN
/// list whose elements are all literals gets its elements sorted by value
/// and duplicate literals collapsed.
///
/// IN is set membership, so `IN (3, 1, 3)` and `IN (1, 3)` are the same
/// predicate; after canonicalization they also print to the same SQL
/// text, share one statement fingerprint, and land in one
/// workload-compression cluster. Lists containing `?` placeholders (or
/// any non-literal element) are left untouched.
void Canonicalize(Statement* stmt);
void Canonicalize(SelectStatement* stmt);

/// Normalized SQL text of `stmt` (without mutating it).
std::string NormalizedSql(const Statement& stmt);

/// Stable 64-bit fingerprint of the normalized SQL text, used as the
/// per-normalized-query key in the workload monitor.
uint64_t NormalizedFingerprint(const Statement& stmt);

/// The fingerprint of text NormalizedSql already produced:
/// `NormalizedFingerprint(s) == TextFingerprint(NormalizedSql(s))`.
uint64_t TextFingerprint(std::string_view normalized_sql);

}  // namespace aim::sql

#endif  // AIM_SQL_NORMALIZER_H_
