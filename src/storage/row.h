#ifndef AIM_STORAGE_ROW_H_
#define AIM_STORAGE_ROW_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "sql/value.h"

namespace aim::storage {

/// A row is a vector of values, positionally matching the table's columns.
using Row = std::vector<sql::Value>;
/// Stable row identifier within a heap table (never reused).
using RowId = uint64_t;

/// Lexicographic comparison of value vectors (index key ordering). A shorter
/// vector that is a prefix of a longer one sorts first, which gives the
/// standard B+Tree prefix-scan semantics.
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    const size_t n = a.size() < b.size() ? a.size() : b.size();
    for (size_t i = 0; i < n; ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// \brief A borrowed, read-only value: what a heap lane holds for one slot
/// (DESIGN.md §18), or a view of a sql::Value.
///
/// `bits` is the exact int64 (kInt64) or double (kDouble) bit pattern;
/// `text` borrows a string's bytes (kString) from the heap chunk or the
/// Value it came from, and is valid as long as that owner is unchanged.
/// Compare() mirrors sql::Value::Compare bit for bit, so views and Values
/// order, group and encode identically.
struct ValueView {
  sql::Value::Kind kind = sql::Value::Kind::kNull;
  uint64_t bits = 0;
  std::string_view text;

  static ValueView Of(const sql::Value& v) {
    ValueView out;
    out.kind = v.kind();
    if (out.kind == sql::Value::Kind::kInt64) {
      out.bits = static_cast<uint64_t>(v.AsInt());
    } else if (out.kind == sql::Value::Kind::kDouble) {
      out.bits = std::bit_cast<uint64_t>(v.AsDouble());
    } else if (out.kind == sql::Value::Kind::kString) {
      out.text = v.AsString();
    }
    return out;
  }

  bool is_null() const { return kind == sql::Value::Kind::kNull; }
  bool is_number() const {
    return kind == sql::Value::Kind::kInt64 ||
           kind == sql::Value::Kind::kDouble;
  }
  int64_t AsInt() const { return static_cast<int64_t>(bits); }
  /// As sql::Value::AsDouble: an int64 converts, a double is its bits.
  double AsDouble() const {
    return kind == sql::Value::Kind::kInt64 ? static_cast<double>(AsInt())
                                            : std::bit_cast<double>(bits);
  }

  /// Three-way comparison, the same answer as sql::Value::Compare: Max
  /// sorts last, NULL first, numbers compare as doubles, other kinds by
  /// kind index, strings bytewise.
  int Compare(const ValueView& other) const {
    using Kind = sql::Value::Kind;
    if (kind == Kind::kMax || other.kind == Kind::kMax) {
      if (kind == other.kind) return 0;
      return kind == Kind::kMax ? 1 : -1;
    }
    if (kind == Kind::kNull || other.kind == Kind::kNull) {
      if (kind == other.kind) return 0;
      return kind == Kind::kNull ? -1 : 1;
    }
    if (is_number() && other.is_number()) {
      const double a = AsDouble();
      const double b = other.AsDouble();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    if (kind != other.kind) {
      return static_cast<int>(kind) < static_cast<int>(other.kind) ? -1 : 1;
    }
    const int c = text.compare(other.text);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }

  /// The owned Value this view reads (kind and bits exact).
  sql::Value ToValue() const {
    switch (kind) {
      case sql::Value::Kind::kInt64:
        return sql::Value::Int(AsInt());
      case sql::Value::Kind::kDouble:
        return sql::Value::Real(std::bit_cast<double>(bits));
      case sql::Value::Kind::kString:
        return sql::Value::Str(std::string(text));
      case sql::Value::Kind::kMax:
        return sql::Value::Max();
      case sql::Value::Kind::kNull:
        break;
    }
    return sql::Value::Null();
  }
};

/// \name Order-preserving index key encoding
///
/// An index key is the concatenation of its parts' encodings, compared as
/// unsigned bytes (memcmp, shorter-prefix-first). Byte order reproduces
/// RowLess over sql::Value::Compare exactly, and two parts encode to the
/// same bytes iff Compare calls them equal:
///   - NULL          -> 0x01                      (sorts first)
///   - int64, double -> 0x02 + 8 bytes of the double Compare compares, sign
///                      flipped for order, big-endian; -0.0 is stored as
///                      0.0 so the two stay equal. NaN, which Compare
///                      cannot order, is stored as the largest number.
///   - string        -> 0x03 + bytes, each 0x00 escaped as 0x00 0xFF, then
///                      the terminator 0x00 0x00 (a shorter prefix sorts
///                      first)
///   - Value::Max()  -> 0x04                      (sorts last)
/// AppendKeyPart reads a ValueView, so heap lanes encode without building
/// a Value; the Value overload encodes through ValueView::Of.
/// Every part's encoding is prefix-free, so a key prefix of whole parts is
/// a byte prefix of the key, and two encoded parts that differ differ
/// within the shorter one.
/// @{

/// The string part's encoding (0x03, escaped bytes, terminator).
inline void AppendStringKeyPart(std::string_view s, std::string* out) {
  out->push_back('\x03');
  size_t from = 0;
  for (size_t nul; (nul = s.find('\0', from)) != std::string_view::npos;
       from = nul + 1) {
    out->append(s.substr(from, nul + 1 - from));
    out->push_back('\xFF');
  }
  out->append(s.substr(from));
  out->append("\0\0", 2);
}

inline void AppendKeyPart(const ValueView& v, std::string* out) {
  switch (v.kind) {
    case sql::Value::Kind::kNull:
      out->push_back('\x01');
      return;
    case sql::Value::Kind::kInt64:
    case sql::Value::Kind::kDouble: {
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      uint64_t bits = std::bit_cast<uint64_t>(d);
      bits = (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
      char bytes[9] = {'\x02'};
      for (int i = 8; i >= 1; --i, bits >>= 8) {
        bytes[i] = static_cast<char>(bits & 0xFF);
      }
      out->append(bytes, sizeof(bytes));
      return;
    }
    case sql::Value::Kind::kString:
      AppendStringKeyPart(v.text, out);
      return;
    case sql::Value::Kind::kMax:
      out->push_back('\x04');
      return;
  }
}

inline void AppendKeyPart(const sql::Value& v, std::string* out) {
  AppendKeyPart(ValueView::Of(v), out);
}

inline std::string EncodeKey(const Row& parts) {
  std::string out;
  for (const sql::Value& v : parts) AppendKeyPart(v, &out);
  return out;
}
/// @}

}  // namespace aim::storage

#endif  // AIM_STORAGE_ROW_H_
