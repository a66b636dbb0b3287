#ifndef AIM_STORAGE_ROW_H_
#define AIM_STORAGE_ROW_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
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
/// Every part's encoding is prefix-free, so a key prefix of whole parts is
/// a byte prefix of the key, and two encoded parts that differ differ
/// within the shorter one.
/// @{

inline void AppendKeyPart(const sql::Value& v, std::string* out) {
  switch (v.kind()) {
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
    case sql::Value::Kind::kString: {
      const std::string& s = v.AsString();
      out->push_back('\x03');
      size_t from = 0;
      for (size_t nul; (nul = s.find('\0', from)) != std::string::npos;
           from = nul + 1) {
        out->append(s, from, nul + 1 - from);
        out->push_back('\xFF');
      }
      out->append(s, from);
      out->append("\0\0", 2);
      return;
    }
    case sql::Value::Kind::kMax:
      out->push_back('\x04');
      return;
  }
}

inline std::string EncodeKey(const Row& parts) {
  std::string out;
  for (const sql::Value& v : parts) AppendKeyPart(v, &out);
  return out;
}
/// @}

}  // namespace aim::storage

#endif  // AIM_STORAGE_ROW_H_
