#ifndef AIM_COMMON_SNAPSHOT_FILE_H_
#define AIM_COMMON_SNAPSHOT_FILE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace aim {

/// What a snapshot file holds. Each kind has its own magic and payload
/// version (snapshot_file.cc): a file of another kind or of an older
/// version is rejected, never misread.
enum class SnapshotKind { kWhatIfCache, kExplorationGate };

/// CRC-32C (Castagnoli): Crc32c("123456789") == 0xE3069283.
uint32_t Crc32c(std::string_view bytes);

/// \brief Builds one snapshot file image, fixed-width fields in host byte
/// order:  magic u64 | version u32 | payload length u64 | payload | crc u32,
/// the CRC-32C taken over header and payload.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(SnapshotKind kind);

  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }
  void PutString(std::string_view s);  // u64 length, then the bytes
  /// Fills in the payload length and appends the CRC.
  std::string Finish() &&;

 private:
  SnapshotKind kind_;
  std::string bytes_;
};

/// \brief Reads one snapshot image's payload. The constructor checks the
/// image's size, magic, version, payload length and CRC before any payload
/// byte can be read, so decoders stage nothing from a torn or corrupted
/// file. A failed check or a read past the payload's end sets a failure
/// flag that stays set: every later Get returns false.
class SnapshotReader {
 public:
  SnapshotReader(SnapshotKind kind, std::string_view image);

  template <typename T>
  bool Get(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* p = Take(sizeof(T));
    if (p != nullptr) std::memcpy(value, p, sizeof(T));
    return p != nullptr;
  }
  bool GetString(std::string* s);

  /// The image was valid and no read has failed.
  bool ok() const { return ok_; }
  /// ok(), and the whole payload has been read.
  bool done() const { return ok_ && pos_ == payload_.size(); }

 private:
  const char* Take(uint64_t n);  // null (and the flag set) past the end

  std::string_view payload_;
  size_t pos_ = 0;
  bool ok_ = false;
};

/// Writes `image` to SnapshotTempPath(path) and rename(2)s it over `path`,
/// so readers see the old file or the whole new one, never a torn mix,
/// however many writers save to one path at once. The temporary is
/// removed on any failure.
Status WriteSnapshotFile(const std::string& path, std::string_view image);

/// The bytes of the file at `path`; nullopt when it cannot be opened (an
/// empty path never can).
std::optional<std::string> ReadSnapshotFile(const std::string& path);

/// `<base_path>.<fingerprint as 16 hex digits>`: one file per schema and
/// statistics fingerprint, so tuners of different schemas can share one
/// snapshot directory.
std::string SnapshotPathForFingerprint(const std::string& base_path,
                                       uint64_t fingerprint);

/// `path` tagged with the process and thread ids, in the same directory
/// (rename(2) is atomic only there): no two writers share a temporary.
std::string SnapshotTempPath(const std::string& path);

}  // namespace aim

#endif  // AIM_COMMON_SNAPSHOT_FILE_H_
