#include "common/snapshot_file.h"

#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <thread>
#include <utility>

namespace aim {

namespace {

struct Format {
  uint64_t magic;
  uint32_t version;
};

// Indexed by SnapshotKind. Bump a kind's version on any change to its
// payload: files of the old version are then rejected (a cold start).
constexpr Format kFormats[] = {
    {0x31434649574D4941ull, 2},  // "AIMWIFC1": WhatIfCache
    {0x41494d4741544531ull, 2},  // "AIMGATE1": ExplorationGate
};

constexpr size_t kHeaderBytes = 8 + 4 + 8;  // magic, version, length
constexpr size_t kCrcBytes = 4;

constexpr std::array<uint32_t, 256> kCrc32cTable = [] {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
    table[i] = crc;
  }
  return table;
}();

/// The header of a `kind` image whose payload is `length` bytes.
std::string HeaderOf(SnapshotKind kind, uint64_t length) {
  const Format& f = kFormats[static_cast<int>(kind)];
  std::string header(kHeaderBytes, '\0');
  std::memcpy(header.data(), &f.magic, 8);
  std::memcpy(header.data() + 8, &f.version, 4);
  std::memcpy(header.data() + 12, &length, 8);
  return header;
}

}  // namespace

uint32_t Crc32c(std::string_view bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char b : bytes) {
    crc = kCrc32cTable[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

SnapshotWriter::SnapshotWriter(SnapshotKind kind)
    : kind_(kind), bytes_(HeaderOf(kind, 0)) {}

void SnapshotWriter::PutString(std::string_view s) {
  Put(static_cast<uint64_t>(s.size()));
  bytes_.append(s);
}

std::string SnapshotWriter::Finish() && {
  bytes_.replace(0, kHeaderBytes,
                 HeaderOf(kind_, bytes_.size() - kHeaderBytes));
  Put(Crc32c(bytes_));
  return std::move(bytes_);
}

SnapshotReader::SnapshotReader(SnapshotKind kind, std::string_view image) {
  if (image.size() < kHeaderBytes + kCrcBytes) return;
  const size_t body = image.size() - kCrcBytes;
  uint32_t crc = 0;
  std::memcpy(&crc, image.data() + body, kCrcBytes);
  ok_ = image.substr(0, kHeaderBytes) ==
            HeaderOf(kind, body - kHeaderBytes) &&
        crc == Crc32c(image.substr(0, body));
  if (ok_) payload_ = image.substr(kHeaderBytes, body - kHeaderBytes);
}

const char* SnapshotReader::Take(uint64_t n) {
  ok_ = ok_ && n <= payload_.size() - pos_;
  if (!ok_) return nullptr;
  pos_ += n;
  return payload_.data() + pos_ - n;
}

bool SnapshotReader::GetString(std::string* s) {
  uint64_t n = 0;
  const char* p = Get(&n) ? Take(n) : nullptr;
  if (p != nullptr) s->assign(p, n);
  return p != nullptr;
}

Status WriteSnapshotFile(const std::string& path, std::string_view image) {
  const std::string tmp = SnapshotTempPath(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::Internal("cannot write snapshot temp file " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status::OK();
}

std::optional<std::string> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string SnapshotPathForFingerprint(const std::string& base_path,
                                       uint64_t fingerprint) {
  char suffix[24];
  std::snprintf(suffix, sizeof(suffix), ".%016llx",
                static_cast<unsigned long long>(fingerprint));
  return base_path + suffix;
}

std::string SnapshotTempPath(const std::string& path) {
  const size_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%zx",
                static_cast<long>(getpid()), tid);
  return path + suffix;
}

}  // namespace aim
