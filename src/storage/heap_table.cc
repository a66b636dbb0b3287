#include "storage/heap_table.h"

#include <atomic>
#include <bit>
#include <cstring>

namespace aim::storage {

namespace {

/// A process-wide fresh mutation stamp (never 0).
uint64_t NextStamp() {
  static std::atomic<uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

constexpr uint8_t kStringKind = static_cast<uint8_t>(sql::Value::Kind::kString);
constexpr uint64_t kLengthMask = 0xFFFFFFFFu;

}  // namespace

void HeapChunk::Store(uint32_t slot, const Row& row) {
  if (row.size() > lanes.size()) {
    // A wider row than the chunk's earlier ones: its new lanes start NULL.
    const size_t old = lanes.size();
    lanes.resize(row.size());
    for (size_t c = old; c < lanes.size(); ++c) {
      lanes[c].kinds.assign(rows,
                            static_cast<uint8_t>(sql::Value::Kind::kNull));
      lanes[c].bits.assign(rows, 0);
    }
  }
  const bool append = slot == rows;
  if (append) ++rows;
  for (size_t c = 0; c < lanes.size(); ++c) {
    Lane& lane = lanes[c];
    if (append) {
      lane.kinds.push_back(0);
      lane.bits.push_back(0);
    }
    const bool had_text = !append && lane.kinds[slot] == kStringKind;
    const uint64_t old_bits = lane.bits[slot];
    const uint64_t old_length = had_text ? (old_bits & kLengthMask) : 0;
    const sql::Value null;
    const sql::Value& v = c < row.size() ? row[c] : null;
    lane.kinds[slot] = static_cast<uint8_t>(v.kind());
    switch (v.kind()) {
      case sql::Value::Kind::kInt64:
        lane.bits[slot] = static_cast<uint64_t>(v.AsInt());
        break;
      case sql::Value::Kind::kDouble:
        lane.bits[slot] = std::bit_cast<uint64_t>(v.AsDouble());
        break;
      case sql::Value::Kind::kString: {
        // A string no longer than the one it replaces reuses its bytes, so
        // updates that rewrite unchanged strings leave the store as is.
        const std::string& s = v.AsString();
        const bool in_place = had_text && s.size() <= old_length;
        uint64_t offset = text.size();
        if (in_place) {
          offset = old_bits >> 32;
          std::memcpy(text.data() + offset, s.data(), s.size());
        } else {
          text.append(s);
        }
        dead_text += old_length - (in_place ? s.size() : 0);
        lane.bits[slot] = offset << 32 | s.size();
        continue;
      }
      default:
        lane.bits[slot] = 0;
        break;
    }
    dead_text += old_length;
  }
  if (dead_text > 4096 && dead_text * 2 > text.size()) {
    // Rewrites the store with only the bytes some slot refers to.
    std::string packed;
    packed.reserve(text.size() - dead_text);
    for (Lane& lane : lanes) {
      for (uint32_t s = 0; s < rows; ++s) {
        if (lane.kinds[s] != kStringKind) continue;
        const uint64_t length = lane.bits[s] & kLengthMask;
        const uint64_t offset = packed.size();
        packed.append(text, lane.bits[s] >> 32, length);
        lane.bits[s] = offset << 32 | length;
      }
    }
    text = std::move(packed);
    dead_text = 0;
  }
}

RowId HeapTable::Insert(const Row& row) {
  const RowId rid = slot_count_++;
  std::vector<CowRef<HeapChunk>>& chunks = chunks_.Mutable();
  if ((rid & kSlotMask) == 0) chunks.emplace_back();
  HeapChunk& c = chunks.back().Mutable();
  c.Store(c.rows, row);
  ++live_count_;
  stamp_ = NextStamp();
  return rid;
}

Status HeapTable::Update(RowId rid, const Row& row) {
  if (!IsLive(rid)) {
    return Status::NotFound("update of dead row " + std::to_string(rid));
  }
  MutableChunk(rid).Store(static_cast<uint32_t>(rid & kSlotMask), row);
  stamp_ = NextStamp();
  return Status::OK();
}

Status HeapTable::Delete(RowId rid) {
  if (!IsLive(rid)) {
    return Status::NotFound("delete of dead row " + std::to_string(rid));
  }
  MutableChunk(rid).deleted[rid & kSlotMask] = true;
  --live_count_;
  stamp_ = NextStamp();
  return Status::OK();
}

RowId HeapTable::NextChangedSlot(const HeapTable& base, RowId rid) const {
  const RowId end = std::max(slot_count_, base.slot_count_);
  for (; rid < end; rid = (rid | kSlotMask) + 1) {
    const size_t i = rid >> kChunkShift;
    if (i >= chunks_->size() || i >= base.chunks_->size() ||
        &*(*chunks_)[i] != &*(*base.chunks_)[i]) {
      return rid;
    }
  }
  return kNoSlot;
}

Row HeapTable::row(RowId rid) const {
  const HeapChunk& c = chunk(rid);
  const uint32_t slot = static_cast<uint32_t>(rid & kSlotMask);
  Row out;
  out.reserve(c.lanes.size());
  for (size_t col = 0; col < c.lanes.size(); ++col) {
    out.push_back(c.value(slot, col).ToValue());
  }
  return out;
}

uint64_t HeapTable::Scan(
    const std::function<bool(RowId, const Row&)>& visitor) const {
  return ForEachLive(
      [&](RowId rid, SlotRef) { return visitor(rid, row(rid)); });
}

size_t HeapTable::ScanChunk(RowId* cursor, size_t max_rows,
                            std::vector<SlotRef>* out) const {
  size_t appended = 0;
  while (*cursor < slot_count_ && appended < max_rows) {
    WalkChunk(cursor, [&](RowId, SlotRef ref) {
      out->push_back(ref);
      return ++appended < max_rows;
    });
  }
  return appended;
}

}  // namespace aim::storage
