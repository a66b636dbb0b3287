#ifndef AIM_EXECUTOR_BATCH_H_
#define AIM_EXECUTOR_BATCH_H_

// The batch engine's working representation: a lane is one partial join
// combination — an array of row bindings (storage::SlotRef: a heap chunk
// and slot, whose typed column lanes the filters and the sink read)
// indexed by table *instance* (null chunk = not yet bound). A LaneBuffer
// is a flat lanes x instances binding matrix; lane order is depth-first
// production order, which is what keeps emission order (and therefore
// aggregation and stable-sort inputs) identical to the row interpreter
// the batch suite pins it against.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "storage/heap_table.h"

namespace aim::executor {

class LaneBuffer {
 public:
  explicit LaneBuffer(size_t stride) : stride_(stride) {}

  size_t stride() const { return stride_; }
  size_t size() const { return stride_ == 0 ? 0 : data_.size() / stride_; }
  bool empty() const { return data_.empty(); }

  const storage::SlotRef* lane(size_t i) const {
    return data_.data() + i * stride_;
  }

  void Clear() { data_.clear(); }
  void ReserveLanes(size_t lanes) { data_.reserve(lanes * stride_); }

  /// Seeds the buffer with one all-unbound lane (the join root).
  void PushEmptyLane() { data_.resize(data_.size() + stride_); }

  /// Appends a copy of `lane` (`stride()` bindings), which must not point
  /// into this buffer (the append may reallocate).
  void PushLane(const storage::SlotRef* lane) {
    data_.insert(data_.end(), lane, lane + stride_);
  }

  void Swap(LaneBuffer& other) {
    data_.swap(other.data_);
    std::swap(stride_, other.stride_);
  }

 private:
  size_t stride_;
  std::vector<storage::SlotRef> data_;
};

}  // namespace aim::executor

#endif  // AIM_EXECUTOR_BATCH_H_
