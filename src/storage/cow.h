#ifndef AIM_STORAGE_COW_H_
#define AIM_STORAGE_COW_H_

#include <atomic>
#include <cstdint>
#include <utility>

namespace aim::storage {

/// \brief A shared, copy-on-write value: copies of a CowRef share one
/// heap-allocated T, and Mutable() copies it first unless this handle is
/// its only holder.
///
/// The holder count is intrusive and atomic, so handles to one value may
/// be copied, dropped and written from different threads as long as each
/// handle is used by one thread at a time. The "only holder" test is an
/// acquire load, and dropping a handle is an acq_rel decrement: a write in
/// place therefore happens after every read another holder made before it
/// let go. (std::shared_ptr::use_count() is a relaxed load and gives no
/// such order.) A count of 1 cannot rise behind the test's back, since the
/// only handle is the caller's own.
///
/// A moved-from handle is empty and may only be destroyed or assigned.
template <typename T>
class CowRef {
 public:
  CowRef() : box_(new Box()) {}
  explicit CowRef(T value) : box_(new Box(std::move(value))) {}
  CowRef(const CowRef& other) noexcept : box_(other.box_) {
    box_->holders.fetch_add(1, std::memory_order_relaxed);
  }
  CowRef(CowRef&& other) noexcept : box_(std::exchange(other.box_, nullptr)) {}
  CowRef& operator=(CowRef other) noexcept {
    std::swap(box_, other.box_);
    return *this;
  }
  ~CowRef() { Drop(); }

  const T& operator*() const { return box_->value; }
  const T* operator->() const { return &box_->value; }

  /// The value, for writing: first replaced by a private copy when another
  /// handle still holds it.
  T& Mutable() {
    if (box_->holders.load(std::memory_order_acquire) != 1) {
      Box* copy = new Box(box_->value);
      Drop();
      box_ = copy;
    }
    return box_->value;
  }

 private:
  struct Box {
    Box() = default;
    explicit Box(const T& v) : value(v) {}
    explicit Box(T&& v) : value(std::move(v)) {}
    std::atomic<uint32_t> holders{1};
    T value;
  };

  void Drop() {
    if (box_ != nullptr &&
        box_->holders.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete box_;
    }
  }

  Box* box_;
};

}  // namespace aim::storage

#endif  // AIM_STORAGE_COW_H_
