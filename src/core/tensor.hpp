// Dense row-major float32 tensor with shared, memory-tracked storage.
//
// Design notes:
//  * Always contiguous.  Views exist only through reshape() (which shares
//    storage); every other op produces a fresh tensor.  This keeps the
//    autograd layer simple and makes the memory tracker exact.
//  * float32 throughout: the paper trains CHGNet in single precision and
//    explicitly discusses why half precision is not usable for interatomic
//    potentials; double precision would distort the memory comparisons of
//    Fig. 8(c).
//  * Allocation and deallocation are reported to fastchg::perf so benches can
//    record live/peak bytes including autograd intermediates.  The tracker
//    always sees *logical* tensor bytes; which physical allocator backs the
//    storage (pooled or system, see core/alloc.hpp) never changes those
//    numbers.
//  * Storage is drawn from alloc::current_allocator() at creation time and
//    returned to the same allocator on release, so a tensor allocated inside
//    an ArenaScope recycles through that scope's pool even if it is freed
//    later, on another thread.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/alloc.hpp"
#include "core/error.hpp"

namespace fastchg {

using index_t = std::int64_t;
using Shape = std::vector<index_t>;

index_t numel_of(const Shape& shape);
std::string shape_str(const Shape& shape);
bool same_shape(const Shape& a, const Shape& b);

class Tensor {
 public:
  /// Empty 0-d tensor (numel() == 0, dim() == 0).
  Tensor() = default;

  /// Uninitialized tensor of the given shape.
  static Tensor empty(Shape shape);
  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  /// 0-d style scalar represented as shape {1}.
  static Tensor scalar(float value) { return full({1}, value); }
  /// Copies `v` into a fresh allocator-backed tensor.
  static Tensor from_vector(const std::vector<float>& v, Shape shape);

  bool defined() const { return storage_ != nullptr; }
  const Shape& shape() const { return shape_; }
  index_t dim() const { return static_cast<index_t>(shape_.size()); }
  index_t size(index_t d) const;
  index_t numel() const { return numel_; }

  float* data();
  const float* data() const;
  float item() const;  ///< value of a 1-element tensor

  /// New tensor sharing storage with a different shape (numel must match).
  Tensor reshape(Shape shape) const;
  /// Deep copy.
  Tensor clone() const;

  /// Fill in place.
  void fill_(float value);
  /// this += other (same shape); used by the optimizer/allreduce hot paths.
  void add_(const Tensor& other, float alpha = 1.0f);
  void mul_(float s);

  /// Copy out to a std::vector (test convenience).
  std::vector<float> to_vector() const;

  /// True if storage is shared with `other`.
  bool shares_storage(const Tensor& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

  /// Allocator that issued this tensor's data block, or nullptr for an
  /// undefined tensor.  Test hook for
  /// pool-isolation assertions (e.g. every replica tensor in
  /// DataParallelTrainer must come from its own device pool).
  const alloc::Allocator* source_allocator() const;

 private:
  struct Storage;  // tracked allocation
  std::shared_ptr<Storage> storage_;
  Shape shape_;
  index_t numel_ = 0;
};

/// Total bytes a tensor of `n` floats occupies (tracker granularity).
inline std::uint64_t tensor_bytes(index_t n) {
  return static_cast<std::uint64_t>(n) * sizeof(float);
}

}  // namespace fastchg
