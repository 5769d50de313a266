// A single contiguous typed column — the storage primitive behind both the
// raw telemetry streams (telemetry/columns.h) and TimeSeries.
//
// A Column<T> either owns its elements (a vector) or *borrows* a read-only
// span whose lifetime is pinned by a shared keepalive — an mmap'd binary
// trace file, or a sibling column (several series sharing one time axis).
// Borrowed columns materialize on first mutation (copy-on-write at column
// granularity), so loaded-and-only-read data is never copied.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace domino {

template <typename T>
class Column {
 public:
  Column() = default;

  [[nodiscard]] std::size_t size() const {
    return borrowed_ ? bsize_ : own_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const T* data() const {
    return borrowed_ ? bdata_ : own_.data();
  }
  [[nodiscard]] std::span<const T> span() const { return {data(), size()}; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] const T& front() const { return data()[0]; }
  [[nodiscard]] const T& back() const { return data()[size() - 1]; }
  [[nodiscard]] bool borrowed() const { return borrowed_; }

  void clear() {
    ReleaseBorrow();
    own_.clear();
  }
  void reserve(std::size_t n) {
    EnsureOwned();
    own_.reserve(n);
  }
  void push_back(T v) {
    EnsureOwned();
    own_.push_back(std::move(v));
  }
  void Set(std::size_t i, T v) {
    EnsureOwned();
    own_[i] = std::move(v);
  }
  /// Whole-column mutable access (materializes a borrowed column).
  [[nodiscard]] std::span<T> mut() {
    EnsureOwned();
    return {own_.data(), own_.size()};
  }
  void Assign(std::vector<T> v) {
    ReleaseBorrow();
    own_ = std::move(v);
  }

  /// Borrows `n` elements at `p`; `keepalive` pins the backing buffer (an
  /// mmap'd file, a decoded arena, or a sibling column's storage).
  /// Zero-copy until the first mutation.
  void Adopt(std::shared_ptr<const void> keepalive, const T* p,
             std::size_t n) {
    own_.clear();
    keepalive_ = std::move(keepalive);
    bdata_ = p;
    bsize_ = n;
    borrowed_ = true;
  }

  /// Borrows a shared vector outright (several columns sharing one axis).
  void Adopt(std::shared_ptr<const std::vector<T>> shared) {
    const T* p = shared->data();
    std::size_t n = shared->size();
    Adopt(std::shared_ptr<const void>(std::move(shared)), p, n);
  }

  /// In-place compaction: keeps element i iff keep[i] != 0.
  void Keep(const std::vector<unsigned char>& keep) {
    assert(keep.size() == size());
    EnsureOwned();
    std::size_t w = 0;
    for (std::size_t i = 0; i < own_.size(); ++i) {
      if (keep[i]) {
        if (w != i) own_[w] = std::move(own_[i]);
        ++w;
      }
    }
    own_.resize(w);
  }

  /// Drops the first `n` elements (n <= size()). A borrowed column only
  /// narrows its view; an owned one shifts the rest down in one move.
  void EraseFront(std::size_t n) {
    assert(n <= size());
    if (borrowed_) {
      bdata_ += n;
      bsize_ -= n;
      return;
    }
    own_.erase(own_.begin(), own_.begin() + static_cast<std::ptrdiff_t>(n));
  }

  /// Reorders the column to data[perm[0]], data[perm[1]], ...
  void Gather(const std::vector<std::uint32_t>& perm) {
    std::vector<T> out;
    out.reserve(perm.size());
    const T* d = data();
    for (std::uint32_t i : perm) out.push_back(d[i]);
    Assign(std::move(out));
  }

  /// Replaces the contents with src[idx[0]], src[idx[1]], ..., reusing
  /// this column's owned capacity.
  void GatherFrom(const Column& src, const std::vector<std::uint32_t>& idx) {
    ReleaseBorrow();
    own_.resize(idx.size());
    const T* s = src.data();
    for (std::size_t k = 0; k < idx.size(); ++k) own_[k] = s[idx[k]];
  }

  friend bool operator==(const Column& a, const Column& b) {
    return std::equal(a.data(), a.data() + a.size(), b.data(),
                      b.data() + b.size());
  }

 private:
  void EnsureOwned() {
    if (!borrowed_) return;
    own_.assign(bdata_, bdata_ + bsize_);
    ReleaseBorrow();
  }
  void ReleaseBorrow() {
    keepalive_.reset();
    bdata_ = nullptr;
    bsize_ = 0;
    borrowed_ = false;
  }

  std::vector<T> own_;
  std::shared_ptr<const void> keepalive_;
  const T* bdata_ = nullptr;
  std::size_t bsize_ = 0;
  bool borrowed_ = false;
};

}  // namespace domino
