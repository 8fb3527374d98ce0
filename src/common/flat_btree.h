// FlatBTree<Key>: an ordered map from a key to a 32-bit slot id, laid out
// as a two-level B+-tree over contiguous arrays.
//
// The DMT keeps its entries in a slab and indexes them by slot id (each
// file's extents and dirty extents by begin, the clean extents by LRU
// sequence). A std::map per index pays a node allocation per insert and a
// dependent pointer load per tree level on every search. Here the pairs sit
// in sorted leaves of at most kLeafCapacity, and a sorted vector holds each
// leaf's first key: a search is a binary search of that vector and one of a
// leaf, and an in-order walk reads each leaf front to back.
//
// Emptied leaves go on a free list and are reused. A leaf that falls under
// a quarter full merges with a neighbour when the two fit in three quarters
// of one, so sparse leaves do not pile up under churn. Ascending inserts
// past the last key (the LRU index's) start a fresh leaf instead of halving
// the full one. A tree that has reached its working size allocates nothing.
//
// Any insert or erase invalidates the tree's iterators, except the one
// erase(Iterator) returns. Trees are independent of each other.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace s4d {

template <typename Key>
class FlatBTree {
 public:
  using Slot = std::uint32_t;
  // bench_micro's DMT cases ran within noise of this at 32 and at 128.
  static constexpr std::uint32_t kLeafCapacity = 64;

 private:
  struct Leaf {
    std::uint32_t size = 0;
    Key keys[kLeafCapacity];
    Slot slots[kLeafCapacity];
  };

 public:
  class Iterator {
   public:
    Key key() const { return leaf_->keys[idx_]; }
    Slot slot() const { return leaf_->slots[idx_]; }

    Iterator& operator++() {
      if (++idx_ == leaf_->size) {
        idx_ = 0;
        leaf_ = ++pos_ < tree_->leaf_count() ? &tree_->LeafAt(pos_) : nullptr;
      }
      return *this;
    }

    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.pos_ == b.pos_ && a.idx_ == b.idx_;
    }

   private:
    friend class FlatBTree;
    const FlatBTree* tree_ = nullptr;
    const Leaf* leaf_ = nullptr;  // null at end()
    std::uint32_t pos_ = 0;       // the leaf's place in key order
    std::uint32_t idx_ = 0;       // the pair's place in its leaf
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Iterator begin() const { return At(0, 0); }
  Iterator end() const {
    Iterator it;
    it.tree_ = this;
    it.pos_ = leaf_count();
    return it;
  }

  Iterator find(Key key) const {
    if (empty()) return end();
    const std::uint32_t pos = PosFor(key);
    const Leaf& leaf = LeafAt(pos);
    const std::uint32_t idx = LowerIndex(leaf, key);
    return idx < leaf.size && leaf.keys[idx] == key ? At(pos, idx) : end();
  }

  // The first pair whose key is >= `key`.
  Iterator lower_bound(Key key) const {
    if (empty()) return end();
    const std::uint32_t pos = PosFor(key);
    return At(pos, LowerIndex(LeafAt(pos), key));
  }

  // The last pair whose key is <= `key`, or end() if every key is above it.
  Iterator floor(Key key) const {
    if (empty() || key < firsts_.front()) return end();
    const std::uint32_t pos = PosFor(key);
    // The leaf's first key is <= `key`, so the index is at least 1.
    return At(pos, UpperIndex(LeafAt(pos), key) - 1);
  }

  // Adds the pair; returns false (and changes nothing) if `key` is present.
  bool insert(Key key, Slot slot) {
    if (empty()) {
      const std::uint32_t id = NewLeaf();
      firsts_.push_back(key);
      order_.push_back(id);
      Put(leaves_[id], 0, key, slot);
      return true;
    }
    std::uint32_t pos = PosFor(key);
    Leaf* leaf = &LeafAt(pos);
    std::uint32_t idx = LowerIndex(*leaf, key);
    if (idx < leaf->size && leaf->keys[idx] == key) return false;
    if (leaf->size == kLeafCapacity) {
      const bool append = pos + 1 == leaf_count() && idx == kLeafCapacity;
      const std::uint32_t keep = append ? kLeafCapacity : kLeafCapacity / 2;
      const std::uint32_t id = NewLeaf();  // may move every leaf
      leaf = &LeafAt(pos);
      Leaf& right = leaves_[id];
      right.size = kLeafCapacity - keep;
      std::copy(leaf->keys + keep, leaf->keys + kLeafCapacity, right.keys);
      std::copy(leaf->slots + keep, leaf->slots + kLeafCapacity, right.slots);
      leaf->size = keep;
      firsts_.insert(firsts_.begin() + pos + 1,
                     right.size > 0 ? right.keys[0] : key);
      order_.insert(order_.begin() + pos + 1, id);
      if (idx >= keep) {
        ++pos;
        idx -= keep;
        leaf = &right;
      }
    }
    Put(*leaf, idx, key, slot);
    if (idx == 0) firsts_[pos] = key;
    return true;
  }

  // Removes the pair with `key`; returns whether there was one.
  bool erase(Key key) {
    const Iterator it = find(key);
    if (it == end()) return false;
    erase(it);
    return true;
  }

  // Removes the pair `it` names; returns the iterator to the pair after it.
  Iterator erase(Iterator it) {
    const std::uint32_t pos = it.pos_;
    const std::uint32_t idx = it.idx_;
    Leaf& leaf = LeafAt(pos);
    std::copy(leaf.keys + idx + 1, leaf.keys + leaf.size, leaf.keys + idx);
    std::copy(leaf.slots + idx + 1, leaf.slots + leaf.size, leaf.slots + idx);
    --leaf.size;
    --size_;
    if (leaf.size == 0) {
      DropLeaf(pos);
      return At(pos, 0);
    }
    if (idx == 0) firsts_[pos] = leaf.keys[0];
    if (leaf.size < kLeafCapacity / 4) {
      if (pos + 1 < leaf_count() &&
          leaf.size + LeafAt(pos + 1).size <= kMergedLimit) {
        MergeIntoPrevious(pos + 1);
        return At(pos, idx);
      }
      if (pos > 0 && LeafAt(pos - 1).size + leaf.size <= kMergedLimit) {
        const std::uint32_t base = LeafAt(pos - 1).size;
        MergeIntoPrevious(pos);
        return At(pos - 1, base + idx);
      }
    }
    return At(pos, idx);
  }

  // Calls visit(key, slot) on the pairs in key order until it returns
  // false. Tighter than an iterator loop: the walk keeps its leaf and
  // index in registers.
  template <typename Visit>
  void ForEachWhile(Visit&& visit) const {
    for (const std::uint32_t id : order_) {
      const Leaf& leaf = leaves_[id];
      for (std::uint32_t i = 0; i < leaf.size; ++i) {
        if (!visit(leaf.keys[i], leaf.slots[i])) return;
      }
    }
  }

  // Leaves holding pairs.
  std::uint32_t leaf_count() const {
    return static_cast<std::uint32_t>(order_.size());
  }

  // S4D_CHECKs the layout: the directory lists each leaf once, every leaf
  // is non-empty with strictly ascending keys, its directory key is its
  // first key and its last key is below the next leaf's first, the pair
  // count matches, and the free list holds exactly the leaves not in use.
  void AuditInvariants() const {
    S4D_CHECK(firsts_.size() == order_.size())
        << "directory holds " << firsts_.size() << " keys for "
        << order_.size() << " leaves";
    std::vector<char> seen(leaves_.size(), 0);
    std::size_t pairs = 0;
    for (std::uint32_t pos = 0; pos < leaf_count(); ++pos) {
      const std::uint32_t id = order_[pos];
      S4D_CHECK(id < leaves_.size() && seen[id] == 0)
          << "leaf " << id << " listed twice or out of range";
      seen[id] = 1;
      const Leaf& leaf = leaves_[id];
      S4D_CHECK(leaf.size > 0 && leaf.size <= kLeafCapacity)
          << "leaf at position " << pos << " holds " << leaf.size << " pairs";
      S4D_CHECK(firsts_[pos] == leaf.keys[0])
          << "directory key " << firsts_[pos] << " is not the first key "
          << leaf.keys[0] << " of the leaf at position " << pos;
      for (std::uint32_t i = 1; i < leaf.size; ++i) {
        S4D_CHECK(leaf.keys[i - 1] < leaf.keys[i])
            << "leaf at position " << pos << " out of order at " << i;
      }
      if (pos > 0) {
        const Leaf& prev = LeafAt(pos - 1);
        S4D_CHECK(prev.keys[prev.size - 1] < leaf.keys[0])
            << "leaves out of order at position " << pos;
      }
      pairs += leaf.size;
    }
    S4D_CHECK(pairs == size_)
        << "tree counts " << size_ << " pairs, its leaves hold " << pairs;
    for (const std::uint32_t id : free_leaves_) {
      S4D_CHECK(id < leaves_.size() && seen[id] == 0)
          << "free leaf " << id << " in use, listed twice or out of range";
      seen[id] = 1;
    }
    S4D_CHECK(order_.size() + free_leaves_.size() == leaves_.size())
        << leaves_.size() << " leaves allocated, " << order_.size()
        << " in use and " << free_leaves_.size() << " free";
  }

 private:
  friend struct FlatBTreeTestPeer;  // corruption injection in its test

  static constexpr std::uint32_t kMergedLimit = kLeafCapacity * 3 / 4;

  const Leaf& LeafAt(std::uint32_t pos) const { return leaves_[order_[pos]]; }
  Leaf& LeafAt(std::uint32_t pos) { return leaves_[order_[pos]]; }

  // The iterator at (pos, idx), stepped to the next leaf when idx is one
  // past the leaf's last pair. Leaves are never empty, so one step does.
  Iterator At(std::uint32_t pos, std::uint32_t idx) const {
    Iterator it;
    it.tree_ = this;
    if (pos < leaf_count() && idx == LeafAt(pos).size) {
      ++pos;
      idx = 0;
    }
    it.pos_ = pos;
    it.idx_ = idx;
    it.leaf_ = pos < leaf_count() ? &LeafAt(pos) : nullptr;
    return it;
  }

  // The leaf a search for `key` looks in: the last one whose first key is
  // <= `key`, or the first leaf. The tree must not be empty.
  std::uint32_t PosFor(Key key) const {
    if (!(key < firsts_.back())) return leaf_count() - 1;  // appends
    const std::uint32_t above = Search<true>(firsts_.data(), leaf_count(), key);
    return above == 0 ? 0 : above - 1;
  }

  static std::uint32_t LowerIndex(const Leaf& leaf, Key key) {
    return Search<false>(leaf.keys, leaf.size, key);
  }
  static std::uint32_t UpperIndex(const Leaf& leaf, Key key) {
    return Search<true>(leaf.keys, leaf.size, key);
  }

  // The index of the first of `n` ascending keys that is not below `key`
  // (with kUpper: that is above `key`). The halving runs a fixed number of
  // steps and picks each half with a conditional move, so the search
  // mispredicts no branch whatever the keys.
  template <bool kUpper>
  static std::uint32_t Search(const Key* keys, std::uint32_t n, Key key) {
    if (n == 0) return 0;
    const Key* base = keys;
    while (n > 1) {
      const std::uint32_t half = n / 2;
      const bool right = kUpper ? !(key < base[half]) : base[half] < key;
      base = right ? base + half : base;
      n -= half;
    }
    const bool past = kUpper ? !(key < *base) : *base < key;
    return static_cast<std::uint32_t>(base - keys) + (past ? 1 : 0);
  }

  // Inserts the pair at `idx` of a leaf with room for it.
  void Put(Leaf& leaf, std::uint32_t idx, Key key, Slot slot) {
    std::copy_backward(leaf.keys + idx, leaf.keys + leaf.size,
                       leaf.keys + leaf.size + 1);
    std::copy_backward(leaf.slots + idx, leaf.slots + leaf.size,
                       leaf.slots + leaf.size + 1);
    leaf.keys[idx] = key;
    leaf.slots[idx] = slot;
    ++leaf.size;
    ++size_;
  }

  std::uint32_t NewLeaf() {
    if (free_leaves_.empty()) {
      leaves_.emplace_back();
      return static_cast<std::uint32_t>(leaves_.size() - 1);
    }
    const std::uint32_t id = free_leaves_.back();
    free_leaves_.pop_back();
    return id;
  }

  // Takes the (empty or merged) leaf at `pos` out of the directory.
  void DropLeaf(std::uint32_t pos) {
    leaves_[order_[pos]].size = 0;
    free_leaves_.push_back(order_[pos]);
    firsts_.erase(firsts_.begin() + pos);
    order_.erase(order_.begin() + pos);
  }

  // Appends the leaf at `pos` to the leaf before it and drops it.
  void MergeIntoPrevious(std::uint32_t pos) {
    Leaf& to = LeafAt(pos - 1);
    const Leaf& from = LeafAt(pos);
    std::copy(from.keys, from.keys + from.size, to.keys + to.size);
    std::copy(from.slots, from.slots + from.size, to.slots + to.size);
    to.size += from.size;
    DropLeaf(pos);
  }

  std::vector<Leaf> leaves_;               // by leaf id, in use or free
  std::vector<std::uint32_t> free_leaves_;  // ids of the unused leaves
  std::vector<Key> firsts_;                 // each leaf's first key, ascending
  std::vector<std::uint32_t> order_;        // leaf ids in key order
  std::size_t size_ = 0;
};

}  // namespace s4d
