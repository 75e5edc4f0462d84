// The Earliest-Deadline index of live memory requests.
//
// An intrusive treap: callers own the nodes (MemoryManager embeds one in
// every registry entry) and the index only links them, so it never
// allocates. In-order traversal is ED order — ascending deadline, ties
// by QueryId — the order every strategy allocates in. Each node also
// carries the smallest max_memory in its subtree, which answers
// Max-with-bypass's "next request after this one that fits in R pages"
// by descending only into subtrees that hold a fitting request, instead
// of scanning every waiting query.
//
// Treap priorities are a hash of the QueryId, so the shape depends on
// the member set alone, never on the arrival sequence. Expected costs
// for n linked nodes: Insert, Erase and NextFitting O(log n); Next O(1)
// amortized over a walk.

#ifndef RTQ_CORE_ED_INDEX_H_
#define RTQ_CORE_ED_INDEX_H_

#include <cstddef>
#include <cstdint>

#include "core/allocation.h"

namespace rtq::core {

class EdIndex {
 public:
  class Node {
   public:
    MemRequest request;

   private:
    friend class EdIndex;
    Node* left_ = nullptr;
    Node* right_ = nullptr;
    Node* parent_ = nullptr;
    uint64_t priority_ = 0;
    PageCount min_max_ = 0;  // smallest request.max_memory in the subtree
  };

  EdIndex() = default;
  EdIndex(const EdIndex&) = delete;
  EdIndex& operator=(const EdIndex&) = delete;

  /// Earliest-Deadline order with a deterministic tie-break.
  static bool EdLess(const MemRequest& a, const MemRequest& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.id < b.id;
  }

  /// Links `node` in at its ED position.
  void Insert(Node* node);
  /// Unlinks `node`, which must be linked in this index.
  void Erase(Node* node);
  /// Replaces the contents with nodes[0..count) in array order, which
  /// need not be ED order: lets a strategy run over a reordered or
  /// filtered list. Such an index is positional — do not Insert into it.
  void Assign(Node* nodes, size_t count);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// First / last node in order; null when empty.
  const Node* first() const;
  const Node* last() const;
  /// The node after `node` in order; null after the last.
  static const Node* Next(const Node* node);
  /// The first node after `after` (from the start when `after` is null)
  /// whose max_memory <= limit; null when there is none.
  const Node* NextFitting(const Node* after, PageCount limit) const;

 private:
  static void Pull(Node* node);
  void Replace(Node* parent, Node* old_child, Node* new_child);
  void RotateUp(Node* node);
  static Node* Merge(Node* a, Node* b);
  static Node* Build(Node* nodes, size_t count, Node* parent, uint64_t rank);
  static const Node* LeftmostFitting(const Node* subtree, PageCount limit);

  Node* root_ = nullptr;
  size_t size_ = 0;
};

}  // namespace rtq::core

#endif  // RTQ_CORE_ED_INDEX_H_
