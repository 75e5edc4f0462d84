#include "core/ed_index.h"

#include <algorithm>

#include "common/check.h"

namespace rtq::core {
namespace {

// splitmix64 finalizer: spreads consecutive QueryIds over the priority
// space so arrival-ordered ids still build a balanced treap.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void EdIndex::Pull(Node* node) {
  PageCount m = node->request.max_memory;
  if (node->left_ != nullptr) m = std::min(m, node->left_->min_max_);
  if (node->right_ != nullptr) m = std::min(m, node->right_->min_max_);
  node->min_max_ = m;
}

void EdIndex::Replace(Node* parent, Node* old_child, Node* new_child) {
  if (parent == nullptr) {
    root_ = new_child;
  } else if (parent->left_ == old_child) {
    parent->left_ = new_child;
  } else {
    parent->right_ = new_child;
  }
}

void EdIndex::RotateUp(Node* node) {
  Node* parent = node->parent_;
  Node* grand = parent->parent_;
  if (parent->left_ == node) {
    parent->left_ = node->right_;
    if (parent->left_ != nullptr) parent->left_->parent_ = parent;
    node->right_ = parent;
  } else {
    parent->right_ = node->left_;
    if (parent->right_ != nullptr) parent->right_->parent_ = parent;
    node->left_ = parent;
  }
  parent->parent_ = node;
  node->parent_ = grand;
  Replace(grand, parent, node);
  Pull(parent);
  Pull(node);
}

void EdIndex::Insert(Node* node) {
  node->left_ = nullptr;
  node->right_ = nullptr;
  node->priority_ = Mix(static_cast<uint64_t>(node->request.id));
  node->min_max_ = node->request.max_memory;
  Node* parent = nullptr;
  Node** link = &root_;
  while (*link != nullptr) {
    parent = *link;
    link = EdLess(node->request, parent->request) ? &parent->left_
                                                  : &parent->right_;
  }
  *link = node;
  node->parent_ = parent;
  while (node->parent_ != nullptr &&
         node->parent_->priority_ < node->priority_) {
    RotateUp(node);
  }
  for (Node* n = node->parent_; n != nullptr; n = n->parent_) Pull(n);
  ++size_;
}

EdIndex::Node* EdIndex::Merge(Node* a, Node* b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  if (a->priority_ >= b->priority_) {
    a->right_ = Merge(a->right_, b);
    a->right_->parent_ = a;
    Pull(a);
    return a;
  }
  b->left_ = Merge(a, b->left_);
  b->left_->parent_ = b;
  Pull(b);
  return b;
}

void EdIndex::Erase(Node* node) {
  RTQ_DCHECK(size_ > 0);
  Node* parent = node->parent_;
  Node* replacement = Merge(node->left_, node->right_);
  if (replacement != nullptr) replacement->parent_ = parent;
  Replace(parent, node, replacement);
  for (Node* n = parent; n != nullptr; n = n->parent_) Pull(n);
  node->left_ = node->right_ = node->parent_ = nullptr;
  --size_;
}

EdIndex::Node* EdIndex::Build(Node* nodes, size_t count, Node* parent,
                              uint64_t rank) {
  if (count == 0) return nullptr;
  size_t mid = count / 2;
  Node* node = &nodes[mid];
  node->parent_ = parent;
  node->priority_ = rank;  // shallower = higher: keeps the heap property
  node->left_ = Build(nodes, mid, node, rank - 1);
  node->right_ = Build(nodes + mid + 1, count - mid - 1, node, rank - 1);
  Pull(node);
  return node;
}

void EdIndex::Assign(Node* nodes, size_t count) {
  root_ = Build(nodes, count, nullptr, UINT64_MAX);
  size_ = count;
}

const EdIndex::Node* EdIndex::first() const {
  const Node* n = root_;
  if (n == nullptr) return nullptr;
  while (n->left_ != nullptr) n = n->left_;
  return n;
}

const EdIndex::Node* EdIndex::last() const {
  const Node* n = root_;
  if (n == nullptr) return nullptr;
  while (n->right_ != nullptr) n = n->right_;
  return n;
}

const EdIndex::Node* EdIndex::Next(const Node* node) {
  if (node->right_ != nullptr) {
    node = node->right_;
    while (node->left_ != nullptr) node = node->left_;
    return node;
  }
  while (node->parent_ != nullptr && node->parent_->right_ == node) {
    node = node->parent_;
  }
  return node->parent_;
}

const EdIndex::Node* EdIndex::LeftmostFitting(const Node* subtree,
                                              PageCount limit) {
  // Precondition: subtree->min_max_ <= limit, so a fitting node exists
  // and every step below stays inside a subtree that holds one.
  for (;;) {
    if (subtree->left_ != nullptr && subtree->left_->min_max_ <= limit) {
      subtree = subtree->left_;
    } else if (subtree->request.max_memory <= limit) {
      return subtree;
    } else {
      subtree = subtree->right_;
    }
  }
}

const EdIndex::Node* EdIndex::NextFitting(const Node* after,
                                          PageCount limit) const {
  if (root_ == nullptr || root_->min_max_ > limit) return nullptr;
  if (after == nullptr) return LeftmostFitting(root_, limit);
  // Everything after `after` in order is its right subtree, then each
  // ancestor reached from a left child together with that ancestor's
  // right subtree.
  if (after->right_ != nullptr && after->right_->min_max_ <= limit) {
    return LeftmostFitting(after->right_, limit);
  }
  for (const Node* n = after; n->parent_ != nullptr; n = n->parent_) {
    const Node* parent = n->parent_;
    if (parent->left_ != n) continue;
    if (parent->request.max_memory <= limit) return parent;
    if (parent->right_ != nullptr && parent->right_->min_max_ <= limit) {
      return LeftmostFitting(parent->right_, limit);
    }
  }
  return nullptr;
}

}  // namespace rtq::core
