#include "sim/event_queue.hpp"

#include <algorithm>

namespace flexsfp::sim {

EventQueue::~EventQueue() {
  // Destroy every pending closure; node memory is slab-owned.
  for (const Ref& ref : heap_) {
    if (ref.node->destroy != nullptr) ref.node->destroy(ref.node->storage);
  }
}

EventQueue::Node* EventQueue::acquire_node() {
  if (free_nodes_ == nullptr) {
    auto slab = std::make_unique<Node[]>(kSlabNodes);
    for (std::size_t i = 0; i < kSlabNodes; ++i) {
      slab[i].next_free = free_nodes_;
      free_nodes_ = &slab[i];
    }
    slabs_.push_back(std::move(slab));
    ++stats_.slabs_allocated;
  }
  Node* node = free_nodes_;
  free_nodes_ = node->next_free;
  return node;
}

void EventQueue::release_node(Node* node) {
  node->invoke = nullptr;
  node->destroy = nullptr;
  node->next_free = free_nodes_;
  free_nodes_ = node;
}

void EventQueue::insert(const Ref& ref) {
  heap_.push_back(ref);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++stats_.pushed;
  if (heap_.size() > stats_.pending_high_watermark) {
    stats_.pending_high_watermark = heap_.size();
  }
}

EventQueue::Popped EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Ref ref = heap_.back();
  heap_.pop_back();
  return Popped{this, ref.node, ref.at};
}

void EventQueue::Popped::invoke() {
  node_->invoke(node_->storage);
  node_->destroy(node_->storage);
  node_->destroy = nullptr;
}

EventQueue::Popped::~Popped() {
  if (node_ == nullptr) return;
  if (node_->destroy != nullptr) node_->destroy(node_->storage);
  queue_->release_node(node_);
}

}  // namespace flexsfp::sim
