#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/medium.h"

namespace dap::sim {

void EventQueue::schedule_at(SimTime at, Action action) {
  if (at < now_) {
    throw std::invalid_argument("EventQueue::schedule_at: time in the past");
  }
  if (!action) {
    throw std::invalid_argument("EventQueue::schedule_at: empty action");
  }
  push(at, std::move(action));
}

void EventQueue::schedule_delivery(SimTime delay, Medium& medium,
                                   std::uint32_t link, FramePtr frame) {
  push(now_ + delay, Delivery{&medium, link, std::move(frame)});
}

void EventQueue::push(SimTime at, Event event) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(event)});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = Slot{std::move(event)};
  }
  ++pending_;
  const std::uint64_t seq = next_seq_++;
  if (open_tail_ != kNoSlot && open_at_ == at) {
    // Same instant as the previous push: join its run.
    slots_[open_tail_].next = slot;
    open_tail_ = slot;
    return;
  }
  heap_.push_back(Key{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  open_at_ = at;
  open_tail_ = slot;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // The earliest run stays earliest until it is exhausted: every other
  // event at its instant was scheduled after its last event.
  Key& run = heap_.front();
  const std::uint32_t slot = run.head;
  now_ = run.at;
  if (slots_[slot].next != kNoSlot) {
    run.head = slots_[slot].next;
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (open_tail_ == slot) open_tail_ = kNoSlot;
  }
  // Move the entry out and free its slot before running it: the event
  // may schedule more, which can reuse the slot or grow the store.
  Event event = std::move(slots_[slot].event);
  free_slots_.push_back(slot);
  --pending_;
  if (Delivery* delivery = std::get_if<Delivery>(&event)) {
    delivery->medium->deliver(delivery->link, delivery->frame);
  } else {
    std::get<Action>(event)();
  }
  return true;
}

void EventQueue::run_until(SimTime until) {
  while (!heap_.empty() && heap_.front().at <= until) {
    step();
  }
  if (now_ < until) now_ = until;
}

void EventQueue::run() {
  while (step()) {
  }
}

}  // namespace dap::sim
