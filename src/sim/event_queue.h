#pragma once
// Deterministic discrete-event scheduler.
//
// Events at the same timestamp fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which keeps every run
// bit-reproducible for a fixed seed.
//
// An event is one of two typed entries: a frame delivery to one link of
// a Medium, or a timer action. Deliveries are the bulk of a run (one per
// link per copy per hop) and carry only the medium, the link index and
// the shared frame, never a heap-allocated closure. Entries sit in a
// slot store whose freed slots are reused.
//
// Events scheduled back to back for the same instant form a run: they
// fire consecutively, in scheduling order, since nothing scheduled
// before them at that instant fires later and nothing scheduled after
// them fires earlier. A run is a FIFO list of slots, and the heap orders
// one small {at, seq, head slot} key per run. A broadcast over
// fixed-latency links, or a flood burst, is then one heap entry.

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "sim/frame.h"
#include "sim/time.h"

namespace dap::sim {

class Medium;

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `action` at absolute time `at`; `at` may equal now() but
  /// must not be in the past (throws std::invalid_argument).
  void schedule_at(SimTime at, Action action);

  /// Schedules delivery of `frame` to link `link` of `medium`, `delay`
  /// after now(). Medium::broadcast is the caller.
  void schedule_delivery(SimTime delay, Medium& medium, std::uint32_t link,
                         FramePtr frame);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// Runs the next event; returns false if none remain.
  bool step();

  /// Runs all events with time <= `until`. The horizon is inclusive and
  /// applies to events scheduled *during* the run too: an action firing
  /// at any t <= until may schedule new work at exactly `until` and that
  /// work runs in this same call (same-time events still fire in
  /// scheduling order). Events strictly beyond `until` stay queued.
  /// After the call now() == max(now(), until) even when the queue went
  /// quiet earlier, so back-to-back run_until calls see monotone time.
  void run_until(SimTime until);

  /// Drains the queue completely.
  void run();

 private:
  struct Delivery {
    Medium* medium;
    std::uint32_t link;
    FramePtr frame;
  };
  using Event = std::variant<Delivery, Action>;

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  struct Slot {
    Event event;
    std::uint32_t next = kNoSlot;  // the run's next event
  };
  /// One run: its time, the seq of its first event, its current head.
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t head;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void push(SimTime at, Event event);

  std::vector<Key> heap_;  // std::push_heap / pop_heap with Later
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// The run the latest push joined or opened, while it still has
  /// events pending (kNoSlot otherwise): its time and its last slot.
  SimTime open_at_ = 0;
  std::uint32_t open_tail_ = kNoSlot;
  std::size_t pending_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dap::sim
