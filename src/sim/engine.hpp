#pragma once
/// \file engine.hpp
/// Discrete-event simulation kernel.
///
/// Everything dynamic in the reproduction -- batch queues draining, sites
/// failing, monitors polling, messages arriving -- is an event on this
/// engine.  The engine is single-threaded and deterministic: events at
/// equal timestamps fire in scheduling order (sequence-number tie-break),
/// so a given seed always produces the same run.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"

namespace sphinx::sim {

/// Opaque handle to a scheduled event; used to cancel it.  Names the
/// engine slot the event occupies and the event's id, so a handle to an
/// event that has fired never matches a later event reusing its slot.
class EventHandle {
 public:
  constexpr EventHandle() noexcept = default;

  [[nodiscard]] constexpr bool valid() const noexcept { return id_ != 0; }
  friend constexpr bool operator==(EventHandle, EventHandle) noexcept = default;

 private:
  friend class Engine;
  constexpr EventHandle(std::uint32_t slot, std::uint64_t id) noexcept
      : slot_(slot), id_(id) {}
  std::uint32_t slot_ = 0;
  std::uint64_t id_ = 0;
};

/// The event queue + clock.
class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time (seconds).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()).
  /// `label` names the event's family for diagnostics ("bus:deliver",
  /// "site:complete"); a literal of at most 15 characters stays in
  /// std::string's inline buffer and costs no allocation.
  EventHandle schedule_at(SimTime t, std::string label, Callback cb);

  /// Schedules `cb` after `delay` seconds (clamped to >= 0).
  EventHandle schedule_in(Duration delay, std::string label, Callback cb);

  /// Cancels a pending event and frees its callback's captured state at
  /// once.  Cancelling an already-fired, already-cancelled or invalid
  /// handle is a no-op (common when a job completes before its timeout),
  /// and so is an event cancelling itself while it runs.
  void cancel(EventHandle handle);

  /// True if the event is still pending.
  [[nodiscard]] bool pending(EventHandle handle) const;

  /// Fires the earliest pending event.  Returns false when the queue is
  /// empty (or only cancelled events remain).
  bool step();

  /// Runs until the queue drains, `limit` is reached, or stop() is called.
  /// Returns the number of events fired.  Where the clock ends: at
  /// `limit` when the next pending event lies past it, at the last fired
  /// event when the queue drains first.  It never moves backwards: a
  /// `limit` behind now() fires nothing and leaves the clock alone.
  std::size_t run_until(SimTime limit = kNever);

  /// Requests run_until() to return after the current event.
  void stop() noexcept { stop_requested_ = true; }

  /// Total events fired so far.
  [[nodiscard]] std::size_t events_fired() const noexcept { return fired_; }
  /// Events that will still fire: queued events minus cancelled ones,
  /// even while a cancelled event still sits in the queue.
  [[nodiscard]] std::size_t events_pending() const noexcept {  // sphinx-lint-allow(test-only): tests check that cancellation leaves nothing to fire
    return heap_.size() - cancelled_;
  }

  /// Label of the event currently being dispatched (empty outside dispatch).
  [[nodiscard]] const std::string& current_label() const noexcept {  // sphinx-lint-allow(test-only): tests check the label a callback runs under
    return current_label_;
  }

  /// Full structural sweep: clock monotonicity (no pending event is in
  /// the past) and slot bookkeeping (every slot is queued exactly once or
  /// free, never both; a queued slot holds its entry's nonzero id; the
  /// cancelled count matches the queued slots without a callback).
  /// Throws ContractViolation on corruption; a no-op when contracts are
  /// compiled out.  Cheap per-event checks run inline in
  /// step()/schedule_at(); this sweep is for tests and debugging sessions.
  void check_invariants() const;

 private:
  friend struct EngineInspector;  // test-only fault injection
  /// A heap entry: trivially copyable, so sifting moves 24 bytes.
  struct Entry {
    SimTime time;
    std::uint64_t seq;   // tie-break (FIFO among equal times); the event id
    std::uint32_t slot;  // index into slots_
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// A queued event's payload.  Free slots hold id 0; a cancelled event
  /// keeps its id but no callback until its entry leaves the heap.
  struct Slot {
    std::uint64_t id = 0;
    std::string label;
    Callback callback;
  };

  /// Pops cancelled entries off the heap top and frees their slots.
  void drop_cancelled_top();
  /// Pops the heap top and returns its slot to the free list; the slot's
  /// label and callback stay for the caller to move out.
  Entry pop_top();

  std::vector<Entry> heap_;  // binary heap under Later: earliest on top
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // slots not holding a queued event
  std::size_t cancelled_ = 0;        // queued entries whose slot is cancelled
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::size_t fired_ = 0;
  bool stop_requested_ = false;
  std::string current_label_;
};

/// A periodic activity (monitor poll, control-process sweep, background
/// job arrivals).  Owns its pending event; stops cleanly on destruction.
class PeriodicProcess {
 public:
  using Body = std::function<void()>;

  /// \param jitter0 offset of the first firing after start().
  PeriodicProcess(Engine& engine, std::string label, Duration period, Body body,
                  Duration jitter0 = 0.0);
  ~PeriodicProcess();

  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  /// Begins firing; idempotent.
  void start();
  /// Begins firing with the first event at absolute time `t` (clamped to
  /// >= now); idempotent while running.  Lets a restarted process resume
  /// the exact firing phase of a predecessor (see next_fire_at()) instead
  /// of recomputing it -- recomputation drifts in floating point.
  void start_at(SimTime t);
  /// Stops firing; idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Absolute time of the next pending firing (meaningful while running).
  [[nodiscard]] SimTime next_fire_at() const noexcept { return next_at_; }

 private:
  void fire();

  Engine& engine_;
  std::string label_;
  const Duration period_;
  Body body_;
  Duration jitter0_;
  EventHandle next_;
  SimTime next_at_ = 0.0;
  bool running_ = false;
};

}  // namespace sphinx::sim
