#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"

namespace sphinx::sim {

EventHandle Engine::schedule_at(SimTime t, std::string label, Callback cb) {
  SPHINX_PRECONDITION(cb != nullptr, "event callback must not be null");
  SPHINX_PRECONDITION(!std::isnan(t), "event time must not be NaN");
  if (t < now_) t = now_;  // late scheduling fires immediately, never rewinds
  if (free_.empty()) {
    free_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t index = free_.back();
  free_.pop_back();
  const std::uint64_t id = next_seq_++;
  Slot& slot = slots_[index];
  slot.id = id;
  slot.label = std::move(label);
  slot.callback = std::move(cb);
  heap_.push_back(Entry{t, id, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  const EventHandle handle(index, id);
  SPHINX_POSTCONDITION(pending(handle), "scheduled event must be pending");
  return handle;
}

EventHandle Engine::schedule_in(Duration delay, std::string label, Callback cb) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(label), std::move(cb));
}

void Engine::cancel(EventHandle handle) {
  // Only a pending event is marked, so the cancelled count cannot drift.
  // The entry stays in the heap until it surfaces; the captured state goes
  // now, after the bookkeeping, in case its destructor re-enters.
  if (!pending(handle)) return;
  Callback dropped;
  dropped.swap(slots_[handle.slot_].callback);
  ++cancelled_;
}

bool Engine::pending(EventHandle handle) const {
  return handle.valid() && handle.slot_ < slots_.size() &&
         slots_[handle.slot_].id == handle.id_ &&
         static_cast<bool>(slots_[handle.slot_].callback);
}

Engine::Entry Engine::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  slots_[top.slot].id = 0;
  free_.push_back(top.slot);
  return top;
}

void Engine::drop_cancelled_top() {
  while (!heap_.empty() && !slots_[heap_.front().slot].callback) {
    pop_top();
    --cancelled_;
  }
}

bool Engine::step() {
  drop_cancelled_top();
  if (heap_.empty()) return false;
  // The slot is released before the callback runs: a stale handle to
  // this event no longer matches, and the callback may reuse the slot.
  const Entry top = pop_top();
  Callback callback;
  callback.swap(slots_[top.slot].callback);
  current_label_ = std::move(slots_[top.slot].label);
  // Monotonicity: the heap can never surface an event behind the clock
  // (schedule_at clamps late insertions to now()).
  SPHINX_INVARIANT(top.time >= now_, "event queue went non-monotonic");
  now_ = top.time;
  ++fired_;
  callback();
  current_label_.clear();
  return true;
}

std::size_t Engine::run_until(SimTime limit) {
  std::size_t n = 0;
  stop_requested_ = false;
  while (!stop_requested_) {
    // Peek: do not fire events beyond the horizon.
    drop_cancelled_top();
    if (heap_.empty()) break;
    if (heap_.front().time > limit) {
      now_ = std::max(now_, limit);  // the clock never moves backwards
      return n;
    }
    step();
    ++n;
  }
  return n;
}

void Engine::check_invariants() const {
#if SPHINX_CONTRACTS_ENABLED
  SPHINX_INVARIANT(now_ >= 0.0 && !std::isnan(now_),
                   "simulation clock must be a non-negative number");
  enum class Use : unsigned char { kUnseen, kQueued, kFree };
  std::vector<Use> use(slots_.size(), Use::kUnseen);
  std::size_t cancelled = 0;
  for (const Entry& entry : heap_) {
    SPHINX_INVARIANT(
        entry.slot < slots_.size() && use[entry.slot] == Use::kUnseen,
        "a heap entry must name a slot no other entry names");
    use[entry.slot] = Use::kQueued;
    const Slot& slot = slots_[entry.slot];
    SPHINX_INVARIANT(slot.id != 0 && slot.id == entry.seq,
                     "a queued slot must hold its entry's nonzero id");
    if (!slot.callback) ++cancelled;
  }
  for (const std::uint32_t index : free_) {
    SPHINX_INVARIANT(index < slots_.size() && use[index] == Use::kUnseen,
                     "a slot must be either queued or free, never both");
    use[index] = Use::kFree;
    SPHINX_INVARIANT(slots_[index].id == 0, "a free slot must hold id 0");
  }
  SPHINX_INVARIANT(std::count(use.begin(), use.end(), Use::kUnseen) == 0,
                   "every slot must be queued or free");
  SPHINX_INVARIANT(cancelled == cancelled_,
                   "cancelled count must match the queued slots without a "
                   "callback");
  // The heap top is the earliest entry; if even it is not behind the
  // clock, no entry is.
  SPHINX_INVARIANT(heap_.empty() || heap_.front().time >= now_,
                   "pending event lies in the past");
#endif
}

PeriodicProcess::PeriodicProcess(Engine& engine, std::string label,
                                 Duration period, Body body, Duration jitter0)
    : engine_(engine),
      label_(std::move(label)),
      period_(period),
      body_(std::move(body)),
      jitter0_(jitter0) {
  SPHINX_PRECONDITION(period_ > 0, "periodic process period must be positive");
  SPHINX_PRECONDITION(body_ != nullptr,
                      "periodic process body must not be null");
}

PeriodicProcess::~PeriodicProcess() { stop(); }

void PeriodicProcess::start() {
  start_at(engine_.now() + jitter0_);
}

void PeriodicProcess::start_at(SimTime t) {
  if (running_) return;
  running_ = true;
  if (t < engine_.now()) t = engine_.now();
  next_at_ = t;
  next_ = engine_.schedule_at(t, label_, [this] { fire(); });
}

void PeriodicProcess::stop() {
  if (!running_) return;
  running_ = false;
  engine_.cancel(next_);
  next_ = EventHandle{};
}

void PeriodicProcess::fire() {
  if (!running_) return;
  // Reschedule first so the body may call stop() to terminate the chain.
  next_at_ = engine_.now() + period_;
  next_ = engine_.schedule_at(next_at_, label_, [this] { fire(); });
  body_();
}

}  // namespace sphinx::sim
