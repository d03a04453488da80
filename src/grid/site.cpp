#include "grid/site.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace sphinx::grid {

const char* to_string(RemoteJobState state) noexcept {
  switch (state) {
    case RemoteJobState::kQueued: return "queued";
    case RemoteJobState::kStaging: return "staging";
    case RemoteJobState::kRunning: return "running";
    case RemoteJobState::kCompleted: return "completed";
    case RemoteJobState::kHeld: return "held";
    case RemoteJobState::kCancelled: return "cancelled";
  }
  return "?";
}

const char* to_string(SiteHealth health) noexcept {
  switch (health) {
    case SiteHealth::kHealthy: return "healthy";
    case SiteHealth::kDown: return "down";
    case SiteHealth::kBlackHole: return "black-hole";
    case SiteHealth::kDegraded: return "degraded";
  }
  return "?";
}

Site::Site(sim::Engine& engine, SiteId id, SiteConfig config, Rng rng)
    : engine_(engine), id_(id), config_(std::move(config)), rng_(std::move(rng)) {
  SPHINX_ASSERT(config_.cpus > 0, "site must have at least one CPU");
  SPHINX_ASSERT(config_.cpu_speed > 0, "cpu speed must be positive");
}

std::optional<SubmissionId> Site::submit(RemoteJob job,
                                         JobEventCallback callback) {
  if (health_ == SiteHealth::kDown) return std::nullopt;
  job.submission = submission_ids_.next();

  // The site's VO priority sets the base; the submitter's requested
  // priority is honoured only as a bounded within-VO nudge (a user cannot
  // out-rank another VO by asking nicely).
  if (const auto it = config_.vo_priority.find(job.vo);
      it != config_.vo_priority.end()) {
    job.priority = it->second + std::clamp(job.priority, -0.9, 0.9);
  }

  const SubmissionId sid = job.submission;
  const QueueKey key{-job.priority, arrival_seq_++};
  queue_.emplace(key, sid);
  Entry& entry = entries_[sid];
  entry.job = std::move(job);
  entry.callback = std::move(callback);
  entry.queue_key = key;

  emit(entry, RemoteJobState::kQueued);
  // Dispatch on the next engine tick so the submit call returns first.
  engine_.schedule_in(0.0, "site:dispatch", [this] { try_dispatch(); });
  return sid;
}

bool Site::cancel(SubmissionId submission) {
  if (health_ == SiteHealth::kDown) return false;
  const auto it = entries_.find(submission);
  if (it == entries_.end() || is_terminal(it->second.state)) return false;

  Entry& entry = it->second;
  if (entry.state == RemoteJobState::kQueued) {
    queue_.erase(entry.queue_key);
  } else {
    // Staging or running: free the CPU.
    engine_.cancel(entry.completion);
    --busy_cpus_;
    engine_.schedule_in(0.0, "site:dispatch", [this] { try_dispatch(); });
  }
  emit(entry, RemoteJobState::kCancelled);
  return true;
}

std::optional<QueueStatus> Site::query() const {
  if (health_ == SiteHealth::kDown) return std::nullopt;
  QueueStatus status;
  status.cpus = config_.cpus;
  status.queued = static_cast<int>(queue_.size());
  status.running = busy_cpus_;
  status.free_cpus = config_.cpus - busy_cpus_;
  return status;
}

void Site::go_down() {
  health_ = SiteHealth::kDown;
  // Every live job is silently lost and its entry dropped; no events are
  // emitted because an unresponsive site cannot notify anyone.  The
  // submitter only finds out through its own timeouts.  A terminal entry
  // here is one whose last event is being delivered: its emit retires it.
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& entry = it->second;
    if (is_terminal(entry.state)) {
      ++it;
      continue;
    }
    engine_.cancel(entry.completion);
    if (entry.state != RemoteJobState::kQueued) --busy_cpus_;
    it = entries_.erase(it);
  }
  queue_.clear();
  SPHINX_ASSERT(busy_cpus_ == 0, "cpu accounting broken on go_down");
}

void Site::become_black_hole() { health_ = SiteHealth::kBlackHole; }

void Site::degrade() { health_ = SiteHealth::kDegraded; }

void Site::recover() {
  health_ = SiteHealth::kHealthy;
  engine_.schedule_in(0.0, "site:dispatch", [this] { try_dispatch(); });
}

void Site::emit(Entry& entry, RemoteJobState state) {
  entry.state = state;
  const JobEvent event{entry.job.submission, state, engine_.now()};
  if (entry.callback) {
    // A cancel from inside the callback retires the entry, callback and
    // all: call a copy.
    const JobEventCallback callback = entry.callback;
    callback(event);
  }
  if (is_terminal(state)) entries_.erase(event.submission);
}

double Site::effective_speed() const noexcept {
  const double base = config_.cpu_speed;
  return health_ == SiteHealth::kDegraded ? base * kDegradedSpeed : base;
}

void Site::try_dispatch() {
  if (health_ == SiteHealth::kDown || health_ == SiteHealth::kBlackHole) {
    return;  // black holes accept work but never start it
  }
  while (busy_cpus_ < config_.cpus && !queue_.empty()) {
    const auto front = queue_.begin();
    const SubmissionId sid = front->second;
    queue_.erase(front);
    ++busy_cpus_;
    start_job(sid);
  }
}

void Site::start_job(SubmissionId submission) {
  emit(entries_.at(submission), RemoteJobState::kStaging);
  const auto live = entries_.find(submission);
  if (live == entries_.end()) return;  // the callback cancelled it
  // The stage-in runs once; moved out, it outlives a cancel that retires
  // the entry from inside it.
  const auto stage = std::move(live->second.job.stage);
  if (!stage) {
    begin_compute(submission);
    return;
  }
  stage([this, submission] {
    // The job may have been cancelled or the site may have failed while
    // data was in flight.
    const auto it = entries_.find(submission);
    if (it == entries_.end() || it->second.state != RemoteJobState::kStaging ||
        health_ == SiteHealth::kDown) {
      return;
    }
    begin_compute(submission);
  });
}

void Site::begin_compute(SubmissionId submission) {
  emit(entries_.at(submission), RemoteJobState::kRunning);
  const auto live = entries_.find(submission);
  if (live == entries_.end()) return;  // the callback cancelled it
  Entry& entry = live->second;

  double runtime = entry.job.compute_time / effective_speed();
  if (config_.runtime_noise > 0) {
    runtime *= rng_.lognormal(0.0, config_.runtime_noise);
  }
  entry.completion = engine_.schedule_in(
      runtime, "site:complete", [this, submission] {
        Entry& e = entries_.at(submission);
        if (e.state != RemoteJobState::kRunning) return;
        --busy_cpus_;
        emit(e, RemoteJobState::kCompleted);
        try_dispatch();
      });
}

}  // namespace sphinx::grid
