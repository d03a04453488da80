#pragma once
/// \file submission_reference.hpp
/// The submission path as it was before sites and the Condor-G gateway
/// retired finished work, kept as the tests' reference: a Site whose
/// entries stay after they end (go_down marks them held), a Grid of such
/// sites, and a CondorG whose records stay after their terminal event
/// (a resubmission of the same (job, attempt) replaces one).  Both are
/// copies of that code, changed only to live in this namespace; the grid
/// holds bare sites, with no failure model or background load.  Driven
/// through one seeded schedule next to the retiring path, every event,
/// every sim time and every engine event they schedule must match.

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "data/gridftp.hpp"
#include "data/rls.hpp"
#include "grid/grid.hpp"
#include "grid/site.hpp"
#include "grid/types.hpp"
#include "sim/engine.hpp"
#include "submit/condor_g.hpp"

namespace sphinx::submission_reference {

using grid::JobEvent;
using grid::JobEventCallback;
using grid::QueueStatus;
using grid::RemoteJob;
using grid::RemoteJobState;
using grid::SiteConfig;
using grid::SiteHealth;

// --- the site ---------------------------------------------------------------

class Site {
 public:
  Site(sim::Engine& engine, SiteId id, SiteConfig config, Rng rng)
      : engine_(engine),
        id_(id),
        config_(std::move(config)),
        rng_(std::move(rng)) {
    SPHINX_ASSERT(config_.cpus > 0, "site must have at least one CPU");
    SPHINX_ASSERT(config_.cpu_speed > 0, "cpu speed must be positive");
  }

  std::optional<SubmissionId> submit(RemoteJob job, JobEventCallback callback) {
    if (health_ == SiteHealth::kDown) return std::nullopt;
    job.submission = submission_ids_.next();
    if (const auto it = config_.vo_priority.find(job.vo);
        it != config_.vo_priority.end()) {
      job.priority = it->second + std::clamp(job.priority, -0.9, 0.9);
    }
    Entry entry;
    entry.job = std::move(job);
    entry.callback = std::move(callback);
    entry.submitted_at = engine_.now();
    const SubmissionId sid = entry.job.submission;
    const double priority = entry.job.priority;
    entries_.emplace(sid, std::move(entry));
    const auto key = std::make_pair(-priority, arrival_seq_++);
    queue_.emplace(key, sid);
    queue_pos_.emplace(sid, key);
    emit(entries_.at(sid), RemoteJobState::kQueued);
    engine_.schedule_in(0.0, "site:dispatch", [this] { try_dispatch(); });
    return sid;
  }

  bool cancel(SubmissionId submission) {
    if (health_ == SiteHealth::kDown) return false;
    const auto it = entries_.find(submission);
    if (it == entries_.end() || grid::is_terminal(it->second.state)) {
      return false;
    }
    Entry& entry = it->second;
    if (entry.state == RemoteJobState::kQueued) {
      if (const auto pos = queue_pos_.find(submission);
          pos != queue_pos_.end()) {
        queue_.erase(pos->second);
        queue_pos_.erase(pos);
      }
    } else {
      engine_.cancel(entry.completion);
      --busy_cpus_;
      engine_.schedule_in(0.0, "site:dispatch", [this] { try_dispatch(); });
    }
    emit(entry, RemoteJobState::kCancelled);
    return true;
  }

  [[nodiscard]] std::optional<QueueStatus> query() const {
    if (health_ == SiteHealth::kDown) return std::nullopt;
    QueueStatus status;
    status.cpus = config_.cpus;
    status.queued = static_cast<int>(queue_.size());
    status.running = busy_cpus_;
    status.free_cpus = config_.cpus - busy_cpus_;
    return status;
  }

  void go_down() {
    health_ = SiteHealth::kDown;
    for (auto& [sid, entry] : entries_) {
      if (grid::is_terminal(entry.state)) continue;
      engine_.cancel(entry.completion);
      if (entry.state != RemoteJobState::kQueued) --busy_cpus_;
      entry.state = RemoteJobState::kHeld;
    }
    queue_.clear();
    queue_pos_.clear();
    SPHINX_ASSERT(busy_cpus_ == 0, "cpu accounting broken on go_down");
  }
  void become_black_hole() { health_ = SiteHealth::kBlackHole; }
  void degrade() { health_ = SiteHealth::kDegraded; }
  void recover() {
    health_ = SiteHealth::kHealthy;
    engine_.schedule_in(0.0, "site:dispatch", [this] { try_dispatch(); });
  }

 private:
  struct Entry {
    RemoteJob job;
    RemoteJobState state = RemoteJobState::kQueued;
    JobEventCallback callback;
    SimTime submitted_at = 0.0;
    sim::EventHandle completion;
  };

  void emit(Entry& entry, RemoteJobState state) {
    entry.state = state;
    if (entry.callback) {
      entry.callback(JobEvent{entry.job.submission, state, engine_.now()});
    }
  }

  [[nodiscard]] double effective_speed() const noexcept {
    const double base = config_.cpu_speed;
    return health_ == SiteHealth::kDegraded ? base * grid::kDegradedSpeed
                                            : base;
  }

  void try_dispatch() {
    if (health_ == SiteHealth::kDown || health_ == SiteHealth::kBlackHole) {
      return;
    }
    while (busy_cpus_ < config_.cpus && !queue_.empty()) {
      const auto front = queue_.begin();
      const SubmissionId sid = front->second;
      queue_.erase(front);
      queue_pos_.erase(sid);
      ++busy_cpus_;
      start_job(sid);
    }
  }

  void start_job(SubmissionId submission) {
    Entry& entry = entries_.at(submission);
    emit(entry, RemoteJobState::kStaging);
    if (entry.state != RemoteJobState::kStaging) return;
    const auto resume = [this, submission] {
      const auto it = entries_.find(submission);
      if (it == entries_.end() ||
          it->second.state != RemoteJobState::kStaging ||
          health_ == SiteHealth::kDown) {
        return;
      }
      begin_compute(submission);
    };
    if (entry.job.stage) {
      entry.job.stage(resume);
    } else {
      begin_compute(submission);
    }
  }

  void begin_compute(SubmissionId submission) {
    Entry& entry = entries_.at(submission);
    emit(entry, RemoteJobState::kRunning);
    if (entry.state != RemoteJobState::kRunning) return;
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

  sim::Engine& engine_;
  SiteId id_;
  SiteConfig config_;
  Rng rng_;
  SiteHealth health_ = SiteHealth::kHealthy;
  std::map<std::pair<double, std::uint64_t>, SubmissionId> queue_;
  std::uint64_t arrival_seq_ = 0;
  IdGenerator<SubmissionId> submission_ids_;
  int busy_cpus_ = 0;
  std::unordered_map<SubmissionId, Entry> entries_;
  std::unordered_map<SubmissionId, std::pair<double, std::uint64_t>> queue_pos_;
};

// --- the grid: bare sites, seeded as grid::Grid seeds them ------------------

class Grid {
 public:
  Grid(sim::Engine& engine, SeedTree seeds) : engine_(engine), seeds_(seeds) {}

  SiteId add_site(const grid::SiteSpec& spec) {
    const SiteId id = site_ids_.next();
    sites_.push_back(std::make_unique<Site>(
        engine_, id, spec.site, seeds_.stream("site/" + spec.site.name)));
    return id;
  }
  [[nodiscard]] Site& site(SiteId id) { return *sites_.at(id.value() - 1); }
  [[nodiscard]] const Site& site(SiteId id) const {
    return *sites_.at(id.value() - 1);
  }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

 private:
  sim::Engine& engine_;
  SeedTree seeds_;
  IdGenerator<SiteId> site_ids_;
  std::vector<std::unique_ptr<Site>> sites_;
};

// --- the gateway ------------------------------------------------------------

using submit::GatewayCallback;
using submit::GatewayEvent;
using submit::GatewayJobState;
using submit::StagedInput;
using submit::SubmitRequest;

class CondorG {
 public:
  CondorG(Grid& grid, data::TransferService& transfers,
          data::ReplicaLocationService& rls, std::string name)
      : grid_(grid), transfers_(transfers), rls_(rls), name_(std::move(name)) {}

  bool submit(const SubmitRequest& request, GatewayCallback callback) {
    SPHINX_ASSERT(request.job.valid(), "submit needs a valid job id");
    const Key key{request.job.value(), request.attempt};
    if (const auto it = records_.find(key); it != records_.end()) {
      const GatewayJobState s = it->second.state;
      SPHINX_ASSERT(s == GatewayJobState::kCompleted ||
                        s == GatewayJobState::kRemoved ||
                        s == GatewayJobState::kFailed ||
                        s == GatewayJobState::kHeld,
                    "job attempt already active on this gateway");
      records_.erase(it);
    }
    Site& site = grid_.site(request.site);
    Record record;
    record.request = request;
    record.site = request.site;
    record.callback = std::move(callback);

    RemoteJob remote;
    remote.job = request.job;
    remote.user = request.user;
    remote.vo = request.vo;
    remote.priority = request.priority;
    remote.compute_time = request.compute_time;
    remote.stage = [this, key](std::function<void()> done) {
      stage_inputs(key, std::move(done));
    };
    auto& stored = records_.emplace(key, std::move(record)).first->second;
    const auto submission = site.submit(
        std::move(remote), [this, key](const JobEvent& event) {
          const auto it = records_.find(key);
          if (it == records_.end()) return;
          Record& rec = it->second;
          switch (event.state) {
            case RemoteJobState::kQueued:
              relay(rec, GatewayJobState::kIdle, event.at);
              break;
            case RemoteJobState::kStaging:
              relay(rec, GatewayJobState::kStaging, event.at);
              break;
            case RemoteJobState::kRunning:
              relay(rec, GatewayJobState::kRunning, event.at);
              break;
            case RemoteJobState::kCompleted:
              on_completed(rec);
              relay(rec, GatewayJobState::kCompleted, event.at);
              break;
            case RemoteJobState::kHeld:
              relay(rec, GatewayJobState::kHeld, event.at);
              break;
            case RemoteJobState::kCancelled:
              relay(rec, GatewayJobState::kRemoved, event.at);
              break;
          }
        });
    if (!submission.has_value()) {
      relay(stored, GatewayJobState::kFailed, grid_.engine().now());
      return false;
    }
    stored.submission = *submission;
    return true;
  }

  bool cancel(JobId job, int attempt) {
    const auto it = records_.find(Key{job.value(), attempt});
    if (it == records_.end()) return false;
    Record& rec = it->second;
    if (rec.state == GatewayJobState::kCompleted ||
        rec.state == GatewayJobState::kRemoved ||
        rec.state == GatewayJobState::kFailed) {
      return false;
    }
    for (const TransferId tid : rec.active_transfers) transfers_.cancel(tid);
    rec.active_transfers.clear();
    Site& site = grid_.site(rec.site);
    if (site.cancel(rec.submission)) return true;
    relay(rec, GatewayJobState::kRemoved, grid_.engine().now());
    return true;
  }

  [[nodiscard]] std::optional<GatewayJobState> state_of(JobId job,
                                                        int attempt) const {
    const auto it = records_.find(Key{job.value(), attempt});
    if (it == records_.end()) return std::nullopt;
    return it->second.state;
  }

  [[nodiscard]] bool site_responsive(JobId job, int attempt) const {
    const auto it = records_.find(Key{job.value(), attempt});
    if (it == records_.end()) return false;
    return grid_.site(it->second.site).query().has_value();
  }

 private:
  struct Record {
    SubmitRequest request;
    SiteId site;
    SubmissionId submission;
    GatewayJobState state = GatewayJobState::kSubmitted;
    GatewayCallback callback;
    std::vector<TransferId> active_transfers;
    std::shared_ptr<std::function<void(std::size_t)>> stage_chain;
  };
  using Key = std::pair<std::uint64_t, int>;

  void relay(Record& record, GatewayJobState state, SimTime at) {
    record.state = state;
    if (record.callback) {
      record.callback(
          GatewayEvent{record.request.job, state, at, record.request.attempt});
    }
  }

  void stage_inputs(Key key, std::function<void()> done) {
    const auto it = records_.find(key);
    if (it == records_.end()) {
      done();
      return;
    }
    Record& rec = it->second;
    if (rec.request.inputs.empty()) {
      done();
      return;
    }
    const SiteId dst = rec.site;
    auto advance = std::make_shared<std::function<void(std::size_t)>>();
    std::weak_ptr<std::function<void(std::size_t)>> weak = advance;
    *advance = [this, key, dst, weak,
                done = std::move(done)](std::size_t index) {
      const auto rec_it = records_.find(key);
      if (rec_it == records_.end()) return;
      Record& r = rec_it->second;
      if (index >= r.request.inputs.size()) {
        done();
        return;
      }
      const StagedInput& input = r.request.inputs[index];
      const TransferId tid = transfers_.transfer(
          input.source, dst, input.bytes,
          [this, key, index, weak](TransferId id, Duration) {
            const auto rec_it2 = records_.find(key);
            if (rec_it2 != records_.end()) {
              std::erase(rec_it2->second.active_transfers, id);
            }
            if (const auto chain = weak.lock()) (*chain)(index + 1);
          });
      r.active_transfers.push_back(tid);
    };
    rec.stage_chain = advance;
    (*advance)(0);
  }

  void on_completed(Record& record) {
    const SubmitRequest& req = record.request;
    if (req.output.empty()) return;
    rls_.register_replica(req.output, record.site, req.output_bytes);
  }

  Grid& grid_;
  data::TransferService& transfers_;
  data::ReplicaLocationService& rls_;
  std::string name_;
  std::map<Key, Record> records_;
};

}  // namespace sphinx::submission_reference
