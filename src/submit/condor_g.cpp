#include "submit/condor_g.hpp"

#include "data/replication.hpp"

namespace sphinx::submit {

const char* to_string(GatewayJobState state) noexcept {
  switch (state) {
    case GatewayJobState::kSubmitted: return "submitted";
    case GatewayJobState::kIdle: return "idle";
    case GatewayJobState::kStaging: return "staging";
    case GatewayJobState::kRunning: return "running";
    case GatewayJobState::kCompleted: return "completed";
    case GatewayJobState::kHeld: return "held";
    case GatewayJobState::kRemoved: return "removed";
    case GatewayJobState::kFailed: return "failed";
  }
  return "?";
}

CondorG::CondorG(grid::Grid& grid, data::TransferService& transfers,
                 data::ReplicaLocationService& rls, std::string name)
    : grid_(grid), transfers_(transfers), rls_(rls), name_(std::move(name)) {}

std::map<CondorG::Key, CondorG::Record>::iterator CondorG::find_latest(
    JobId job) {
  auto it = records_.lower_bound(Key{job.value() + 1, 0});
  if (it == records_.begin()) return records_.end();
  --it;
  return it->first.first == job.value() ? it : records_.end();
}

std::map<CondorG::Key, CondorG::Record>::const_iterator CondorG::find_latest(
    JobId job) const {
  auto it = records_.lower_bound(Key{job.value() + 1, 0});
  if (it == records_.begin()) return records_.end();
  --it;
  return it->first.first == job.value() ? it : records_.end();
}

bool CondorG::submit(const SubmitRequest& request, GatewayCallback callback) {
  SPHINX_ASSERT(request.job.valid(), "submit needs a valid job id");
  // Replanned jobs are resubmitted under the same JobId (with a fresh
  // attempt number); a resubmission of the *same* attempt must be terminal
  // by then.  Distinct attempts of one job may be live concurrently — that
  // is exactly the speculation race.
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

  grid::Site& site = grid_.site(request.site);
  Record record;
  record.request = request;
  record.site = request.site;
  record.callback = std::move(callback);

  grid::RemoteJob remote;
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
      std::move(remote), [this, key](const grid::JobEvent& event) {
        const auto it = records_.find(key);
        if (it == records_.end()) return;
        Record& rec = it->second;
        switch (event.state) {
          case grid::RemoteJobState::kQueued:
            relay(rec, GatewayJobState::kIdle, event.at);
            break;
          case grid::RemoteJobState::kStaging:
            relay(rec, GatewayJobState::kStaging, event.at);
            break;
          case grid::RemoteJobState::kRunning:
            relay(rec, GatewayJobState::kRunning, event.at);
            break;
          case grid::RemoteJobState::kCompleted:
            on_completed(rec);
            relay(rec, GatewayJobState::kCompleted, event.at);
            break;
          case grid::RemoteJobState::kHeld:
            relay(rec, GatewayJobState::kHeld, event.at);
            break;
          case grid::RemoteJobState::kCancelled:
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

void CondorG::stage_inputs(Key key, std::function<void()> done) {
  const auto it = records_.find(key);
  if (it == records_.end()) {
    done();  // not ours (defensive); nothing to stage
    return;
  }
  Record& rec = it->second;
  if (rec.request.inputs.empty()) {
    done();
    return;
  }
  // Transfer inputs sequentially: start input k+1 when k arrives.  The
  // record owns the chain; callbacks hold it weakly so a removed record
  // ends the chain instead of dangling.
  const SiteId dst = rec.site;
  auto advance = std::make_shared<std::function<void(std::size_t)>>();
  std::weak_ptr<std::function<void(std::size_t)>> weak = advance;
  *advance = [this, key, dst, weak,
              done = std::move(done)](std::size_t index) {
    const auto rec_it = records_.find(key);
    if (rec_it == records_.end()) return;  // removed meanwhile
    Record& r = rec_it->second;
    if (index >= r.request.inputs.size()) {
      // Note: the chain object stays alive until the record is erased;
      // resetting it here would destroy the closure mid-execution.
      done();
      return;
    }
    const StagedInput& input = r.request.inputs[index];
    const TransferId tid = transfers_.transfer(
        input.source, dst, input.bytes,
        [this, key, index, weak](TransferId id, Duration) {
          const auto rec_it2 = records_.find(key);
          if (rec_it2 != records_.end()) {
            auto& active = rec_it2->second.active_transfers;
            std::erase(active, id);
          }
          if (const auto chain = weak.lock()) (*chain)(index + 1);
        });
    r.active_transfers.push_back(tid);
  };
  rec.stage_chain = advance;
  (*advance)(0);
}

void CondorG::on_completed(Record& record) {
  const SubmitRequest& req = record.request;
  if (req.output.empty()) return;
  // The output file materializes on the execution site.
  rls_.register_replica(req.output, record.site, req.output_bytes);
}

void CondorG::relay(Record& record, GatewayJobState state, SimTime at) {
  record.state = state;
  if (record.callback) {
    record.callback(
        GatewayEvent{record.request.job, state, at, record.request.attempt});
  }
}

bool CondorG::cancel(JobId job) {
  const auto it = find_latest(job);
  if (it == records_.end()) return false;
  return cancel(job, it->first.second);
}

bool CondorG::cancel(JobId job, int attempt) {
  const auto it = records_.find(Key{job.value(), attempt});
  if (it == records_.end()) return false;
  Record& rec = it->second;
  if (rec.state == GatewayJobState::kCompleted ||
      rec.state == GatewayJobState::kRemoved ||
      rec.state == GatewayJobState::kFailed) {
    return false;
  }
  // Kill in-flight stage-in transfers first; they reference this record.
  for (const TransferId tid : rec.active_transfers) transfers_.cancel(tid);
  rec.active_transfers.clear();

  grid::Site& site = grid_.site(rec.site);
  if (site.cancel(rec.submission)) {
    return true;  // site emitted kCancelled -> relay() already ran
  }
  // Unresponsive site: mark removed locally so the tracker can move on
  // (condor_rm -forcex semantics).
  relay(rec, GatewayJobState::kRemoved, grid_.engine().now());
  return true;
}

std::optional<GatewayJobState> CondorG::state_of(JobId job) const {
  const auto it = find_latest(job);
  if (it == records_.end()) return std::nullopt;
  return it->second.state;
}

std::optional<GatewayJobState> CondorG::state_of(JobId job,
                                                 int attempt) const {
  const auto it = records_.find(Key{job.value(), attempt});
  if (it == records_.end()) return std::nullopt;
  return it->second.state;
}

void CondorG::replicate(const data::Lfn& lfn, SiteId destination,
                        std::function<void(bool)> done) {
  SPHINX_ASSERT(done != nullptr, "replicate callback must not be null");
  const auto replicas = rls_.locate(lfn);
  if (replicas.empty()) {
    done(false);
    return;
  }
  // Already there?
  for (const data::Replica& r : replicas) {
    if (r.site == destination) {
      done(false);
      return;
    }
  }
  const data::Replica source =
      *data::select_replica(replicas, destination, transfers_);
  transfers_.transfer(
      source.site, destination, source.size_bytes,
      [this, lfn, destination, source, done = std::move(done)](TransferId,
                                                               Duration) {
        rls_.register_replica(lfn, destination, source.size_bytes);
        done(true);
      });
}

bool CondorG::site_responsive(JobId job, int attempt) const {
  const auto it = records_.find(Key{job.value(), attempt});
  if (it == records_.end()) return false;
  return grid_.site(it->second.site).query().has_value();
}

}  // namespace sphinx::submit
