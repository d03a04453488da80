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

namespace {

/// States an attempt never leaves; reaching one retires its record.
bool is_terminal(GatewayJobState state) noexcept {
  return state == GatewayJobState::kCompleted ||
         state == GatewayJobState::kHeld ||
         state == GatewayJobState::kRemoved ||
         state == GatewayJobState::kFailed;
}

}  // namespace

CondorG::CondorG(grid::Grid& grid, data::TransferService& transfers,
                 data::ReplicaLocationService& rls, std::string name)
    : grid_(grid), transfers_(transfers), rls_(rls), name_(std::move(name)) {}

const CondorG::Record* CondorG::find(JobId job, int attempt) const {
  const auto it = attempts_.find(Key{job.value(), attempt});
  return it == attempts_.end() ? nullptr : &records_.at(it->second);
}

const CondorG::Record* CondorG::find_latest(JobId job) const {
  auto it = attempts_.lower_bound(Key{job.value() + 1, 0});
  if (it == attempts_.begin()) return nullptr;
  --it;
  return it->first.first == job.value() ? &records_.at(it->second) : nullptr;
}

bool CondorG::submit(const SubmitRequest& request, GatewayCallback callback) {
  SPHINX_ASSERT(request.job.valid(), "submit needs a valid job id");
  grid::Site& site = grid_.site(request.site);
  // Replanned jobs are resubmitted under the same JobId with a fresh
  // attempt number; distinct attempts of one job may be live concurrently
  // -- that is exactly the speculation race.  An attempt still under its
  // key is one whose terminal event is being relayed (DAGMan resubmits
  // from inside it): the key moves to the new record, and the old one's
  // relay retires only the old one.
  const std::uint64_t id = ++last_id_;
  const auto [slot, fresh] =
      attempts_.try_emplace(Key{request.job.value(), request.attempt}, id);
  if (!fresh) {
    SPHINX_ASSERT(is_terminal(records_.at(slot->second).state),
                  "job attempt already active on this gateway");
    slot->second = id;
  }

  Record& record = records_[id];
  record.job = request.job;
  record.attempt = request.attempt;
  record.site = request.site;
  record.callback = std::move(callback);
  record.inputs = request.inputs;
  record.output = request.output;
  record.output_bytes = request.output_bytes;

  grid::RemoteJob remote;
  remote.job = request.job;
  remote.user = request.user;
  remote.vo = request.vo;
  remote.priority = request.priority;
  remote.compute_time = request.compute_time;
  remote.stage = [this, id](std::function<void()> done) {
    stage_inputs(id, std::move(done));
  };

  const bool accepted =
      site.submit(std::move(remote), [this, id](const grid::JobEvent& event) {
            on_site_event(id, event);
          }).has_value();
  if (!accepted) {
    relay(records_.find(id), GatewayJobState::kFailed, grid_.engine().now());
  }
  return accepted;
}

void CondorG::on_site_event(std::uint64_t id, const grid::JobEvent& event) {
  const auto it = records_.find(id);
  if (it == records_.end()) return;
  switch (event.state) {
    case grid::RemoteJobState::kQueued:
      // The site names the submission before submit() returns, so a
      // cancel from inside this event already reaches the site.
      it->second.submission = event.submission;
      relay(it, GatewayJobState::kIdle, event.at);
      break;
    case grid::RemoteJobState::kStaging:
      relay(it, GatewayJobState::kStaging, event.at);
      break;
    case grid::RemoteJobState::kRunning:
      relay(it, GatewayJobState::kRunning, event.at);
      break;
    case grid::RemoteJobState::kCompleted:
      on_completed(it->second);
      relay(it, GatewayJobState::kCompleted, event.at);
      break;
    case grid::RemoteJobState::kHeld:
      relay(it, GatewayJobState::kHeld, event.at);
      break;
    case grid::RemoteJobState::kCancelled:
      relay(it, GatewayJobState::kRemoved, event.at);
      break;
  }
}

void CondorG::stage_inputs(std::uint64_t id, std::function<void()> done) {
  const auto it = records_.find(id);
  if (it == records_.end() || it->second.inputs.empty()) {
    done();  // nothing to stage
    return;
  }
  Record& rec = it->second;
  // Transfer inputs sequentially: start input k+1 when k arrives.  The
  // record owns the chain; callbacks hold it weakly so a retired record
  // ends the chain instead of dangling.
  const SiteId dst = rec.site;
  auto advance = std::make_shared<std::function<void(std::size_t)>>();
  std::weak_ptr<std::function<void(std::size_t)>> weak = advance;
  *advance = [this, id, dst, weak, done = std::move(done)](std::size_t index) {
    const auto rec_it = records_.find(id);
    if (rec_it == records_.end()) return;  // retired meanwhile
    Record& r = rec_it->second;
    if (index >= r.inputs.size()) {
      // Note: the chain object stays alive until the record is retired;
      // resetting it here would destroy the closure mid-execution.
      done();
      return;
    }
    const StagedInput& input = r.inputs[index];
    const TransferId tid = transfers_.transfer(
        input.source, dst, input.bytes,
        [this, id, index, weak](TransferId transfer, Duration) {
          const auto rec_it2 = records_.find(id);
          if (rec_it2 != records_.end()) {
            std::erase(rec_it2->second.active_transfers, transfer);
          }
          if (const auto chain = weak.lock()) (*chain)(index + 1);
        });
    r.active_transfers.push_back(tid);
  };
  rec.stage_chain = advance;
  (*advance)(0);
}

void CondorG::on_completed(const Record& record) {
  if (record.output.empty()) return;
  // The output file materializes on the execution site.
  rls_.register_replica(record.output, record.site, record.output_bytes);
}

void CondorG::relay(Records::iterator record, GatewayJobState state,
                    SimTime at) {
  const std::uint64_t id = record->first;
  Record& rec = record->second;
  rec.state = state;
  const GatewayEvent event{rec.job, state, at, rec.attempt};
  if (rec.callback) {
    // The callback may cancel the attempt, which retires the record and
    // its callback with it: call a copy.
    const GatewayCallback callback = rec.callback;
    callback(event);
  }
  if (!is_terminal(state)) return;
  // Retire the record (a nested relay may have done so already) and free
  // its key, unless a resubmission from inside the callback took it over.
  records_.erase(id);
  const auto key = attempts_.find(Key{event.job.value(), event.attempt});
  if (key != attempts_.end() && key->second == id) attempts_.erase(key);
}

bool CondorG::cancel(JobId job) {
  const Record* latest = find_latest(job);
  return latest != nullptr && cancel(job, latest->attempt);
}

bool CondorG::cancel(JobId job, int attempt) {
  const auto key = attempts_.find(Key{job.value(), attempt});
  if (key == attempts_.end()) return false;
  const auto it = records_.find(key->second);
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
  relay(it, GatewayJobState::kRemoved, grid_.engine().now());
  return true;
}

std::optional<GatewayJobState> CondorG::state_of(JobId job) const {
  const Record* latest = find_latest(job);
  if (latest == nullptr) return std::nullopt;
  return latest->state;
}

std::optional<GatewayJobState> CondorG::state_of(JobId job,
                                                 int attempt) const {
  const Record* rec = find(job, attempt);
  if (rec == nullptr) return std::nullopt;
  return rec->state;
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
  const Record* rec = find(job, attempt);
  return rec != nullptr && grid_.site(rec->site).query().has_value();
}

}  // namespace sphinx::submit
