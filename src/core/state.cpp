#include "core/state.hpp"

namespace sphinx::core {

const char* to_string(DagState state) noexcept {
  switch (state) {
    case DagState::kReceived: return "received";
    case DagState::kReduced: return "reduced";
    case DagState::kPlanning: return "planning";
    case DagState::kFinished: return "finished";
  }
  return "?";
}

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kUnplanned: return "unplanned";
    case JobState::kPlanned: return "planned";
    case JobState::kSubmitted: return "submitted";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kHeld: return "held";
  }
  return "?";
}

namespace {

/// The enumerator of `all` whose to_string() is `text`, if any.
template <typename E, std::size_t N>
bool parse(std::string_view text, const E (&all)[N], E& out) noexcept {
  for (const E state : all) {
    if (text == to_string(state)) {
      out = state;
      return true;
    }
  }
  return false;
}

}  // namespace

bool from_string(std::string_view text, DagState& out) noexcept {
  constexpr DagState kAll[] = {DagState::kReceived, DagState::kReduced,
                               DagState::kPlanning, DagState::kFinished};
  return parse(text, kAll, out);
}

bool from_string(std::string_view text, JobState& out) noexcept {
  constexpr JobState kAll[] = {JobState::kUnplanned, JobState::kPlanned,
                               JobState::kSubmitted, JobState::kRunning,
                               JobState::kCompleted, JobState::kCancelled,
                               JobState::kHeld};
  return parse(text, kAll, out);
}

bool is_legal_transition(JobState from, JobState to) noexcept {
  if (from == to) return true;
  switch (from) {
    case JobState::kUnplanned:
      return to == JobState::kPlanned || to == JobState::kCompleted;
    case JobState::kPlanned:
      return to == JobState::kUnplanned || to == JobState::kSubmitted ||
             to == JobState::kRunning || to == JobState::kCompleted ||
             to == JobState::kCancelled || to == JobState::kHeld;
    case JobState::kSubmitted:
      return to == JobState::kRunning || to == JobState::kCompleted ||
             to == JobState::kCancelled || to == JobState::kHeld;
    case JobState::kRunning:
      return to == JobState::kCompleted || to == JobState::kCancelled ||
             to == JobState::kHeld;
    case JobState::kCancelled:
    case JobState::kHeld:
      return to == JobState::kUnplanned;
    case JobState::kCompleted:
      return false;  // terminal
  }
  return false;
}

const char* to_string(SpeculationState state) noexcept {
  switch (state) {
    case SpeculationState::kRacing: return "racing";
    case SpeculationState::kPrimaryWon: return "primary_won";
    case SpeculationState::kSpecWon: return "spec_won";
    case SpeculationState::kPrimaryDead: return "primary_dead";
    case SpeculationState::kSpecDead: return "spec_dead";
  }
  return "?";
}

bool from_string(std::string_view text, SpeculationState& out) noexcept {
  constexpr SpeculationState kAll[] = {
      SpeculationState::kRacing, SpeculationState::kPrimaryWon,
      SpeculationState::kSpecWon, SpeculationState::kPrimaryDead,
      SpeculationState::kSpecDead};
  return parse(text, kAll, out);
}

const char* to_string(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kRoundRobin: return "round-robin";
    case Algorithm::kNumCpus: return "num-cpus";
    case Algorithm::kQueueLength: return "queue-length";
    case Algorithm::kCompletionTime: return "completion-time";
  }
  return "?";
}

}  // namespace sphinx::core
