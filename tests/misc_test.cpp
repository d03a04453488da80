// Smoke tests for the remaining small surfaces: the logger and enum
// renderings.

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "core/codec.hpp"
#include "core/state.hpp"
#include "grid/site.hpp"
#include "submit/condor_g.hpp"

namespace sphinx {
namespace {

TEST(Logger, LevelGateRoundTrip) {
  const LogLevel before = log_level();
  const LogLevel prev = set_log_level(LogLevel::kError);
  EXPECT_EQ(prev, before);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold calls are cheap no-ops; above-threshold ones emit.
  Logger log("test-component");
  log.debug("this is ", 42, " and should be suppressed");
  log.error("visible error with value ", 3.5);
  EXPECT_EQ(log.component(), "test-component");
  set_log_level(LogLevel::kOff);
  log.error("suppressed entirely");
  set_log_level(before);
}

TEST(EnumRenderings, GridStates) {
  using grid::RemoteJobState;
  using grid::SiteHealth;
  EXPECT_STREQ(grid::to_string(RemoteJobState::kQueued), "queued");
  EXPECT_STREQ(grid::to_string(RemoteJobState::kStaging), "staging");
  EXPECT_STREQ(grid::to_string(RemoteJobState::kRunning), "running");
  EXPECT_STREQ(grid::to_string(RemoteJobState::kCompleted), "completed");
  EXPECT_STREQ(grid::to_string(RemoteJobState::kHeld), "held");
  EXPECT_STREQ(grid::to_string(RemoteJobState::kCancelled), "cancelled");
  EXPECT_STREQ(grid::to_string(SiteHealth::kHealthy), "healthy");
  EXPECT_STREQ(grid::to_string(SiteHealth::kDown), "down");
  EXPECT_STREQ(grid::to_string(SiteHealth::kBlackHole), "black-hole");
  EXPECT_STREQ(grid::to_string(SiteHealth::kDegraded), "degraded");
}

TEST(EnumRenderings, GatewayAndReports) {
  using submit::GatewayJobState;
  EXPECT_STREQ(submit::to_string(GatewayJobState::kSubmitted), "submitted");
  EXPECT_STREQ(submit::to_string(GatewayJobState::kFailed), "failed");
  EXPECT_STREQ(core::to_string(core::ReportKind::kCompleted), "completed");
  EXPECT_STREQ(core::to_string(core::ReportKind::kHeld), "held");
  EXPECT_STREQ(core::to_string(core::Algorithm::kCompletionTime),
               "completion-time");
}

TEST(StateTerminality, GridJobStates) {
  using grid::RemoteJobState;
  EXPECT_TRUE(grid::is_terminal(RemoteJobState::kCompleted));
  EXPECT_TRUE(grid::is_terminal(RemoteJobState::kHeld));
  EXPECT_TRUE(grid::is_terminal(RemoteJobState::kCancelled));
  EXPECT_FALSE(grid::is_terminal(RemoteJobState::kQueued));
  EXPECT_FALSE(grid::is_terminal(RemoteJobState::kStaging));
  EXPECT_FALSE(grid::is_terminal(RemoteJobState::kRunning));
}

}  // namespace
}  // namespace sphinx
