#pragma once
/// \file gsi.hpp
/// Grid Security Infrastructure model: identities, VO proxies and
/// authorization.
///
/// SPHINX uses "GSI-enabled XML-RPC" through Clarens (paper Figure 1).
/// The reproduction models the parts that influence scheduling: who a
/// request is from, which VO (and group) their proxy asserts, whether the
/// proxy is still valid, and whether a service method authorizes the
/// caller.  Actual cryptography is out of scope (DESIGN.md section 6).

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"

namespace sphinx::rpc {

/// A long-lived identity certificate (maps to an X.509 subject DN).
struct Identity {
  std::string subject;  ///< e.g. "/DC=org/DC=griphyn/CN=Jang-uk In"
};

/// A short-lived VO proxy derived from an identity (VOMS-style).
/// The proxy is what actually travels with each scheduling request.
class Proxy {
 public:
  Proxy() = default;
  Proxy(Identity identity, std::string vo, std::vector<std::string> groups,
        SimTime issued_at, Duration lifetime);

  [[nodiscard]] const std::string& vo() const noexcept { return vo_; }
  [[nodiscard]] SimTime expires_at() const noexcept { return expires_at_; }

  /// True while the proxy has not expired.
  [[nodiscard]] bool valid_at(SimTime now) const noexcept {  // sphinx-lint-allow(test-only): AuthzPolicy::check in this pair reads it
    return !identity_.subject.empty() && now < expires_at_;
  }

  /// The VO-scoped principal string, e.g. "uscms:/uscms/production".
  [[nodiscard]] std::string principal() const;

 private:
  Identity identity_;
  std::string vo_;
  std::vector<std::string> groups_;
  SimTime expires_at_ = 0.0;
};

/// Decision record returned by authorization checks.
struct AuthzDecision {
  bool allowed = false;
  std::string reason;  ///< set when denied
};

/// Per-service ACL: which VOs may invoke which methods.  With no ACL at
/// all the service is open to any authenticated caller.
class AuthzPolicy {
 public:
  /// Grants `vo` access to `method` ("*" for all methods).
  void allow_vo(const std::string& method, const std::string& vo);

  /// Evaluates a call.  Order: proxy validity, then the VO ACLs.
  [[nodiscard]] AuthzDecision check(const Proxy& proxy,
                                    const std::string& method,
                                    SimTime now) const;

 private:
  /// Method (or "*") -> VOs it admits.
  std::unordered_map<std::string, std::unordered_set<std::string>> acls_;
};

}  // namespace sphinx::rpc
