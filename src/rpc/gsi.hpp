#pragma once
/// \file gsi.hpp
/// Grid Security Infrastructure model: identities, VO proxies and
/// authorization.
///
/// SPHINX uses "GSI-enabled XML-RPC" through Clarens (paper Figure 1).
/// The reproduction models the parts that influence scheduling: who a
/// request is from, which VO (and group) their proxy asserts, whether the
/// proxy is still valid, and whether a service admits the caller's VO.
/// Actual cryptography is out of scope (DESIGN.md section 6).

#include <string>
#include <utility>
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

/// A service's ACL: the VOs whose callers it admits, to every method.
class AuthzPolicy {
 public:
  /// Admits callers whose proxy asserts `vo`.
  void allow_vo(std::string vo) { vos_.push_back(std::move(vo)); }

  /// Admits a call, or says why not.  Order: proxy validity, then the
  /// VO.
  [[nodiscard]] StatusOrError check(const Proxy& proxy, SimTime now) const;

 private:
  std::vector<std::string> vos_;  ///< a few, so searched in order
};

}  // namespace sphinx::rpc
