#include "rpc/gsi.hpp"


namespace sphinx::rpc {

Proxy::Proxy(Identity identity, std::string vo,
             std::vector<std::string> groups, SimTime issued_at,
             Duration lifetime)
    : identity_(std::move(identity)),
      vo_(std::move(vo)),
      groups_(std::move(groups)),
      expires_at_(issued_at + lifetime) {
  SPHINX_ASSERT(lifetime > 0, "proxy lifetime must be positive");
}

std::string Proxy::principal() const {
  std::string p = vo_;
  for (const std::string& g : groups_) p += ":" + g;
  return p;
}

void AuthzPolicy::allow_vo(const std::string& method, const std::string& vo) {
  acls_[method].insert(vo);
}

AuthzDecision AuthzPolicy::check(const Proxy& proxy, const std::string& method,
                                 SimTime now) const {
  if (!proxy.valid_at(now)) {
    return {false, "proxy expired or anonymous"};
  }
  const auto exact = acls_.find(method);
  if (exact != acls_.end() && exact->second.contains(proxy.vo())) {
    return {true, {}};
  }
  const auto wildcard = acls_.find("*");
  if (wildcard != acls_.end() && wildcard->second.contains(proxy.vo())) {
    return {true, {}};
  }
  // With no ACLs configured at all the service is open to any
  // authenticated caller; once any ACL exists, default is deny.
  if (acls_.empty()) {
    return {true, {}};
  }
  return {false, "no ACL grants " + proxy.principal() + " access to " + method};
}

}  // namespace sphinx::rpc
