#include "rpc/gsi.hpp"

#include <algorithm>

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

StatusOrError AuthzPolicy::check(const Proxy& proxy, SimTime now) const {
  if (!proxy.valid_at(now)) {
    return make_error("denied", "proxy expired or anonymous");
  }
  if (std::find(vos_.begin(), vos_.end(), proxy.vo()) == vos_.end()) {
    return make_error("denied", "no ACL admits " + proxy.principal());
  }
  return {};
}

}  // namespace sphinx::rpc
