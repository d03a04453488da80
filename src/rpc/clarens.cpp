#include "rpc/clarens.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"

namespace sphinx::rpc {
namespace {

/// Deterministic stateless jitter in [0, 1): `seed`, the FNV-1a of the
/// endpoint's name, folded with splitmix64 over (seq, attempt).  No RNG
/// stream is consumed, so a journal-recovered client re-arms
/// byte-identical timers.
double jitter01(std::uint64_t seed, std::uint64_t seq, int attempt) {
  std::uint64_t h = seed;
  h ^= seq + 0x9e3779b97f4a7c15ull;
  h ^= static_cast<std::uint64_t>(attempt) * 0xbf58476d1ce4e5b9ull;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string fault(ClarensFault code, std::string_view message) {
  XrWriter out(kReplyBytes);
  out.fault(static_cast<std::int64_t>(code), message);
  return std::move(out).take();
}

/// The reply reader of a call restored from the outbox, whose method is
/// not known: any well-formed value.
Expected<bool> any_value(XrReader& in) {
  in.skip(1);
  return true;
}

/// What a request without a proxy presents: no identity, so every
/// policy denies it.
const Proxy& anonymous() {
  static const Proxy kNone;
  return kNone;
}

}  // namespace

ClarensService::ClarensService(MessageBus& bus, std::string_view endpoint,
                               AuthzPolicy policy)
    : bus_(bus), endpoint_(bus.endpoint(endpoint)), policy_(std::move(policy)) {
  bus_.register_endpoint(endpoint_, [this](const Envelope& env) {
    bus_.reply(env, process(env));
  });
}

ClarensService::~ClarensService() { bus_.unregister_endpoint(endpoint_); }

std::string ClarensService::process(const Envelope& request) {
  // The whole envelope is decoded before anything else is decided, so a
  // malformed request is a parse fault whatever its method or caller.
  XrReader in(request.payload);
  std::string_view method_name;
  Method* method = nullptr;
  if (in.begin_call(method_name)) {
    const auto it = methods_.find(method_name);
    if (it != methods_.end()) {
      method = it->second.get();
      method->read(in);
    } else {
      in.each_param([&](int) { return in.skip(1); });
    }
    if (in.ok()) in.end_call();
  }
  if (!in.ok()) return fault(ClarensFault::kParse, in.error().error.message);

  const Proxy& proxy =
      request.proxy != nullptr ? *request.proxy : anonymous();
  if (const StatusOrError admitted = policy_.check(proxy, bus_.engine().now());
      !admitted.ok()) {
    return fault(ClarensFault::kDenied, admitted.error().message);
  }

  if (method == nullptr) {
    return fault(ClarensFault::kNoSuchMethod,
                 "no such method: " + std::string(method_name));
  }

  auto reply = method->run(proxy);
  if (!reply) {
    return fault(ClarensFault::kApplication, reply.error().to_string());
  }
  return std::move(*reply);
}

ClarensClient::ClarensClient(MessageBus& bus, std::string_view endpoint,
                             Proxy proxy, RetryPolicy retry)
    : bus_(bus),
      endpoint_(bus.endpoint(endpoint)),
      jitter_seed_(fnv1a(endpoint)),
      proxy_(std::make_shared<const Proxy>(std::move(proxy))),
      retry_(retry) {
  SPHINX_ASSERT(retry_.timeout > 0, "retry timeout must be positive");
  SPHINX_ASSERT(retry_.backoff >= 1, "backoff must not shrink the timeout");
  SPHINX_ASSERT(retry_.max_attempts >= 1, "need at least one transmission");
  bus_.register_endpoint(endpoint_,
                         [this](const Envelope& env) { handle(env); });
}

ClarensClient::~ClarensClient() {
  for (auto& [seq, state] : pending_) bus_.engine().cancel(state.timer);
  bus_.unregister_endpoint(endpoint_);
}

void ClarensClient::start(std::string_view service, std::string payload,
                          Completion done) {
  const std::uint64_t seq = next_seq_++;
  CallState state;
  state.service = bus_.endpoint(service);
  state.payload = std::move(payload);
  state.done = std::move(done);
  pending_.emplace(seq, std::move(state));
  transmit(seq);
}

void ClarensClient::set_outbox(OutboxUpsert upsert, OutboxErase erase) {
  outbox_upsert_ = std::move(upsert);
  outbox_erase_ = std::move(erase);
}

void ClarensClient::restore_call(std::uint64_t seq, std::string_view service,
                                 std::string payload, int attempt,
                                 SimTime last_sent_at,
                                 std::function<void(StatusOrError)> callback) {
  SPHINX_ASSERT(callback != nullptr, "restore callback must not be null");
  SPHINX_ASSERT(attempt >= 1, "restored call must have been transmitted");
  SPHINX_ASSERT(!pending_.contains(seq), "sequence number already in flight");
  CallState state;
  state.service = bus_.endpoint(service);
  state.payload = std::move(payload);
  state.done = [callback = std::move(callback)](
                   Expected<std::string_view> reply) {
    const Expected<bool> read = reply ? read_reply(*reply, &any_value)
                                      : Unexpected<Error>{reply.error()};
    callback(read ? StatusOrError{} : Unexpected<Error>{read.error()});
  };
  state.attempt = attempt;
  state.last_sent_at = last_sent_at;
  auto [it, inserted] = pending_.emplace(seq, std::move(state));
  SPHINX_ASSERT(inserted, "sequence number already in flight");
  // Do not retransmit now: the crashed instance already sent attempt N.
  // Re-arm its timer where that instance would have fired it, clamped to
  // the present, so the recovered wire schedule matches the original.
  const SimTime fire_at =
      std::max(bus_.engine().now(), last_sent_at + rto(seq, attempt));
  it->second.timer = bus_.engine().schedule_at(
      fire_at, "rpc:timeout", [this, seq]() { on_timeout(seq); });
}

Duration ClarensClient::rto(std::uint64_t seq, int attempt) const {
  Duration base = retry_.timeout;
  for (int i = 1; i < attempt && base < retry_.max_timeout; ++i) {
    base *= retry_.backoff;
  }
  base = std::min(base, retry_.max_timeout);
  const double swing = 2.0 * jitter01(jitter_seed_, seq, attempt) - 1.0;
  return base * (1.0 + retry_.jitter * swing);
}

void ClarensClient::transmit(std::uint64_t seq) {
  auto it = pending_.find(seq);
  SPHINX_ASSERT(it != pending_.end(), "transmit of unknown call");
  CallState& state = it->second;
  ++state.attempt;
  state.last_sent_at = bus_.engine().now();
  bus_.send(endpoint_, state.service, state.payload, proxy_, seq);
  if (outbox_upsert_ != nullptr) {
    outbox_upsert_(seq, bus_.name(state.service), state.payload,
                   state.attempt, state.last_sent_at);
  }
  arm_timer(seq);
}

void ClarensClient::arm_timer(std::uint64_t seq) {
  auto it = pending_.find(seq);
  SPHINX_ASSERT(it != pending_.end(), "arming timer for unknown call");
  CallState& state = it->second;
  state.timer = bus_.engine().schedule_in(rto(seq, state.attempt),
                                          "rpc:timeout",
                                          [this, seq]() { on_timeout(seq); });
}

void ClarensClient::on_timeout(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // response won the race; timer stale
  if (it->second.attempt >= retry_.max_attempts) {
    complete(seq, make_error("rpc_timeout",
                             "no response from " +
                                 bus_.name(it->second.service) +
                                 " after " +
                                 std::to_string(it->second.attempt) +
                                 " attempts"));
    return;
  }
  transmit(seq);
}

void ClarensClient::complete(std::uint64_t seq,
                             Expected<std::string_view> reply) {
  auto it = pending_.find(seq);
  SPHINX_ASSERT(it != pending_.end(), "completing unknown call");
  bus_.engine().cancel(it->second.timer);
  Completion done = std::move(it->second.done);
  pending_.erase(it);
  if (outbox_erase_ != nullptr) outbox_erase_(seq);
  done(reply);
}

void ClarensClient::handle(const Envelope& response) {
  // A reply for no call in flight is a duplicate of one already consumed,
  // or noise: dropped, so the continuation never runs twice.
  if (pending_.contains(response.call_seq)) {
    complete(response.call_seq, std::string_view(response.payload));
  }
}

}  // namespace sphinx::rpc
