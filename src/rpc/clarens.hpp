#pragma once
/// \file clarens.hpp
/// Clarens-style GSI-authenticated XML-RPC services with at-least-once
/// delivery.
///
/// "SPHINX ... uses the communication protocol named Clarens for
/// incorporating the concept of grid security" (paper section 3.1).  A
/// ClarensService hosts named methods behind an AuthzPolicy; a
/// ClarensClient issues calls and correlates asynchronous responses.
/// Payloads really are serialized and re-parsed XML-RPC, so the wire
/// format is exercised on every call.
///
/// The wire (transport.hpp's fault model) may lose, duplicate or delay
/// envelopes.  The client therefore retransmits on a per-call timeout
/// with capped exponential backoff plus deterministic jitter, tagging
/// every transmission with the call's sequence number and dropping any
/// reply for a call no longer in flight.  The service keeps no reply
/// cache: every delivery, retransmissions included, runs its handler.
/// Delivery is at-least-once (until the retry budget is exhausted), so
/// every handler must be idempotent -- a re-delivered request must leave
/// state, journal and trace untouched and produce the identical reply.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "common/error.hpp"
#include "rpc/gsi.hpp"
#include "rpc/transport.hpp"
#include "rpc/xmlrpc.hpp"

namespace sphinx::rpc {

/// Fault codes used by the service framework itself.
enum class ClarensFault : std::int64_t {
  kParse = 1,        ///< request was not a valid methodCall
  kNoSuchMethod = 2, ///< unknown method name
  kDenied = 3,       ///< authorization failed
  kApplication = 100 ///< method handler reported an error
};

/// Server side: a named endpoint exposing XML-RPC methods.
class ClarensService {
 public:
  /// Handler receives decoded params and the authenticated caller proxy.
  using Method =
      std::function<Expected<XrValue>(const std::vector<XrValue>&, const Proxy&)>;

  ClarensService(MessageBus& bus, std::string endpoint, AuthzPolicy policy);
  ~ClarensService();

  ClarensService(const ClarensService&) = delete;
  ClarensService& operator=(const ClarensService&) = delete;

  /// Registers a method (replaces an existing one of the same name).
  void register_method(const std::string& name, Method method);

  [[nodiscard]] const std::string& endpoint() const noexcept { return endpoint_; }
  [[nodiscard]] std::size_t calls_served() const noexcept { return served_; }
  [[nodiscard]] std::size_t calls_denied() const noexcept { return denied_; }

  /// Mutable policy access (e.g. to ban a subject at runtime).
  [[nodiscard]] AuthzPolicy& policy() noexcept { return policy_; }

 private:
  /// Runs parse/authz/dispatch and returns the serialized response.
  [[nodiscard]] std::string process(const Envelope& request);

  MessageBus& bus_;
  std::string endpoint_;
  AuthzPolicy policy_;
  std::unordered_map<std::string, Method> methods_;
  std::size_t served_ = 0;
  std::size_t denied_ = 0;
};

/// Client-side retry knobs.  Defaults survive a 60 s partition with
/// margin: the capped schedule 5,10,20,30,30,... sums past four minutes
/// over max_attempts transmissions.
struct RetryPolicy {
  Duration timeout = 5.0;      ///< first-attempt response timeout
  double backoff = 2.0;        ///< multiplier per retry
  Duration max_timeout = 30.0; ///< backoff cap
  double jitter = 0.1;         ///< deterministic +/- fraction of the rto
  int max_attempts = 10;       ///< transmissions before giving up
};

/// Client side: sends calls, retransmits on timeout, correlates responses
/// by sequence number, invokes each continuation exactly once.
class ClarensClient {
 public:
  /// Callback receives the decoded return value or the fault as an Error
  /// (code = "fault:<code>"; code = "rpc_timeout" when the retry budget
  /// is exhausted).
  using Callback = std::function<void(Expected<XrValue>)>;
  /// Durable-outbox hooks: upsert(seq, service, payload, attempt,
  /// last_sent_at) after every transmission, erase(seq) on completion.
  using OutboxUpsert = std::function<void(
      std::uint64_t, const std::string&, const std::string&, int, SimTime)>;
  using OutboxErase = std::function<void(std::uint64_t)>;

  ClarensClient(MessageBus& bus, std::string endpoint, Proxy proxy,
                RetryPolicy retry = {});
  ~ClarensClient();

  ClarensClient(const ClarensClient&) = delete;
  ClarensClient& operator=(const ClarensClient&) = delete;

  /// Issues an asynchronous call.  The callback fires exactly once: when
  /// a response arrives, or with "rpc_timeout" after max_attempts
  /// transmissions went unanswered.
  void call(const std::string& service, const std::string& method,
            std::vector<XrValue> params, Callback callback);

  /// Wires a durable outbox so a journal-recovered owner can re-arm
  /// in-flight calls (see restore_call()).  Pass nullptrs to detach.
  void set_outbox(OutboxUpsert upsert, OutboxErase erase);
  /// Seeds the sequence counter (recovery: persisted last seq + 1).
  void set_next_seq(std::uint64_t next) noexcept { next_seq_ = next; }
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  /// Re-registers a call restored from the outbox without sending: the
  /// retry timer is re-armed where the crashed instance would have fired
  /// it, so a recovered run replays the identical wire schedule.
  void restore_call(std::uint64_t seq, std::string service,
                    std::string payload, int attempt, SimTime last_sent_at,
                    Callback callback);

  [[nodiscard]] const Proxy& proxy() const noexcept { return proxy_; }

  [[nodiscard]] const std::string& endpoint() const noexcept {
    return endpoint_;
  }
  [[nodiscard]] const RetryPolicy& retry() const noexcept { return retry_; }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }
  /// Retransmissions issued (beyond each call's first transmission).
  [[nodiscard]] std::size_t retransmissions() const noexcept {
    return retransmissions_;
  }
  /// Replies matching no call in flight (duplicates of a consumed reply,
  /// or noise), counted and dropped.
  [[nodiscard]] std::size_t dropped_replies() const noexcept {
    return dropped_replies_;
  }
  /// Calls that exhausted the retry budget.
  [[nodiscard]] std::size_t exhausted() const noexcept { return exhausted_; }

 private:
  struct CallState {
    std::string service;
    std::string payload;  ///< serialized methodCall, reused verbatim
    Callback callback;
    int attempt = 0;      ///< transmissions so far
    SimTime last_sent_at = 0.0;
    sim::EventHandle timer;
  };

  void handle(const Envelope& response);
  void transmit(std::uint64_t seq);
  void arm_timer(std::uint64_t seq);
  void on_timeout(std::uint64_t seq);
  void complete(std::uint64_t seq, Expected<XrValue> result);
  [[nodiscard]] Duration rto(std::uint64_t seq, int attempt) const;

  MessageBus& bus_;
  std::string endpoint_;
  Proxy proxy_;
  RetryPolicy retry_;
  std::uint64_t next_seq_ = 1;
  /// Ordered so destruction/iteration order is deterministic.
  std::map<std::uint64_t, CallState> pending_;
  OutboxUpsert outbox_upsert_;
  OutboxErase outbox_erase_;
  std::size_t retransmissions_ = 0;
  std::size_t dropped_replies_ = 0;
  std::size_t exhausted_ = 0;
};

}  // namespace sphinx::rpc
