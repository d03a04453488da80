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
/// A method is a params decoder plus a handler.  A typed method's decoder
/// reads its params straight off the XrReader into a struct (the plan,
/// report and DAG decoders of core/codec.hpp); every other method gets
/// the generic decoder, which hands its handler the params as XrValues.
/// The service runs the decoder over the whole envelope before it
/// authorizes anything, so a fault says, in this order of precedence:
///   1. kParse: the envelope is not well-formed XML-RPC;
///   2. kDenied: the caller may not call the method;
///   3. kNoSuchMethod: no method has that name;
///   4. kApplication: the decoder refused the params (a wrong count or
///      type, or a codec error: the first failing check in the decoder's
///      own order, not in wire order), or the handler reported an error.
/// A client sends a payload its caller serialized -- a typed encoder's
/// bytes or a MethodCall's -- and every reply is a MethodResponse.
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
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

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
  /// Reads a call's params off `in`, positioned after its <methodName>:
  /// the params, or why they are refused.  A syntax error leaves `in`
  /// failed, and the result is then ignored.
  template <typename P>
  using Decoder = Expected<P> (*)(XrReader& in);
  /// Runs an authorized call on its decoded params.
  template <typename P>
  using Handler = std::function<Expected<XrValue>(const P&, const Proxy&)>;

  ClarensService(MessageBus& bus, std::string endpoint, AuthzPolicy policy);
  ~ClarensService();

  ClarensService(const ClarensService&) = delete;
  ClarensService& operator=(const ClarensService&) = delete;

  /// Registers a typed method (replaces an existing one of the same name).
  template <typename P>
  void register_method(const std::string& name, Decoder<P> decode,
                       std::type_identity_t<Handler<P>> handler) {
    SPHINX_ASSERT(decode != nullptr && handler != nullptr,
                  "method decoder and handler must not be null");
    methods_[name] =
        std::make_unique<TypedMethod<P>>(decode, std::move(handler));
  }
  /// Registers a method whose params arrive as XrValues.
  void register_method(const std::string& name,
                       Handler<std::vector<XrValue>> handler);

  [[nodiscard]] const std::string& endpoint() const noexcept { return endpoint_; }

 private:
  /// A registered method: read() decodes a call's params and keeps them,
  /// or their refusal, for run(), which comes only once the call is
  /// authorized.
  class Method {
   public:
    virtual ~Method() = default;
    virtual void read(XrReader& in) = 0;
    virtual Expected<XrValue> run(const Proxy& proxy) = 0;
  };

  template <typename P>
  class TypedMethod final : public Method {
   public:
    TypedMethod(Decoder<P> decode, Handler<P> handler)
        : decode_(decode), handler_(std::move(handler)) {}
    void read(XrReader& in) override { params_.emplace(decode_(in)); }
    Expected<XrValue> run(const Proxy& proxy) override {
      Expected<P> params = std::move(*params_);
      params_.reset();
      if (!params) return Unexpected<Error>{params.error()};
      return handler_(*params, proxy);
    }

   private:
    Decoder<P> decode_;
    Handler<P> handler_;
    std::optional<Expected<P>> params_;
  };

  /// Runs decode/authz/dispatch and returns the serialized response.
  [[nodiscard]] std::string process(const Envelope& request);

  MessageBus& bus_;
  std::string endpoint_;
  AuthzPolicy policy_;
  std::map<std::string, std::unique_ptr<Method>, std::less<>> methods_;
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

  /// Issues an asynchronous call of the serialized <methodCall>
  /// `payload`.  The callback fires exactly once: when a response
  /// arrives, or with "rpc_timeout" after max_attempts transmissions went
  /// unanswered.
  void call(const std::string& service, std::string payload,
            Callback callback);

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
  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }

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
};

}  // namespace sphinx::rpc
