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
/// A method is a params decoder, a handler and a reply writer, all
/// typed: the decoder reads the params straight off the XrReader (the
/// decoders of core/codec.hpp and ctrl/renew.hpp), and the handler's
/// reply goes straight through an XrWriter.  The service runs the
/// decoder over the whole envelope before it authorizes anything, so a
/// fault says, in this order of precedence:
///   1. kParse: the envelope is not well-formed XML-RPC;
///   2. kDenied: the caller's proxy is expired, or its VO is not admitted;
///   3. kNoSuchMethod: no method has that name;
///   4. kApplication: the decoder refused the params (a wrong count or
///      type, or a codec error: the first failing check in the decoder's
///      own order, not in wire order), or the handler reported an error.
/// A client sends a payload its caller encoded and hands the reply to
/// the call's typed reader; a call restored from the outbox has no
/// method, so its reply is only checked to be a well-formed response.
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
#include <string_view>
#include <type_traits>

#include "common/error.hpp"
#include "rpc/gsi.hpp"
#include "rpc/transport.hpp"
#include "rpc/xmlrpc.hpp"

namespace sphinx::rpc {

/// Room for a reply's or a fault's bytes: a reply is about 110 bytes.
inline constexpr std::size_t kReplyBytes = 256;

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
  /// Runs an authorized call on its decoded params: its reply, or why it
  /// failed.
  template <typename P, typename R>
  using Handler = std::function<Expected<R>(const P&, const Proxy&)>;
  /// Writes a reply's one value.
  template <typename R>
  using ReplyWriter = void (*)(XrWriter& out, R reply);

  ClarensService(MessageBus& bus, std::string_view endpoint,
                 AuthzPolicy policy);
  ~ClarensService();

  ClarensService(const ClarensService&) = delete;
  ClarensService& operator=(const ClarensService&) = delete;

  /// Registers a method (replaces an existing one of the same name).
  template <typename P, typename R>
  void register_method(const std::string& name, Decoder<P> decode,
                       ReplyWriter<R> write,
                       std::type_identity_t<Handler<P, R>> handler) {
    SPHINX_ASSERT(decode != nullptr && write != nullptr && handler != nullptr,
                  "method decoder, reply writer and handler must not be null");
    methods_[name] = std::make_unique<TypedMethod<P, R>>(decode, write,
                                                         std::move(handler));
  }

 private:
  /// A registered method: read() decodes a call's params and keeps them,
  /// or their refusal, for run(), which comes only once the call is
  /// authorized and returns the reply's bytes.
  class Method {
   public:
    virtual ~Method() = default;
    virtual void read(XrReader& in) = 0;
    virtual Expected<std::string> run(const Proxy& proxy) = 0;
  };

  template <typename P, typename R>
  class TypedMethod final : public Method {
   public:
    TypedMethod(Decoder<P> decode, ReplyWriter<R> write, Handler<P, R> handler)
        : decode_(decode), write_(write), handler_(std::move(handler)) {}
    void read(XrReader& in) override { params_.emplace(decode_(in)); }
    Expected<std::string> run(const Proxy& proxy) override {
      Expected<P> params = std::move(*params_);
      params_.reset();
      if (!params) return Unexpected<Error>{params.error()};
      Expected<R> reply = handler_(*params, proxy);
      if (!reply) return Unexpected<Error>{reply.error()};
      XrWriter out(kReplyBytes);
      out.begin_response();
      write_(out, std::move(*reply));
      out.end_response();
      return std::move(out).take();
    }

   private:
    Decoder<P> decode_;
    ReplyWriter<R> write_;
    Handler<P, R> handler_;
    std::optional<Expected<P>> params_;
  };

  /// Runs decode/authz/dispatch and returns the serialized response.
  [[nodiscard]] std::string process(const Envelope& request);

  MessageBus& bus_;
  EndpointId endpoint_;
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
  /// Reads a reply's one value (depth 1) off `in`: the reply, or why it
  /// is refused.  A syntax error leaves `in` failed, and the result is
  /// then ignored.
  template <typename R>
  using ReplyReader = Expected<R> (*)(XrReader& in);
  /// Durable-outbox hooks: upsert(seq, service, payload, attempt,
  /// last_sent_at) after every transmission, erase(seq) on completion.
  using OutboxUpsert = std::function<void(
      std::uint64_t, const std::string&, const std::string&, int, SimTime)>;
  using OutboxErase = std::function<void(std::uint64_t)>;

  ClarensClient(MessageBus& bus, std::string_view endpoint, Proxy proxy,
                RetryPolicy retry = {});
  ~ClarensClient();

  ClarensClient(const ClarensClient&) = delete;
  ClarensClient& operator=(const ClarensClient&) = delete;

  /// Issues an asynchronous call of the serialized <methodCall>
  /// `payload`, whose reply `read` reads.  `callback(Expected<R>)` fires
  /// exactly once: with the reply, a fault (code "fault:<code>"), a reply
  /// that did not parse, or "rpc_timeout" after max_attempts
  /// transmissions went unanswered.
  template <typename R, typename F>
  void call(std::string_view service, std::string payload,
            ReplyReader<R> read, F callback) {
    SPHINX_ASSERT(read != nullptr, "call reply reader must not be null");
    start(service, std::move(payload),
          [read, callback = std::move(callback)](
              Expected<std::string_view> reply) mutable {
            callback(reply ? read_reply(*reply, read)
                           : Expected<R>(Unexpected<Error>{reply.error()}));
          });
  }

  /// Wires a durable outbox so a journal-recovered owner can re-arm
  /// in-flight calls (see restore_call()).  Pass nullptrs to detach.
  void set_outbox(OutboxUpsert upsert, OutboxErase erase);
  /// Seeds the sequence counter (recovery: persisted last seq + 1).
  void set_next_seq(std::uint64_t next) noexcept { next_seq_ = next; }
  /// Re-registers a call restored from the outbox without sending: the
  /// retry timer is re-armed where the crashed instance would have fired
  /// it, so a recovered run replays the identical wire schedule.  The
  /// call's method is not known, so `callback` learns only whether a
  /// well-formed, fault-free reply came.
  void restore_call(std::uint64_t seq, std::string_view service,
                    std::string payload, int attempt, SimTime last_sent_at,
                    std::function<void(StatusOrError)> callback);

  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }

 private:
  /// Ends a call: with its reply's bytes, or why none came.
  using Completion = std::function<void(Expected<std::string_view>)>;

  /// Reads the whole `<methodResponse>` `bytes`: the reply `read` reads,
  /// or a fault as the error `fault:<code>` with the fault's message.
  /// Bytes that are not a well-formed response, anywhere, are an
  /// `xmlrpc_parse` error instead, whatever `read` would have said.
  template <typename R>
  static Expected<R> read_reply(std::string_view bytes, ReplyReader<R> read) {
    XrReader in(bytes);
    bool fault = false;
    std::int64_t code = 0;
    std::string message;
    if (!in.begin_response(fault, code, message)) return in.error();
    Expected<R> reply =
        fault ? make_error("fault:" + std::to_string(code), std::move(message))
              : read(in);
    if (!in.ok() || !in.end_response()) return in.error();
    return reply;
  }

  struct CallState {
    EndpointId service{};
    std::string payload;  ///< serialized methodCall, reused verbatim
    Completion done;
    int attempt = 0;      ///< transmissions so far
    SimTime last_sent_at = 0.0;
    sim::EventHandle timer;
  };

  void start(std::string_view service, std::string payload, Completion done);
  void handle(const Envelope& response);
  void transmit(std::uint64_t seq);
  void arm_timer(std::uint64_t seq);
  void on_timeout(std::uint64_t seq);
  void complete(std::uint64_t seq, Expected<std::string_view> reply);
  [[nodiscard]] Duration rto(std::uint64_t seq, int attempt) const;

  MessageBus& bus_;
  EndpointId endpoint_;
  /// FNV-1a of the endpoint's name, the seed of every retry's jitter.
  std::uint64_t jitter_seed_;
  /// Shared by every envelope the client sends.
  std::shared_ptr<const Proxy> proxy_;
  RetryPolicy retry_;
  std::uint64_t next_seq_ = 1;
  /// Ordered so destruction/iteration order is deterministic.
  std::map<std::uint64_t, CallState> pending_;
  OutboxUpsert outbox_upsert_;
  OutboxErase outbox_erase_;
};

}  // namespace sphinx::rpc
