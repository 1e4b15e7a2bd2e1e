// Instrumentation seam between HClib-Actor and ActorProf.
//
// The Selector reports application-level events: every send() *before*
// aggregation (the logical trace of §III-A), handler entry/exit per message
// or per drained batch (the PROC region), and entry/exit of the
// communication internals (the COMM region used to derive T_COMM in
// §III-B). A null observer costs one branch.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ap::actor {

class ActorObserver {
 public:
  virtual ~ActorObserver() = default;

  /// An application send of `bytes` payload to `dst_pe` on mailbox `mb`
  /// (fires before the message enters any aggregation buffer). `flow_id`
  /// is non-zero only when the observer asked for flow correlation
  /// (wants_flow_ids); the same id reappears at on_handler_begin on the
  /// destination PE and on the physical transfer that carried the message,
  /// linking Send -> Transfer -> Proc across the stack.
  virtual void on_send(int mb, int dst_pe, std::size_t bytes,
                       std::uint64_t flow_id) = 0;

  /// The user message handler for mailbox `mb` is about to run / just ran
  /// for a message of `bytes` payload from `src_pe`. `flow_id` is the id
  /// assigned at the originating send (0 when flow ids are off).
  virtual void on_handler_begin(int mb, int src_pe, std::size_t bytes,
                                std::uint64_t flow_id) = 0;
  virtual void on_handler_end(int mb) = 0;

  /// The runtime entered/left conveyor progress work (advance, flush,
  /// delivery, termination detection) on the current PE.
  virtual void on_comm_begin() = 0;
  virtual void on_comm_end() = 0;

  /// Only an observer that renders every message (the Chrome timeline,
  /// which records a BeginProc/EndProc pair with its flow id per message)
  /// needs the per-message on_handler_begin/on_handler_end pairs. Every
  /// other observer returns false here: the selector then brackets each
  /// drained batch once, on_handler_batch_begin before its first record
  /// and on_handler_batch after its last, so the whole batch (handlers
  /// plus the drain loop's per-record bookkeeping) is one PROC region.
  [[nodiscard]] virtual bool wants_per_message_events() const { return true; }

  /// A drained batch of mailbox `mb` is about to run its first handler
  /// (only called when wants_per_message_events() is false). Default
  /// no-op.
  virtual void on_handler_batch_begin(int mb) { (void)mb; }

  /// Closes the batch opened by on_handler_batch_begin: `count` messages
  /// of `bytes_per_msg` payload each were handled on mailbox `mb`, their
  /// handle charges already on the PAPI counters. Also fires when a
  /// handler throws, with the messages consumed up to and including the
  /// one that threw. Default no-op.
  virtual void on_handler_batch(int mb, std::size_t count,
                                std::size_t bytes_per_msg) {
    (void)mb;
    (void)count;
    (void)bytes_per_msg;
  }

  /// Actor API protocol misuse on the calling PE (send before start, send
  /// after done on the same mailbox, double start). Fires *before* the
  /// selector throws, so the conformance checker records the violation even
  /// when a harness catches the exception. Default no-op.
  virtual void on_actor_misuse(const char* what) { (void)what; }

  /// Opt in to per-message flow ids. When true, selectors allocate a
  /// monotonically increasing id per send and conveyors carry it through
  /// aggregation (8 extra wire bytes per record) so physical transfers and
  /// remote handlers can be correlated with the logical send. Off by
  /// default: the wire format — and its tested per-record overhead — is
  /// unchanged unless a flow-aware observer is installed.
  [[nodiscard]] virtual bool wants_flow_ids() const { return false; }
};

void set_actor_observer(ActorObserver* obs);
ActorObserver* actor_observer();

/// Next process-wide logical-send flow id (1-based; 0 means "no flow").
/// Raw ids are only required to be unique — exporters renumber densely, so
/// the counter is never reset.
std::uint64_t next_flow_id();

}  // namespace ap::actor
