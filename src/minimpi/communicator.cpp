#include "minimpi/communicator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "support/crc32.h"
#include "support/metrics.h"
#include "support/sync.h"

namespace psf::minimpi {

// Shared state for the virtual-time-aware barrier: a cyclic rendezvous that
// also computes the max timeline across participants.
struct World::BarrierState {
  explicit BarrierState(std::size_t parties) : rendezvous(parties) {}

  support::CyclicBarrier rendezvous;
  std::mutex mutex;
  double max_vtime = 0.0;
};

// Message-fault injection state, installed once per World (set_msg_faults).
// Each rank draws from its own seeded stream and assigns its own send
// sequence numbers; deliver() touches only the sending rank's slot and
// accept_message() only the receiving rank's slot, so no slot is ever
// touched concurrently and the injected sequence is independent of
// executor width.
struct World::MsgFaultState {
  MsgFaultState(const fault::MsgFaultSpec& spec_in, int ranks)
      : spec(spec_in) {
    per_rank.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      per_rank.push_back(PerRank{
          fault::FaultRng(spec.seed ^
                          (0x9E3779B97F4A7C15ULL *
                           static_cast<std::uint64_t>(r + 1))),
          1,
          {}});
    }
  }

  struct PerRank {
    fault::FaultRng rng;
    std::uint64_t next_send_seq;
    // Receiver-side dedup backstop: last accepted send_seq per
    // (source, tag). Only this rank's own thread reads or writes it
    // (accept_message), so it needs no lock.
    std::map<std::pair<int, int>, std::uint64_t> last_accepted;
  };

  fault::MsgFaultSpec spec;
  std::vector<PerRank> per_rank;
};

// Sender-side small-message batching (one slot per rank; see
// set_coalescing). A Batch owns the frame buffer being packed for one
// destination; `active` lists destinations with a non-empty batch in
// first-append order, so a full flush deposits frames in a deterministic
// order independent of destination rank numbering.
struct World::CoalesceState {
  struct Batch {
    support::PooledBuffer frame;
    std::size_t used = 0;       ///< bytes written (header + subs)
    std::uint32_t count = 0;    ///< sub-messages packed so far
  };
  std::vector<Batch> per_dest;
  std::vector<int> active;
};

World::World(int size, timemodel::LinkModel network,
             timemodel::Overheads overheads)
    : size_(size), network_(network), overheads_(overheads) {
  PSF_CHECK_MSG(size > 0, "World needs at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  timelines_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>(size));
    timelines_.push_back(std::make_unique<timemodel::Timeline>());
  }
  barrier_ = std::make_unique<BarrierState>(static_cast<std::size_t>(size));
  msg_faults_ = std::make_unique<std::atomic<MsgFaultState*>>(nullptr);
}

World::~World() {
  if (msg_faults_ != nullptr) {
    delete msg_faults_->load(std::memory_order_acquire);
  }
}

World::World(World&&) noexcept = default;

void World::set_msg_faults(const fault::MsgFaultSpec& spec) {
  auto* state = new MsgFaultState(spec, size_);
  MsgFaultState* expected = nullptr;
  if (!msg_faults_->compare_exchange_strong(expected, state,
                                            std::memory_order_acq_rel)) {
    delete state;  // another rank won the install race
  }
}

bool World::msg_faults_enabled() const noexcept {
  return msg_fault_state() != nullptr;
}

void World::set_coalescing(bool enabled) {
  coalesce_.clear();
  if (!enabled) return;
  coalesce_.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    auto state = std::make_unique<CoalesceState>();
    state->per_dest.resize(static_cast<std::size_t>(size_));
    state->active.reserve(static_cast<std::size_t>(size_));
    coalesce_.push_back(std::move(state));
  }
}

World::CoalesceState* World::coalesce_slot(int rank) const noexcept {
  if (coalesce_.empty()) return nullptr;
  return coalesce_[static_cast<std::size_t>(rank)].get();
}

World::MsgFaultState* World::msg_fault_state() const noexcept {
  return msg_faults_->load(std::memory_order_acquire);
}

void World::run(const std::function<void(Communicator&)>& rank_main) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  std::exception_ptr first_error;
  std::mutex error_mutex;

  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      Communicator comm(*this, r);
      try {
        rank_main(comm);
        // End-of-rank flush boundary: a trailing batch whose receiver is
        // already blocked in recv() must still be deposited. Skipped on
        // exceptions (the pending-message drain check is waived there too).
        comm.flush_coalesced();
      } catch (...) {
        std::lock_guard<std::mutex> guard(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  PSF_METRIC_ADD("minimpi.world_runs", 1);
  PSF_METRIC_GAUGE_MAX("minimpi.makespan_vtime", makespan());

  // Leaked messages indicate a protocol bug in the caller; surface loudly.
  for (int r = 0; r < size_; ++r) {
    const std::size_t pending =
        mailboxes_[static_cast<std::size_t>(r)]->pending();
    PSF_CHECK_MSG(pending == 0 || first_error != nullptr,
                  "rank " << r << " finished with " << pending
                          << " unconsumed messages");
  }
  if (first_error) std::rethrow_exception(first_error);
}

support::Status World::try_run(
    const std::function<void(Communicator&)>& rank_main) {
  try {
    run(rank_main);
  } catch (const std::exception& error) {
    return support::Status::internal(std::string("rank failed: ") +
                                     error.what());
  } catch (...) {
    return support::Status::internal("rank failed with a non-std exception");
  }
  return support::Status::ok();
}

double World::rank_vtime(int rank) const {
  PSF_CHECK(rank >= 0 && rank < size_);
  return timelines_[static_cast<std::size_t>(rank)]->now();
}

double World::makespan() const {
  double maximum = 0.0;
  for (const auto& timeline : timelines_) {
    maximum = std::max(maximum, timeline->now());
  }
  return maximum;
}

void World::reset_timelines() {
  for (auto& timeline : timelines_) timeline->reset();
}

void World::set_trace(timemodel::TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ == nullptr) return;
  for (int r = 0; r < size_; ++r) {
    trace_->set_process_name(r, "rank" + std::to_string(r));
    trace_->set_lane_name(r, timemodel::kNetLane, "net");
  }
}

// --- point-to-point ---------------------------------------------------------

double Communicator::wire_cost(std::size_t bytes) const {
  return world_->network_.cost(static_cast<std::size_t>(
      static_cast<double>(bytes) * world_->byte_scale_));
}

// Fault injection (docs/RESILIENCE.md): a simulated lossy transport. One
// seeded draw per attempt decides the wire message's fate over disjoint
// probability ranges. Drops and corruptions charge a virtual
// retransmission timeout + linear backoff on the sender and redraw; the
// delivered payload is always the original bytes, so results stay
// bit-identical to a fault-free run.
template <typename Describe, typename DepositDamaged>
Communicator::Fate Communicator::draw_fate(
    World::MsgFaultState& faults, int dest, double call_begin,
    const Describe& describe, const DepositDamaged& deposit_damaged) {
  const fault::MsgFaultSpec& spec = faults.spec;
  auto& rng = faults.per_rank[static_cast<std::size_t>(rank_)].rng;
  auto& log = fault::FaultLog::current();
  const auto log_event = [&](const char* what) {
    if (log.enabled()) log.record(rank_, std::string(what) + " " + describe());
  };
  Fate fate;
  for (;;) {
    if (fate.retries > spec.max_retries) {
      throw std::runtime_error(
          "minimpi: send to rank " + std::to_string(dest) + " exhausted " +
          std::to_string(spec.max_retries) +
          " retransmissions under the fault plan (" + describe() + ")");
    }
    const double draw = rng.next_double();
    double threshold = spec.p_drop;
    if (draw < threshold) {
      // Dropped in flight: the retransmission timer expires and the sender
      // re-sends after a backoff. Nothing reaches the mailbox.
      timeline().advance(spec.timeout_s + spec.backoff_s * fate.retries);
      ++fate.retries;
      PSF_METRIC_ADD("minimpi.msgs_dropped", 1);
      PSF_METRIC_ADD("minimpi.retries", 1);
      log_event("drop");
      continue;
    }
    threshold += spec.p_corrupt;
    if (draw < threshold) {
      // A damaged copy reaches the receiver, which rejects it by CRC and
      // stays silent; the sender's timer then fires as for a drop.
      deposit_damaged();
      timeline().advance(spec.timeout_s + spec.backoff_s * fate.retries);
      ++fate.retries;
      PSF_METRIC_ADD("minimpi.msgs_corrupted", 1);
      PSF_METRIC_ADD("minimpi.retries", 1);
      log_event("corrupt");
      continue;
    }
    threshold += spec.p_dup;
    if (draw < threshold) {
      fate.duplicate = true;
      PSF_METRIC_ADD("minimpi.dup_deliveries", 1);
      log_event("dup");
    } else if (draw < threshold + spec.p_delay) {
      fate.extra_delay = spec.delay_s;
      PSF_METRIC_ADD("minimpi.msgs_delayed", 1);
      log_event("delay");
    }
    break;
  }
  if (fate.retries > 0) {
    PSF_METRIC_ADD("fault.recoveries", 1);
    if (world_->trace_ != nullptr) {
      world_->trace_->record("msg retry", "fault", rank_, timemodel::kNetLane,
                             call_begin, timeline().now());
    }
  }
  return fate;
}

void Communicator::deliver(int dest, int tag,
                           support::PooledBuffer payload) {
  PSF_CHECK_MSG(dest >= 0 && dest < size(), "send to invalid rank " << dest);
  if (World::CoalesceState* coalesce = world_->coalesce_slot(rank_)) {
    if (payload.size() <= kCoalesceThresholdBytes) {
      coalesce_append(*coalesce, dest, tag, std::move(payload));
      return;
    }
    // A larger send must not overtake batched smalls to the same
    // destination (MPI non-overtaking per (source, dest)).
    coalesce_flush_dest(*coalesce, dest);
  }
  PSF_METRIC_ADD("minimpi.messages_sent", 1);
  PSF_METRIC_ADD("minimpi.bytes_sent", payload.size());
  PSF_METRIC_HIST_RECORD("minimpi.msg_bytes", payload.size());
  // A fresh (non-recycled) payload means this send heap-allocated; the
  // steady-state contract is that this counter stops moving once the pool
  // is warm (asserted on the bench-smoke report in CI).
  if (payload.fresh()) PSF_METRIC_ADD("minimpi.payload_allocs", 1);
  const double call_begin = timeline().now();
  timeline().advance(world_->overheads_.mpi_call_s);

  // With no faults installed the fate draw is skipped and the message goes
  // out unchecksummed, first time.
  std::uint32_t crc = 0;
  std::uint64_t send_seq = 0;
  Fate fate;
  if (World::MsgFaultState* faults = world_->msg_fault_state()) {
    crc = support::crc32(payload.bytes());
    send_seq = faults->per_rank[static_cast<std::size_t>(rank_)]
                   .next_send_seq++;
    fate = draw_fate(
        *faults, dest, call_begin,
        [&] {
          return "dest=" + std::to_string(dest) +
                 " tag=" + std::to_string(tag) +
                 " seq=" + std::to_string(send_seq);
        },
        [&] {
          // The bad copy carries the original CRC (that is what makes it
          // detectable) and the same sequence number.
          Message bad;
          bad.source = rank_;
          bad.tag = tag;
          bad.crc = payload.empty() ? ~crc : crc;
          bad.send_seq = send_seq;
          bad.arrival_vtime = timeline().now() + wire_cost(payload.size());
          bad.payload = acquire_buffer(payload.size());
          if (!payload.empty()) {
            std::memcpy(bad.payload.data(), payload.data(), payload.size());
            bad.payload.data()[0] ^= std::byte{0xFF};
          }
          mailbox(dest).deposit(std::move(bad));
        });
  }

  Message message;
  message.source = rank_;
  message.tag = tag;
  message.crc = crc;
  message.send_seq = send_seq;
  message.arrival_vtime =
      timeline().now() + fate.extra_delay + wire_cost(payload.size());
  message.payload = std::move(payload);
  if (world_->trace_ != nullptr) {
    // The span covers the send call itself; the message carries its id so
    // the matching receive can record the send -> recv message edge. Under
    // retries the preceding "msg retry" fault span covers the backoff time
    // and the send span degenerates to the final (instant) attempt.
    const double send_begin = fate.retries > 0 ? timeline().now() : call_begin;
    message.trace_span =
        world_->trace_->record("send", "comm", rank_, timemodel::kNetLane,
                               send_begin, timeline().now());
  }
  if (!fate.duplicate) {
    mailbox(dest).deposit(std::move(message));
    return;
  }
  // A second, byte-identical copy delivered right behind the first; the
  // receiver drops it by sequence number (Mailbox::purge_duplicates). One
  // atomic deposit for both copies: if the receiver could retrieve the
  // original between two separate deposits, its purge would miss the copy
  // and the copy would rot in the mailbox past the end-of-run drain check
  // (or worse, be read as a real message).
  Message copy;
  copy.source = rank_;
  copy.tag = tag;
  copy.crc = crc;
  copy.send_seq = send_seq;
  copy.arrival_vtime = message.arrival_vtime;
  copy.trace_span = message.trace_span;
  copy.payload = acquire_buffer(message.payload.size());
  if (!message.payload.empty()) {
    std::memcpy(copy.payload.data(), message.payload.data(),
                message.payload.size());
  }
  mailbox(dest).deposit_pair(std::move(message), std::move(copy));
}

void Communicator::coalesce_append(World::CoalesceState& state, int dest,
                                   int tag, support::PooledBuffer payload) {
  PSF_METRIC_ADD("minimpi.messages_sent", 1);
  PSF_METRIC_ADD("minimpi.bytes_sent", payload.size());
  PSF_METRIC_HIST_RECORD("minimpi.msg_bytes", payload.size());
  if (payload.fresh()) PSF_METRIC_ADD("minimpi.payload_allocs", 1);

  auto& batch = state.per_dest[static_cast<std::size_t>(dest)];
  const std::size_t need = sizeof(FrameSubHeader) + payload.size();
  if (batch.count > 0 && batch.used + need > kCoalesceFrameBytes) {
    coalesce_flush_dest(state, dest);
  }
  if (batch.count == 0) {
    batch.frame = acquire_buffer(kCoalesceFrameBytes);
    // The frame is the pooled deposit: one payload_allocs charge per FRAME.
    // (Sub payloads were charged when the caller acquired them, exactly as
    // for individual sends; the receiver-side unpack buffers recycle
    // through the pool and charge nothing.)
    if (batch.frame.fresh()) PSF_METRIC_ADD("minimpi.payload_allocs", 1);
    batch.used = sizeof(FrameHeader);
    state.active.push_back(dest);
  }

  FrameSubHeader sub;
  sub.tag = tag;
  sub.bytes = static_cast<std::uint32_t>(payload.size());
  if (World::MsgFaultState* faults = world_->msg_fault_state()) {
    // CRC and sender sequence are assigned at APPEND, in send order, from
    // the same per-rank counter as individual sends — the receiver's
    // accept/purge/backstop protocol is agnostic to how messages traveled.
    sub.crc = support::crc32(payload.bytes());
    sub.send_seq =
        faults->per_rank[static_cast<std::size_t>(rank_)].next_send_seq++;
  }
  std::memcpy(batch.frame.data() + batch.used, &sub, sizeof(sub));
  batch.used += sizeof(sub);
  if (!payload.empty()) {
    std::memcpy(batch.frame.data() + batch.used, payload.data(),
                payload.size());
    batch.used += payload.size();
  }
  batch.count += 1;
}

void Communicator::coalesce_flush_dest(World::CoalesceState& state,
                                       int dest) {
  auto& batch = state.per_dest[static_cast<std::size_t>(dest)];
  if (batch.count == 0) return;

  // The frame is one wire message: one MPI call (the CrystalGPU-style task
  // aggregation), one alpha-beta cost over its bytes and one fault fate.
  const double call_begin = timeline().now();
  timeline().advance(world_->overheads_.mpi_call_s);
  FrameHeader header;
  header.count = batch.count;
  const std::span<const std::byte> frame(batch.frame.data(), batch.used);
  const auto write_header = [&] {
    std::memcpy(batch.frame.data(), &header, sizeof(header));
  };

  Fate fate;
  if (World::MsgFaultState* faults = world_->msg_fault_state()) {
    fate = draw_fate(
        *faults, dest, call_begin,
        [&] {
          return "dest=" + std::to_string(dest) +
                 " frame_subs=" + std::to_string(batch.count);
        },
        [&] {
          // The damaged frame reaches the receiver with EVERY sub corrupted
          // (deposit_frame damages each payload under its original CRC), so
          // each sub is CRC-rejected and the clean retransmission is
          // accepted sub-for-sub.
          header.arrival_vtime = timeline().now() + wire_cost(batch.used);
          write_header();
          mailbox(dest).deposit_frame(rank_, frame, /*corrupt=*/true);
        });
  }

  header.arrival_vtime =
      timeline().now() + fate.extra_delay + wire_cost(batch.used);
  header.flags = fate.duplicate ? kFrameDuplicate : 0u;
  if (world_->trace_ != nullptr) {
    const double send_begin = fate.retries > 0 ? timeline().now() : call_begin;
    header.trace_span =
        world_->trace_->record("send", "comm", rank_, timemodel::kNetLane,
                               send_begin, timeline().now());
  }
  write_header();
  mailbox(dest).deposit_frame(rank_, frame, /*corrupt=*/false);
  PSF_METRIC_ADD("minimpi.frames_sent", 1);
  PSF_METRIC_ADD("minimpi.msgs_coalesced", batch.count);
  batch.frame.release();
  batch.used = 0;
  batch.count = 0;
  std::erase(state.active, dest);
}

void Communicator::flush_coalesced() {
  World::CoalesceState* state = world_->coalesce_slot(rank_);
  if (state == nullptr) return;
  // First-append order; coalesce_flush_dest removes the destination from
  // `active`, so draining the front is both deterministic and
  // allocation-free.
  while (!state->active.empty()) {
    coalesce_flush_dest(*state, state->active.front());
  }
}

void Communicator::consume(const Message& message) {
  PSF_METRIC_ADD("minimpi.messages_received", 1);
  PSF_METRIC_ADD("minimpi.bytes_received", message.payload.size());
#ifndef PSF_DISABLE_METRICS
  // Virtual time this rank stalls for the message to arrive — summed over
  // receives this is the halo-exchange / combine wait breakdown.
  const double wait = message.arrival_vtime - timeline().now();
  if (wait > 0.0) PSF_METRIC_OBSERVE("minimpi.recv_wait_vtime", wait);
#endif
  const double call_begin = timeline().now();
  timeline().advance(world_->overheads_.mpi_call_s);
  timeline().merge(message.arrival_vtime);
  if (world_->trace_ != nullptr) {
    // The span runs from recv entry to message arrival (call overhead plus
    // any wait); the edge ties it back to the originating send.
    const std::uint64_t recv_span =
        world_->trace_->record("recv", "comm", rank_, timemodel::kNetLane,
                               call_begin, timeline().now());
    world_->trace_->record_edge(message.trace_span, recv_span, "message");
  }
}

support::PooledBuffer Communicator::acquire_buffer(std::size_t bytes) {
  return support::BufferPool::global().acquire(bytes);
}

bool Communicator::accept_message(const Message& message) {
  if (message.send_seq == 0) return true;  // pre-fault-era message
  if (support::crc32(message.payload.bytes()) != message.crc) {
    // Corrupted delivery: discard silently — the sender's retransmission
    // timer has already queued (or will queue) a clean copy.
    PSF_METRIC_ADD("minimpi.crc_rejects", 1);
    auto& log = fault::FaultLog::current();
    if (log.enabled()) {
      log.record(rank_, "crc_reject src=" + std::to_string(message.source) +
                            " tag=" + std::to_string(message.tag) +
                            " seq=" + std::to_string(message.send_seq));
    }
    return false;
  }
  // Dedup. The purge is the fast path: it drops the byte-identical copy
  // while it still sits right behind the original at the queue front. The
  // sequence check is the backstop for the race it cannot cover — the
  // original and its copy are two separate deposits, so this rank can
  // retrieve the original before the copy lands, and the stale copy would
  // later be consumed as a real message. Both paths bump the same
  // counters, so totals stay independent of which one wins; neither logs
  // to the FaultLog (its position would depend on the race — the sender's
  // "dup" record already pins the injection deterministically).
  std::size_t discarded = mailbox(rank_).purge_duplicates(
      message.source, message.tag, message.send_seq);
  bool stale = false;
  World::MsgFaultState* faults = world_->msg_fault_state();
  if (faults != nullptr) {
    auto& mine = faults->per_rank[static_cast<std::size_t>(rank_)];
    auto [it, inserted] = mine.last_accepted.try_emplace(
        std::pair{message.source, message.tag}, message.send_seq);
    if (!inserted) {
      if (message.send_seq == it->second) {
        stale = true;
        ++discarded;
      } else {
        it->second = message.send_seq;
      }
    }
  }
  if (discarded > 0) {
    PSF_METRIC_ADD("minimpi.dup_discards", discarded);
    PSF_METRIC_ADD("fault.recoveries", 1);
  }
  return !stale;
}

Message Communicator::retrieve_checked(int source, int tag) {
  // Flush boundary: entering a blocking receive. ALL destinations flush,
  // not just `source` — the awaited message may depend transitively on a
  // third rank receiving our batched smalls first.
  flush_coalesced();
  World::MsgFaultState* faults = world_->msg_fault_state();
  if (faults == nullptr) return mailbox(rank_).retrieve(source, tag);
  const int deadline_ms = faults->spec.deadline_ms;
  for (;;) {
    Message message;
    if (deadline_ms > 0) {
      if (!mailbox(rank_).retrieve_for(
              source, tag, static_cast<double>(deadline_ms) / 1e3, message)) {
        throw std::runtime_error(
            "minimpi: rank " + std::to_string(rank_) + " recv deadline of " +
            std::to_string(deadline_ms) + " ms exceeded (fault plan)");
      }
    } else {
      message = mailbox(rank_).retrieve(source, tag);
    }
    if (accept_message(message)) return message;
  }
}

void Communicator::send(int dest, int tag, std::span<const std::byte> data) {
  support::PooledBuffer payload = acquire_buffer(data.size());
  if (!data.empty()) std::memcpy(payload.data(), data.data(), data.size());
  deliver(dest, tag, std::move(payload));
}

void Communicator::send_pooled(int dest, int tag,
                               support::PooledBuffer payload) {
  deliver(dest, tag, std::move(payload));
}

MessageInfo Communicator::recv(int source, int tag,
                               std::span<std::byte> out) {
  Message message = retrieve_checked(source, tag);
  PSF_CHECK_MSG(message.payload.size() <= out.size(),
                "recv buffer too small: got " << message.payload.size()
                                              << " bytes, buffer "
                                              << out.size());
  if (!message.payload.empty()) {
    std::memcpy(out.data(), message.payload.data(), message.payload.size());
  }
  consume(message);
  return {message.source, message.tag, message.payload.size()};
}

Message Communicator::recv_any(int source, int tag) {
  Message message = retrieve_checked(source, tag);
  consume(message);
  return message;
}

support::StatusOr<MessageInfo> Communicator::recv_deadline(
    int source, int tag, std::span<std::byte> out, double timeout_s) {
  flush_coalesced();
  for (;;) {
    Message message;
    if (!mailbox(rank_).retrieve_for(source, tag, timeout_s, message)) {
      return support::Status::deadline_exceeded(
          "recv_deadline: rank " + std::to_string(rank_) +
          " saw no message matching (source=" + std::to_string(source) +
          ", tag=" + std::to_string(tag) + ") within " +
          std::to_string(timeout_s) + " s");
    }
    if (!accept_message(message)) continue;  // CRC reject: keep waiting
    PSF_CHECK_MSG(message.payload.size() <= out.size(),
                  "recv buffer too small: got " << message.payload.size()
                                                << " bytes, buffer "
                                                << out.size());
    if (!message.payload.empty()) {
      std::memcpy(out.data(), message.payload.data(), message.payload.size());
    }
    consume(message);
    return MessageInfo{message.source, message.tag, message.payload.size()};
  }
}

Request Communicator::isend(int dest, int tag,
                            std::span<const std::byte> data) {
  const std::size_t bytes = data.size();
  support::PooledBuffer payload = acquire_buffer(bytes);
  if (!data.empty()) std::memcpy(payload.data(), data.data(), bytes);
  deliver(dest, tag, std::move(payload));
  Request request;
  request.kind_ = Request::Kind::kSendDone;
  request.info_ = {rank_, tag, bytes};
  return request;
}

Request Communicator::isend_pooled(int dest, int tag,
                                   support::PooledBuffer payload) {
  const std::size_t bytes = payload.size();
  deliver(dest, tag, std::move(payload));
  Request request;
  request.kind_ = Request::Kind::kSendDone;
  request.info_ = {rank_, tag, bytes};
  return request;
}

Request Communicator::irecv(int source, int tag, std::span<std::byte> out) {
  Request request;
  request.kind_ = Request::Kind::kRecvPending;
  request.source_ = source;
  request.tag_ = tag;
  request.out_ = out;
  return request;
}

void Communicator::wait(Request& request) {
  PSF_CHECK_MSG(request.valid(), "wait() on an empty Request");
  PSF_METRIC_ADD("minimpi.waits", 1);
  // Flush boundary: wait() completes outstanding non-blocking traffic, so
  // batched isends must hit the wire here even for send-only requests.
  flush_coalesced();
  if (request.kind_ == Request::Kind::kRecvPending) {
    request.info_ = recv(request.source_, request.tag_, request.out_);
  }
  request.kind_ = Request::Kind::kNone;
}

void Communicator::wait_all(std::span<Request> requests) {
  for (auto& request : requests) {
    if (request.valid()) wait(request);
  }
}

bool Communicator::probe(int source, int tag) {
  // Flush boundary: a rank probing for traffic may itself be the sender
  // another rank's probe loop waits on (and self-sends must be visible).
  flush_coalesced();
  return mailbox(rank_).probe(source, tag);
}

// --- collectives ------------------------------------------------------------

void Communicator::barrier() {
  // Flush boundary: traffic sent before a barrier must be deliverable to
  // receivers on the far side of it.
  flush_coalesced();
  PSF_METRIC_ADD("minimpi.barriers", 1);
  const double barrier_begin = timeline().now();
  auto& state = *world_->barrier_;
  {
    std::lock_guard<std::mutex> guard(state.mutex);
    state.max_vtime = std::max(state.max_vtime, timeline().now());
  }
  state.rendezvous.arrive_and_wait();
  // All deposits are in; charge a log2(n)-deep latency chain for the
  // rendezvous itself, then rendezvous again before clearing the max so a
  // following barrier cannot race with stragglers reading it.
  const double depth =
      size() > 1 ? std::ceil(std::log2(static_cast<double>(size()))) : 0.0;
  double joint;
  {
    std::lock_guard<std::mutex> guard(state.mutex);
    joint = state.max_vtime + depth * world_->network_.latency_s;
  }
  timeline().merge(joint);
  if (world_->trace_ != nullptr) {
    world_->trace_->record("barrier", "comm", rank_, timemodel::kNetLane,
                           barrier_begin, timeline().now());
  }
  state.rendezvous.arrive_and_wait();
  if (rank_ == 0) {
    std::lock_guard<std::mutex> guard(state.mutex);
    state.max_vtime = 0.0;
  }
  state.rendezvous.arrive_and_wait();
}

void Communicator::bcast(std::span<std::byte> data, int root) {
  // Binomial tree rooted at `root`: relative rank r receives from
  // r - 2^k (its lowest set bit) and forwards to r + 2^j for all j below.
  const int n = size();
  if (n == 1) return;
  constexpr int kTag = 0x7fff0002;
  const int rel = (rank_ - root + n) % n;
  if (rel != 0) {
    const int lowest = rel & -rel;
    const int parent_rel = rel - lowest;
    const int parent = (parent_rel + root) % n;
    recv(parent, kTag, data);
  }
  const int subtree =
      rel == 0 ? static_cast<int>(std::bit_ceil(static_cast<unsigned>(n)))
               : (rel & -rel);
  for (int step = subtree >> 1; step >= 1; step >>= 1) {
    const int child_rel = rel + step;
    if (child_rel < n) {
      send((child_rel + root) % n, kTag, data);
    }
  }
}

void Communicator::reduce_bytes(
    std::span<std::byte> data, std::size_t elem_size, int root,
    const std::function<void(const std::byte*)>& combine) {
  PSF_CHECK_MSG(elem_size > 0 && data.size() % elem_size == 0,
                "reduce_bytes: buffer not a multiple of element size");
  const int n = size();
  if (n == 1) return;
  constexpr int kTag = 0x7fff0003;
  const int rel = (rank_ - root + n) % n;

  // Binomial tree combine: at step 2^k, relative ranks that are odd
  // multiples of 2^k send to (rel - 2^k); even multiples receive+combine.
  for (int step = 1; step < n; step <<= 1) {
    if ((rel & step) != 0) {
      const int parent = ((rel - step) + root) % n;
      send(parent, kTag, data);
      return;  // this rank's contribution is merged upstream
    }
    const int child_rel = rel + step;
    if (child_rel < n) {
      // Combine straight out of the pooled payload: no staging copy.
      const Message incoming = recv_any((child_rel + root) % n, kTag);
      PSF_CHECK_MSG(incoming.payload.size() == data.size(),
                    "reduce_bytes: got " << incoming.payload.size()
                                         << " bytes, expected " << data.size());
      combine(incoming.payload.data());
    }
  }
}

std::vector<std::vector<std::byte>> Communicator::alltoallv(
    const std::vector<std::vector<std::byte>>& outbound, int tag) {
  PSF_CHECK_MSG(outbound.size() == static_cast<std::size_t>(size()),
                "alltoallv needs one outbound buffer per rank");
  const int n = size();
  std::vector<std::vector<std::byte>> inbound(static_cast<std::size_t>(n));
  inbound[static_cast<std::size_t>(rank_)] =
      outbound[static_cast<std::size_t>(rank_)];

  // Post all sends first (buffered, non-blocking), then receive n-1
  // messages from distinct sources.
  for (int offset = 1; offset < n; ++offset) {
    const int dest = (rank_ + offset) % n;
    isend(dest, tag, outbound[static_cast<std::size_t>(dest)]);
  }
  for (int offset = 1; offset < n; ++offset) {
    const int source = (rank_ - offset + n) % n;
    Message message = recv_any(source, tag);
    const auto payload = message.payload.bytes();
    inbound[static_cast<std::size_t>(source)].assign(payload.begin(),
                                                     payload.end());
  }
  return inbound;
}

}  // namespace psf::minimpi
