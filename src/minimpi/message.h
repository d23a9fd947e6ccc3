// PSF — Pattern Specification Framework
// Message representation and matching queue (mailbox) for minimpi.
//
// minimpi is the in-process stand-in for MPI (see DESIGN.md §2): ranks are
// threads of one process, the transport is shared memory, and every message
// carries the sender's virtual departure time so the timemodel can charge
// realistic network costs.
//
// Payloads are pooled (`support::PooledBuffer`): the sender packs into
// recycled storage and the mailbox hands that same storage to the receiver,
// so the steady state performs zero payload allocations and at most one
// copy (into the user's span on `recv`; zero for `recv_any`).
//
// The mailbox is sharded by source rank. Each sender lands in its own shard
// (up to kMaxShards), and within a shard messages are segregated into
// per-(source, tag) FIFO queues, so an exact-match retrieve is a map lookup
// plus a pop from the queue front — no linear scan over unrelated traffic.
// Wildcard retrieves take a slow path: every queued message carries a
// deposit sequence number, and the wildcard scan picks the matching message
// with the smallest one, preserving the arrival-order semantics of the old
// single-list design.
//
// Single-consumer contract: only the owning rank's thread calls
// retrieve/retrieve_pending on its mailbox (minimpi gives each rank exactly
// one thread of control for communication). That is what makes the
// `notify_one` wakeup in `deposit` sufficient — there is never more than
// one waiter per mailbox — and what makes the two-pass wildcard scan safe:
// a message observed at the front of a queue can only be removed by the
// scanning thread itself.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "support/buffer_pool.h"
#include "support/error.h"

namespace psf::minimpi {

/// Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Completed-receive metadata (MPI_Status equivalent).
struct MessageInfo {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

/// An in-flight buffered message. The payload is pooled storage owned by
/// the message; receiving a message transfers that ownership to the caller,
/// and the storage returns to the pool when the message is destroyed.
struct Message {
  int source = 0;
  int tag = 0;
  support::PooledBuffer payload;
  /// Virtual time at which the message arrives at the receiver (departure
  /// time + link cost), merged into the receiver's timeline on receipt.
  double arrival_vtime = 0.0;
  /// Trace span id of the send operation (0 when tracing is off), so the
  /// receive can record a send -> recv dependency edge.
  std::uint64_t trace_span = 0;
  /// Mailbox-assigned deposit sequence number; orders wildcard matching.
  std::uint64_t seq = 0;
  /// CRC-32 of the payload, filled by the sender when message-fault
  /// injection is active (0 means "not checksummed").
  std::uint32_t crc = 0;
  /// Sender-assigned per-rank sequence number under fault injection; the
  /// receiver dedups duplicated deliveries by it. 0 means "no injection".
  std::uint64_t send_seq = 0;
};

/// Wire format of a coalesced small-message frame (sender-side batching,
/// see World::set_coalescing). A frame is one pooled buffer holding
///
///   [FrameHeader][FrameSubHeader][payload]...[FrameSubHeader][payload]
///
/// Sub-messages are packed back-to-back in send order; headers are written
/// and read with memcpy, so no alignment is required inside the frame. The
/// frame is one wire message, so its arrival, send span and duplicate fate
/// live in the FrameHeader and are shared by every sub. The receiver-side
/// unpack (`Mailbox::deposit_frame`) turns every sub back into an
/// individual Message, preserving per-(source, tag) FIFO order and
/// assigning consecutive deposit sequence numbers so wildcard matching sees
/// the same earliest-first order as individual deposits.
struct FrameHeader {
  std::uint32_t count = 0;      ///< number of sub-messages in the frame
  std::uint32_t flags = 0;      ///< kFrameDuplicate
  double arrival_vtime = 0.0;   ///< priced arrival at the receiver
  std::uint64_t trace_span = 0; ///< send span id (0 = tracing off)
};

struct FrameSubHeader {
  std::uint64_t send_seq = 0;   ///< sender fault-era sequence (0 = none)
  std::int32_t tag = 0;
  std::uint32_t bytes = 0;      ///< payload bytes following this header
  std::uint32_t crc = 0;        ///< CRC-32 under fault injection (0 = none)
  std::uint32_t reserved = 0;   ///< keeps the payload 8-byte offset
};

/// flags bit: deposit a second, byte-identical copy right behind every sub
/// (the fault injector's duplicate-delivery fate for the frame).
inline constexpr std::uint32_t kFrameDuplicate = 1u << 0;

/// Debug builds enforce the single-consumer contract instead of silently
/// relying on it: at most one thread may block in retrieve/retrieve_for on
/// a mailbox at any moment. Release builds compile the guard out.
#ifndef NDEBUG
#define PSF_MAILBOX_CONSUMER_GUARD() \
  ConsumerGuard psf_consumer_guard_ { consumers_ }
#else
#define PSF_MAILBOX_CONSUMER_GUARD() ((void)0)
#endif

/// Per-rank inbound message queue with (source, tag) matching, sharded by
/// source. Arrival order is preserved per (source, tag) — the MPI
/// non-overtaking guarantee — because one sender's deposits are sequential
/// and land in one FIFO queue. See the single-consumer contract above.
class Mailbox {
 public:
  /// Shard-count ceiling; more ranks than this share shards by modulo.
  static constexpr std::size_t kMaxShards = 16;

  /// `expected_sources` sizes the shard array (the World passes its rank
  /// count); correctness does not depend on it.
  explicit Mailbox(int expected_sources = 4)
      : shard_mask_(shard_count_for(expected_sources) - 1),
        shards_(shard_mask_ + 1) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueue a message (called by the sender thread).
  void deposit(Message message) {
    message.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    Shard& shard = shard_for(message.source);
    {
      std::lock_guard<std::mutex> guard(shard.mutex);
      shard.queues[Key{message.source, message.tag}].push_back(
          std::move(message));
      shard.pending += 1;
    }
    {
      std::lock_guard<std::mutex> guard(wait_mutex_);
      version_ += 1;
    }
    cv_.notify_one();
  }

  /// Enqueue two messages with the same (source, tag) as one atomic step.
  /// Fault injection uses this to deposit a message and its duplicate copy
  /// under a single shard lock: purge_duplicates relies on the copy sitting
  /// right behind the original, which only holds if no retrieve can slip in
  /// between the two deposits.
  void deposit_pair(Message first, Message second) {
    first.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    second.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    Shard& shard = shard_for(first.source);
    {
      std::lock_guard<std::mutex> guard(shard.mutex);
      auto& queue = shard.queues[Key{first.source, first.tag}];
      queue.push_back(std::move(first));
      queue.push_back(std::move(second));
      shard.pending += 2;
    }
    {
      std::lock_guard<std::mutex> guard(wait_mutex_);
      version_ += 1;
    }
    cv_.notify_one();
  }

  /// Receiver-side unpack of a coalesced frame (see FrameHeader): every
  /// sub-message becomes an individual queue entry with its own pooled
  /// payload, deposited under ONE shard lock (all subs share `source`, so
  /// they share a shard) with ONE wakeup — that single lock/notify per
  /// frame, instead of per message, is the receiving half of the
  /// coalescing win. Sub order is preserved and sequence numbers are
  /// assigned in sub order, so per-(source, tag) FIFO and wildcard
  /// earliest-deposit semantics match individual deposits exactly.
  ///
  /// `corrupt` delivers the fault injector's damaged copy of the frame:
  /// every sub keeps its original CRC but its payload is damaged (first
  /// byte flipped; empty payloads flip the CRC instead), so the receiver
  /// rejects each sub and the later clean retransmission is accepted —
  /// corrupting only part of the frame could let a stale retransmitted sub
  /// slip past the per-(source, tag) dedup backstop.
  void deposit_frame(int source, std::span<const std::byte> frame,
                     bool corrupt = false) {
    FrameHeader header;
    PSF_CHECK_MSG(frame.size() >= sizeof(header), "coalesced frame truncated");
    std::memcpy(&header, frame.data(), sizeof(header));
    const bool duplicate = (header.flags & kFrameDuplicate) != 0;
    std::vector<Message> staged;
    staged.reserve(duplicate ? header.count * 2 : header.count);
    std::size_t offset = sizeof(header);
    for (std::uint32_t i = 0; i < header.count; ++i) {
      FrameSubHeader sub;
      PSF_CHECK_MSG(offset + sizeof(sub) <= frame.size(),
                    "coalesced frame sub-header out of bounds");
      std::memcpy(&sub, frame.data() + offset, sizeof(sub));
      offset += sizeof(sub);
      PSF_CHECK_MSG(offset + sub.bytes <= frame.size(),
                    "coalesced frame payload out of bounds");
      Message message;
      message.source = source;
      message.tag = sub.tag;
      message.arrival_vtime = header.arrival_vtime;
      message.trace_span = header.trace_span;
      message.crc = sub.crc;
      message.send_seq = sub.send_seq;
      message.payload = support::BufferPool::global().acquire(sub.bytes);
      if (sub.bytes > 0) {
        std::memcpy(message.payload.data(), frame.data() + offset, sub.bytes);
        if (corrupt) message.payload.data()[0] ^= std::byte{0xFF};
      } else if (corrupt) {
        message.crc = ~message.crc;
      }
      offset += sub.bytes;
      if (duplicate) {
        Message copy;
        copy.source = message.source;
        copy.tag = message.tag;
        copy.arrival_vtime = message.arrival_vtime;
        copy.trace_span = message.trace_span;
        copy.crc = message.crc;
        copy.send_seq = message.send_seq;
        copy.payload =
            support::BufferPool::global().acquire(message.payload.size());
        if (!message.payload.empty()) {
          std::memcpy(copy.payload.data(), message.payload.data(),
                      message.payload.size());
        }
        staged.push_back(std::move(message));
        staged.push_back(std::move(copy));
      } else {
        staged.push_back(std::move(message));
      }
    }
    if (staged.empty()) return;
    for (Message& message : staged) {
      message.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    }
    Shard& shard = shard_for(source);
    {
      std::lock_guard<std::mutex> guard(shard.mutex);
      for (Message& message : staged) {
        shard.queues[Key{message.source, message.tag}].push_back(
            std::move(message));
      }
      shard.pending += staged.size();
    }
    {
      std::lock_guard<std::mutex> guard(wait_mutex_);
      version_ += 1;
    }
    cv_.notify_one();
  }

  /// Block until a message matching (source, tag) is available and return
  /// it. Wildcards kAnySource / kAnyTag match anything; among matches the
  /// earliest-deposited message wins.
  Message retrieve(int source, int tag) {
    PSF_MAILBOX_CONSUMER_GUARD();
    for (;;) {
      std::uint64_t version;
      {
        std::lock_guard<std::mutex> guard(wait_mutex_);
        version = version_;
      }
      Message message;
      if (try_retrieve(source, tag, message)) return message;
      std::unique_lock<std::mutex> lock(wait_mutex_);
      cv_.wait(lock, [&] { return version_ != version; });
    }
  }

  /// retrieve() with a wall-clock deadline: false if nothing matching
  /// arrived within `timeout_s` seconds. Virtual time is not advanced here
  /// — the deadline is a hang detector, not a priced operation.
  bool retrieve_for(int source, int tag, double timeout_s, Message& out) {
    PSF_MAILBOX_CONSUMER_GUARD();
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_s));
    for (;;) {
      std::uint64_t version;
      {
        std::lock_guard<std::mutex> guard(wait_mutex_);
        version = version_;
      }
      if (try_retrieve(source, tag, out)) return true;
      std::unique_lock<std::mutex> lock(wait_mutex_);
      if (!cv_.wait_until(lock, deadline,
                          [&] { return version_ != version; })) {
        lock.unlock();
        // One last look: the match may have landed between the snapshot
        // and the wait.
        return try_retrieve(source, tag, out);
      }
    }
  }

  /// Drop duplicated deliveries of the message just retrieved: pops
  /// consecutive front messages of the exact (source, tag) queue carrying
  /// the same sender sequence number. Duplicates are deposited back-to-back
  /// by the sender thread into one FIFO queue, so after the first copy is
  /// retrieved the remaining copies sit at the queue front. Returns how
  /// many were dropped.
  std::size_t purge_duplicates(int source, int tag, std::uint64_t send_seq) {
    if (send_seq == 0) return 0;
    Shard& shard = shard_for(source);
    std::lock_guard<std::mutex> guard(shard.mutex);
    auto it = shard.queues.find(Key{source, tag});
    if (it == shard.queues.end()) return 0;
    std::size_t purged = 0;
    while (!it->second.empty() && it->second.front().send_seq == send_seq) {
      it->second.pop_front();
      shard.pending -= 1;
      ++purged;
    }
    return purged;
  }

  /// Non-blocking probe: true if a matching message is queued.
  [[nodiscard]] bool probe(int source, int tag) {
    if (source != kAnySource) {
      Shard& shard = shard_for(source);
      std::lock_guard<std::mutex> guard(shard.mutex);
      return find_in_shard(shard, source, tag) != nullptr;
    }
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> guard(shard.mutex);
      if (find_in_shard(shard, source, tag) != nullptr) return true;
    }
    return false;
  }

  /// Number of queued messages (for tests / leak checks).
  [[nodiscard]] std::size_t pending() {
    std::size_t total = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> guard(shard.mutex);
      total += shard.pending;
    }
    return total;
  }

 private:
  using Key = std::pair<int, int>;  // (source, tag)

  struct Shard {
    std::mutex mutex;
    /// Per-(source, tag) FIFO queues. Drained queues are kept (not erased)
    /// so the steady state never re-allocates map nodes.
    std::map<Key, std::deque<Message>> queues;
    std::size_t pending = 0;
  };

  static std::size_t shard_count_for(int expected_sources) {
    std::size_t count = 1;
    const std::size_t want =
        expected_sources > 0 ? static_cast<std::size_t>(expected_sources) : 1;
    while (count < want && count < kMaxShards) count <<= 1;
    return count;
  }

  Shard& shard_for(int source) {
    return shards_[static_cast<std::size_t>(source) & shard_mask_];
  }

  /// Queue with the smallest front seq matching (source, tag) in `shard`,
  /// or nullptr. Caller holds shard.mutex.
  static std::deque<Message>* find_in_shard(Shard& shard, int source,
                                            int tag) {
    if (source != kAnySource && tag != kAnyTag) {
      auto it = shard.queues.find(Key{source, tag});
      if (it != shard.queues.end() && !it->second.empty()) return &it->second;
      return nullptr;
    }
    std::deque<Message>* best = nullptr;
    for (auto& [key, queue] : shard.queues) {
      if (queue.empty()) continue;
      if (source != kAnySource && key.first != source) continue;
      if (tag != kAnyTag && key.second != tag) continue;
      if (best == nullptr || queue.front().seq < best->front().seq) {
        best = &queue;
      }
    }
    return best;
  }

  bool try_retrieve(int source, int tag, Message& out) {
    if (source != kAnySource) {
      // Fast path: one shard, and for an exact tag one map lookup.
      Shard& shard = shard_for(source);
      std::lock_guard<std::mutex> guard(shard.mutex);
      std::deque<Message>* queue = find_in_shard(shard, source, tag);
      if (queue == nullptr) return false;
      out = std::move(queue->front());
      queue->pop_front();
      shard.pending -= 1;
      return true;
    }
    // Wildcard-source slow path: find the globally earliest match. Pass 1
    // records the best (shard, front-seq) per shard; pass 2 re-locks the
    // winning shard and pops. New deposits only ever carry larger seqs and
    // nobody else removes (single-consumer contract), so the winner is
    // still at the front of its queue in pass 2.
    for (;;) {
      Shard* best_shard = nullptr;
      std::uint64_t best_seq = 0;
      for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> guard(shard.mutex);
        std::deque<Message>* queue = find_in_shard(shard, source, tag);
        if (queue == nullptr) continue;
        if (best_shard == nullptr || queue->front().seq < best_seq) {
          best_shard = &shard;
          best_seq = queue->front().seq;
        }
      }
      if (best_shard == nullptr) return false;
      std::lock_guard<std::mutex> guard(best_shard->mutex);
      std::deque<Message>* queue = find_in_shard(*best_shard, source, tag);
      PSF_CHECK_MSG(queue != nullptr && queue->front().seq == best_seq,
                    "mailbox wildcard winner vanished (single-consumer "
                    "contract violated)");
      out = std::move(queue->front());
      queue->pop_front();
      best_shard->pending -= 1;
      return true;
    }
  }

#ifndef NDEBUG
  struct ConsumerGuard {
    explicit ConsumerGuard(std::atomic<int>& count) : count_(count) {
      PSF_CHECK_MSG(count_.fetch_add(1, std::memory_order_acq_rel) == 0,
                    "mailbox single-consumer contract violated: a second "
                    "thread entered retrieve() concurrently");
    }
    ~ConsumerGuard() { count_.fetch_sub(1, std::memory_order_acq_rel); }
    ConsumerGuard(const ConsumerGuard&) = delete;
    ConsumerGuard& operator=(const ConsumerGuard&) = delete;
    std::atomic<int>& count_;
  };
  std::atomic<int> consumers_{0};
#endif

  const std::size_t shard_mask_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::mutex wait_mutex_;
  std::condition_variable cv_;
  std::uint64_t version_ = 0;
};

#undef PSF_MAILBOX_CONSUMER_GUARD

}  // namespace psf::minimpi
