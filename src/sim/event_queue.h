#ifndef FELA_SIM_EVENT_QUEUE_H_
#define FELA_SIM_EVENT_QUEUE_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "sim/types.h"

namespace fela::sim {

/// Time-ordered queue of callbacks. Ties are broken by insertion
/// sequence number so simulation runs are fully deterministic.
///
/// Events live in a slab of pooled slots; the heap holds only 16-byte
/// POD entries of (time, key) where key packs the global insertion
/// sequence number over the slot index. The key doubles as the
/// `EventId` handle and as the liveness tag: a slot remembers the key
/// of its current occupant, so cancellation is one slab probe — O(1),
/// no hash set — and a handle for an event that already fired (or was
/// already cancelled) fails the key check instead of corrupting the
/// live count. Sequence numbers are never reused, so recycling a slot
/// can never revive a stale handle. Steady-state Push/Pop reuses freed
/// slots and the inline buffer of `EventFn`, so it performs no
/// allocations once the vectors are warm.
///
/// The slab is segmented (power-of-two segments, geometric growth)
/// rather than one contiguous vector: growing appends a segment and
/// never relocates existing slots, so no stored `EventFn` is ever
/// moved by slab growth (each such move is an indirect call through
/// the callable's ops table — the dominant cost of a vector-backed
/// slab under churn).
///
/// The heap is quaternary, not binary: half the sift-down depth, and a
/// node's four 16-byte children span exactly one cache line, so each
/// level costs one line fill instead of two. Pop order is the strict
/// (time, key) total order either way — heap arity cannot perturb the
/// simulation transcript.
///
/// Cancelled events are dropped lazily, but the heap is compacted
/// whenever dead entries outnumber live ones, so the footprint stays
/// proportional to the number of live events even under pathological
/// push/cancel churn (constantly re-armed retry timers).
///
/// FIFO lanes serve producers whose completion times never decrease (a
/// device's kernel queue, a NIC's outbound link). A lane event takes its
/// sequence number at push time like any other, but waits in its lane's
/// own FIFO; only the lane head sits in the heap. Popping a head refills
/// the root from the same lane: one sift-down instead of a pop plus a
/// push, and a heap no deeper than the number of busy lanes. Within a
/// lane both time and sequence number only grow, so the lane head is the
/// lane's (time, key) minimum and the global pop order is exactly the
/// plain heap's. A push earlier than its lane's newest pending event
/// falls back to the heap. Lane events cannot be cancelled.
class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `fn` to fire at absolute time `when`. Returns a handle.
  EventId Push(SimTime when, EventFn fn);

  /// Enqueues `fn` at `when` in the FIFO lane `lane`, creating the lane
  /// (and storing its handle in `lane`) when `lane` is kNoLane. Pops in
  /// the same (time, insertion) order as Push; cheaper when the lane's
  /// pushes come in nondecreasing time order.
  void PushInLane(LaneId& lane, SimTime when, EventFn fn);

  /// Cancels a pending event in O(1); returns false if it already
  /// fired, was already cancelled, or the handle is unknown. The
  /// cancelled callback's captured state is released immediately.
  bool Cancel(EventId id);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Time of the earliest pending event. Requires !empty().
  SimTime PeekTime() const;

  /// Pops and returns the earliest event's (time, fn). Requires !empty().
  std::pair<SimTime, EventFn> Pop();

  // -- Introspection (tests and benches) ---------------------------------
  /// Heap entries including not-yet-swept cancelled ones. Bounded by
  /// ~2x size() via compaction.
  size_t heap_entries() const { return heap_.size(); }
  /// Allocated slab slots (live + free-listed). Bounded by the high
  /// -water mark of concurrently pending events.
  size_t slab_slots() const { return slot_count_; }

 private:
  /// Key layout: (seq << kSlotBits) | slot. Comparing keys compares
  /// seq first — the deterministic tie-break — because seq occupies the
  /// high bits and is globally unique. seq starts at 1, so no valid key
  /// collides with kInvalidEventId; 40 bits of seq allow ~10^12 events
  /// per queue. The slot field's top bit tags lane entries, whose low
  /// bits then hold the lane index instead of a slab slot: ~8M slab
  /// events can be pending at once, in up to ~8M lanes. The tag sits
  /// below seq, so it cannot change the order.
  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kLaneTag = uint64_t{1} << (kSlotBits - 1);
  static constexpr uint64_t kMaxSeq = uint64_t{1} << (64 - kSlotBits);
  /// First slab segment holds 2^kSeg0Bits slots; segment m holds
  /// 2^(kSeg0Bits + m).
  static constexpr uint32_t kSeg0Bits = 6;

  struct alignas(64) Slot {
    /// Key of the current occupant; 0 when vacant. Any older handle
    /// (and heap entry) for this slot mismatches and is stale.
    uint64_t key = 0;
    EventFn fn;
  };
  // One slot per cache line: the slab access in Push/Pop/Cancel costs
  // exactly one line fill.
  static_assert(sizeof(Slot) == 64, "slot must fill one cache line");
  /// Heap entries store the event time as raw IEEE-754 bits: times are
  /// non-negative (Push checks), and for non-negative doubles the bit
  /// pattern orders exactly like the value (+inf = kNeverTime included),
  /// so (time, insertion-seq) lexicographic order — the simulation's
  /// deterministic event order — is one branchless 128-bit integer
  /// compare instead of a float compare plus a mispredict-prone
  /// tie-break branch.
  struct Entry {
    uint64_t when_bits;
    uint64_t key;
  };

  static uint64_t TimeBits(SimTime t) {
    // +0.0 folds a possible -0.0 to +0.0 so the two compare equal in
    // bit order just as they do numerically.
    return std::bit_cast<uint64_t>(t + 0.0);
  }
  static SimTime BitsTime(uint64_t bits) {
    return std::bit_cast<SimTime>(bits);
  }

  static unsigned __int128 Pack(const Entry& e) {
    return (static_cast<unsigned __int128>(e.when_bits) << 64) | e.key;
  }
  static bool Earlier(const Entry& a, const Entry& b) {
    return Pack(a) < Pack(b);
  }

  /// Maps a slot index to its (segment, offset): biasing by the first
  /// segment's size makes the segment index the bit width of the biased
  /// value, a couple of ALU ops plus one extra load off a tiny (and so
  /// always-hot) segment-pointer array.
  Slot& SlotAt(uint32_t slot) {
    const uint32_t j = slot + (1u << kSeg0Bits);
    const uint32_t k = static_cast<uint32_t>(std::bit_width(j)) - 1;
    return segs_[k - kSeg0Bits][j - (1u << k)];
  }
  const Slot& SlotAt(uint32_t slot) const {
    return const_cast<EventQueue*>(this)->SlotAt(slot);
  }

  /// Lane entries are never cancelled, so a tagged entry is live.
  bool EntryLive(const Entry& e) const {
    return (e.key & kLaneTag) != 0 ||
           SlotAt(static_cast<uint32_t>(e.key & kSlotMask)).key == e.key;
  }

  /// One pending lane event; only the FIFO head's entry is in the heap.
  struct LaneItem {
    Entry entry;
    EventFn fn;
  };
  /// Ring buffer of a lane's pending events in push order. Lane events
  /// live here rather than in the slab: they need no handle, and the
  /// FIFO keeps a busy device's completions on a few adjacent lines.
  struct Lane {
    std::vector<LaneItem> ring;  // power-of-two capacity
    uint32_t head = 0;
    uint32_t count = 0;
    uint64_t tail_bits = 0;  // time bits of the newest pending event
  };

  /// Doubles a full lane's ring, unwrapping it to start at 0.
  static void GrowLane(Lane& lane);

  /// Pops the lane head at the root and refills the root from its lane.
  std::pair<SimTime, EventFn> PopLane(const Entry& top);

  /// Appends a fresh segment; existing slots never move.
  void AddSegment();

  // Quaternary-heap primitives over heap_.
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  /// Removes the root, refills it from the back, restores heap order.
  void PopRoot();

  /// Drops cancelled entries from the head of the heap.
  void SkipDead();

  /// Rebuilds the heap without dead entries once they dominate.
  void MaybeCompact();

  /// Releases a slot back to the free list (its handle is now stale).
  void RetireSlot(Slot& s, uint32_t slot);

  std::vector<Entry> heap_;  // 4-ary min-heap, earliest at front
  std::vector<std::unique_ptr<Slot[]>> segs_;
  /// Created on first push, so owners that never push cost nothing.
  std::vector<Lane> lanes_;
  std::vector<uint32_t> free_;
  uint32_t slot_count_ = 0;     // constructed slots across all segments
  uint32_t slot_capacity_ = 0;  // total slots the segments can hold
  uint64_t next_seq_ = 1;
  size_t size_ = 0;          // live (non-cancelled) events
  size_t dead_in_heap_ = 0;  // cancelled entries awaiting sweep/compaction
};

}  // namespace fela::sim

#endif  // FELA_SIM_EVENT_QUEUE_H_
