#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace fela::sim {

namespace {
/// Compaction only engages past this many heap entries: tiny queues are
/// cheaper to sweep lazily than to rebuild.
constexpr size_t kCompactMinEntries = 64;
}  // namespace

void EventQueue::AddSegment() {
  const uint32_t seg_size = 1u << (kSeg0Bits + segs_.size());
  segs_.push_back(std::make_unique<Slot[]>(seg_size));
  slot_capacity_ += seg_size;
}

void EventQueue::SiftUp(size_t i) {
  const Entry e = heap_[i];
  while (i != 0) {
    const size_t parent = (i - 1) >> 2;
    if (!Earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::SiftDown(size_t i) {
  const Entry e = heap_[i];
  const unsigned __int128 ep = Pack(e);
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= n) break;
    const size_t end = std::min(first + 4, n);
    // Branchless argmin over the (up to four) children: packed compares
    // lower to carry-flag arithmetic and conditional moves, avoiding a
    // mispredict-prone branch per child on randomly ordered times.
    size_t best = first;
    unsigned __int128 bp = Pack(heap_[first]);
    for (size_t c = first + 1; c < end; ++c) {
      const unsigned __int128 p = Pack(heap_[c]);
      const bool lt = p < bp;
      best = lt ? c : best;
      bp = lt ? p : bp;
    }
    if (ep <= bp) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::PopRoot() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

EventId EventQueue::Push(SimTime when, EventFn fn) {
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    FELA_CHECK_LT(slot_count_, static_cast<uint32_t>(kLaneTag));
    if (slot_count_ == slot_capacity_) AddSegment();
    slot = slot_count_++;
  }
  FELA_CHECK_LT(next_seq_, kMaxSeq);
  FELA_CHECK_GE(when, 0.0);  // bit-ordered times require non-negative
  const uint64_t key = (next_seq_++ << kSlotBits) | slot;
  Slot& s = SlotAt(slot);
  s.key = key;
  s.fn = std::move(fn);
  heap_.push_back(Entry{TimeBits(when), key});
  SiftUp(heap_.size() - 1);
  ++size_;
  return key;
}

void EventQueue::GrowLane(Lane& lane) {
  const size_t cap = lane.ring.size();
  std::vector<LaneItem> ring(cap == 0 ? 1 : 2 * cap);
  for (uint32_t i = 0; i < lane.count; ++i) {
    ring[i] = std::move(lane.ring[(lane.head + i) & (cap - 1)]);
  }
  lane.ring.swap(ring);
  lane.head = 0;
}

void EventQueue::PushInLane(LaneId& lane, SimTime when, EventFn fn) {
  FELA_CHECK_GE(when, 0.0);  // bit-ordered times require non-negative
  if (lane == kNoLane) {
    FELA_CHECK_LT(lanes_.size(), kLaneTag);
    lanes_.emplace_back();
    lane = static_cast<LaneId>(lanes_.size());
  }
  const uint32_t index = lane - 1;
  Lane& l = lanes_[index];
  const uint64_t bits = TimeBits(when);
  if (l.count != 0 && bits < l.tail_bits) {
    // Out of lane order: the heap orders it against everything else.
    Push(when, std::move(fn));
    return;
  }
  FELA_CHECK_LT(next_seq_, kMaxSeq);
  const Entry e{bits, (next_seq_++ << kSlotBits) | kLaneTag | index};
  if (l.count == l.ring.size()) GrowLane(l);
  LaneItem& item = l.ring[(l.head + l.count) & (l.ring.size() - 1)];
  item.entry = e;
  item.fn = std::move(fn);
  l.tail_bits = bits;
  if (l.count++ == 0) {
    heap_.push_back(e);
    SiftUp(heap_.size() - 1);
  }
  ++size_;
}

bool EventQueue::Cancel(EventId id) {
  const uint64_t slot = id & kSlotMask;
  // A fired or already-cancelled event vacated its slot (and a reused
  // slot carries a fresh sequence number), so a stale handle fails the
  // key match here instead of eating a live event's count. The explicit
  // kInvalidEventId test keeps the null handle from matching a vacant
  // slot 0, whose key is also 0.
  if (id == kInvalidEventId || slot >= slot_count_) return false;
  Slot& s = SlotAt(static_cast<uint32_t>(slot));
  if (s.key != id) return false;
  RetireSlot(s, static_cast<uint32_t>(slot));
  --size_;
  ++dead_in_heap_;
  MaybeCompact();
  return true;
}

void EventQueue::RetireSlot(Slot& s, uint32_t slot) {
  s.key = 0;    // invalidates the handle and any heap entry
  s.fn.Reset(); // release captured state eagerly
  free_.push_back(slot);
}

void EventQueue::SkipDead() {
  while (dead_in_heap_ != 0 && !heap_.empty() && !EntryLive(heap_.front())) {
    PopRoot();
    --dead_in_heap_;
  }
}

void EventQueue::MaybeCompact() {
  if (heap_.size() < kCompactMinEntries || dead_in_heap_ * 2 <= heap_.size()) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !EntryLive(e); }),
              heap_.end());
  // Floyd heap construction: sift down every internal node, deepest
  // first. Internal nodes are 0 .. parent-of-last.
  const size_t n = heap_.size();
  if (n > 1) {
    for (size_t i = (n - 2) / 4 + 1; i-- > 0;) SiftDown(i);
  }
  dead_in_heap_ = 0;
}

SimTime EventQueue::PeekTime() const {
  auto* self = const_cast<EventQueue*>(this);
  self->SkipDead();
  FELA_CHECK(!heap_.empty());
  return BitsTime(heap_.front().when_bits);
}

std::pair<SimTime, EventFn> EventQueue::PopLane(const Entry& top) {
  Lane& l = lanes_[top.key & (kLaneTag - 1)];
  std::pair<SimTime, EventFn> out{BitsTime(top.when_bits),
                                  std::move(l.ring[l.head].fn)};
  l.head = (l.head + 1) & static_cast<uint32_t>(l.ring.size() - 1);
  if (--l.count != 0) {
    // The lane's next event is no earlier than the one it replaces.
    heap_.front() = l.ring[l.head].entry;
    SiftDown(0);
  } else {
    PopRoot();
  }
  --size_;
  return out;
}

std::pair<SimTime, EventFn> EventQueue::Pop() {
  SkipDead();
  FELA_CHECK(!heap_.empty());
  const Entry top = heap_.front();
  if ((top.key & kLaneTag) != 0) return PopLane(top);
  const uint32_t slot = static_cast<uint32_t>(top.key & kSlotMask);
  Slot& s = SlotAt(slot);
  // Pull the slot's cache line in while the sift-down below runs; the
  // slab access pattern is effectively random, so this overlaps the
  // line fill with heap work instead of stalling on it afterwards.
  __builtin_prefetch(&s, /*rw=*/1);
  PopRoot();
  std::pair<SimTime, EventFn> out{BitsTime(top.when_bits), std::move(s.fn)};
  RetireSlot(s, slot);
  --size_;
  return out;
}

}  // namespace fela::sim
