#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace fela::sim {
namespace {

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(3.0, [&] { order.push_back(3); });
  q.Push(1.0, [&] { order.push_back(1); });
  q.Push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.Pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.Pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, PeekTimeReportsEarliest) {
  EventQueue q;
  q.Push(7.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.0);
}

TEST(EventQueueTest, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  EventId id = q.Push(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelledEventSkippedOnPop) {
  EventQueue q;
  std::vector<int> order;
  q.Push(1.0, [&] { order.push_back(1); });
  EventId id = q.Push(2.0, [&] { order.push_back(2); });
  q.Push(3.0, [&] { order.push_back(3); });
  q.Cancel(id);
  while (!q.empty()) q.Pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(9999));
}

TEST(EventQueueTest, DoubleCancelFails) {
  EventQueue q;
  EventId id = q.Push(1.0, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

// Regression: cancelling an id that already fired used to decrement
// size_ (empty() reported true with events still queued, so a Run()
// loop dropped them) and leak the id in the cancelled set forever. The
// cancel must be rejected and the pending event must stay poppable.
TEST(EventQueueTest, CancelAfterFireFailsAndPreservesPendingEvents) {
  EventQueue q;
  EventId a = q.Push(1.0, [] {});
  bool b_fired = false;
  q.Push(2.0, [&] { b_fired = true; });
  q.Pop().second();  // fires a
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 1u);
  q.Pop().second();
  EXPECT_TRUE(b_fired);
  EXPECT_TRUE(q.empty());
}

// The same corruption repeated: every stale cancel used to eat one live
// event's worth of size_, so a handful of late cancels could zero out
// an arbitrarily full queue.
TEST(EventQueueTest, RepeatedStaleCancelsNeverAffectSize) {
  EventQueue q;
  std::vector<EventId> fired_ids;
  for (int i = 0; i < 4; ++i) fired_ids.push_back(q.Push(1.0, [] {}));
  for (int i = 0; i < 4; ++i) q.Pop().second();
  for (int i = 0; i < 16; ++i) q.Push(2.0, [] {});
  for (EventId id : fired_ids) EXPECT_FALSE(q.Cancel(id));
  EXPECT_EQ(q.size(), 16u);
}

// Slots are recycled through a free list; a handle minted before the
// recycle must not be able to cancel the unrelated event that now
// occupies the same slot (the generation tag makes it stale).
TEST(EventQueueTest, StaleHandleAfterSlotReuseIsRejected) {
  EventQueue q;
  EventId old_id = q.Push(1.0, [] {});
  ASSERT_TRUE(q.Cancel(old_id));  // slot goes back on the free list
  bool fired = false;
  EventId new_id = q.Push(2.0, [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.Cancel(old_id));  // stale generation
  EXPECT_EQ(q.size(), 1u);
  q.Pop().second();
  EXPECT_TRUE(fired);
}

// Pathological churn: a retry timer that is re-armed and cancelled a
// million times (the shape fault-injected token leases produce). Lazy
// deletion alone would grow the heap by one dead entry per cycle;
// compaction must keep both the heap and the slab at O(live events).
TEST(EventQueueTest, FootprintStaysBoundedAcrossPushCancelCycles) {
  EventQueue q;
  // A few long-lived events so compaction has live entries to keep.
  for (int i = 0; i < 8; ++i) q.Push(1e9 + i, [] {});
  for (int i = 0; i < 1'000'000; ++i) {
    EventId id = q.Push(1e6 + i, [] {});
    ASSERT_TRUE(q.Cancel(id));
  }
  EXPECT_EQ(q.size(), 8u);
  // Compaction triggers once dead entries outnumber live ones, so the
  // heap never exceeds ~2x live (plus the small pre-compaction floor).
  EXPECT_LE(q.heap_entries(), 128u);
  // Only one churn event is ever pending at a time, so the slab's
  // high-water mark is live events + 1.
  EXPECT_LE(q.slab_slots(), 16u);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.Pop();
  EXPECT_EQ(q.size(), 0u);
}

// --- FIFO lanes -----------------------------------------------------------

TEST(EventQueueLaneTest, LaneEventsInterleaveWithPlainOnesByTimeThenPush) {
  EventQueue q;
  LaneId a = kNoLane;
  LaneId b = kNoLane;
  std::vector<int> order;
  q.PushInLane(a, 1.0, [&] { order.push_back(0); });
  EXPECT_NE(a, kNoLane);
  q.Push(1.0, [&] { order.push_back(1); });
  q.PushInLane(b, 1.0, [&] { order.push_back(2); });
  EXPECT_NE(b, a);
  q.PushInLane(a, 1.0, [&] { order.push_back(3); });
  q.PushInLane(a, 3.0, [&] { order.push_back(4); });
  q.Push(2.0, [&] { order.push_back(5); });
  q.PushInLane(b, 2.0, [&] { order.push_back(6); });
  EXPECT_EQ(q.size(), 7u);
  // Only the two lane heads and the two plain events are in the heap.
  EXPECT_EQ(q.heap_entries(), 4u);
  EXPECT_EQ(q.slab_slots(), 2u);  // lane events never touch the slab
  while (!q.empty()) q.Pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 5, 6, 4}));
}

TEST(EventQueueLaneTest, OutOfOrderLanePushFallsBackToTheHeap) {
  EventQueue q;
  LaneId lane = kNoLane;
  std::vector<double> fired;
  q.PushInLane(lane, 5.0, [&] { fired.push_back(5.0); });
  q.PushInLane(lane, 7.0, [&] { fired.push_back(7.0); });
  EXPECT_EQ(q.heap_entries(), 1u);
  // Earlier than the lane's newest event: it goes to the heap instead.
  q.PushInLane(lane, 6.0, [&] { fired.push_back(6.0); });
  EXPECT_EQ(q.heap_entries(), 2u);
  q.PushInLane(lane, 7.0, [&] { fired.push_back(7.5); });
  EXPECT_EQ(q.heap_entries(), 2u);
  while (!q.empty()) q.Pop().second();
  EXPECT_EQ(fired, (std::vector<double>{5.0, 6.0, 7.0, 7.5}));
  // A drained lane takes any time again.
  q.PushInLane(lane, 1.0, [] {});
  EXPECT_EQ(q.heap_entries(), 1u);
  EXPECT_DOUBLE_EQ(q.PeekTime(), 1.0);
}

// Differential check of the lane fast path against a plain (time, push
// order) reference queue: random interleavings of Push, PushInLane,
// Cancel (live and stale handles) and Pop over integer times, so ties
// across lanes and plain events are the common case, with out-of-order
// lane pushes that must take the heap fallback and cancel bursts large
// enough to compact the heap. PeekTime and size are checked at every
// step, and the pop sequence must match the reference exactly.
TEST(EventQueueLaneTest, MatchesPlainReferenceQueueUnderRandomOps) {
  constexpr int kLanes = 4;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    common::Rng rng(seed);
    EventQueue q;
    LaneId lanes[kLanes] = {kNoLane, kNoLane, kNoLane, kNoLane};
    double lane_tail[kLanes] = {0.0, 0.0, 0.0, 0.0};
    // (time, push order) -> event number: the reference pop order.
    std::map<std::pair<double, uint64_t>, int> reference;
    std::vector<std::pair<EventId, std::pair<double, uint64_t>>> handles;
    std::vector<EventId> stale;
    uint64_t pushes = 0;
    int next_event = 0;
    int popped = 0;
    int fallbacks = 0;
    int compactions = 0;
    double now = 0.0;
    std::vector<int> got;
    std::vector<int> want;
    const auto record = [&got](int event) {
      return [&got, event] { got.push_back(event); };
    };
    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = rng.UniformInt(100);
      if (op < 30) {
        const int lane = static_cast<int>(rng.UniformInt(kLanes));
        double when = std::max(now, lane_tail[lane]) +
                      static_cast<double>(rng.UniformInt(3));
        if (rng.UniformInt(8) == 0 && lane_tail[lane] > now) {
          when = lane_tail[lane] - 1.0;  // out of lane order
          if (when < now) when = now;
          ++fallbacks;
        }
        lane_tail[lane] = std::max(lane_tail[lane], when);
        q.PushInLane(lanes[lane], when, record(next_event));
        reference[{when, pushes++}] = next_event++;
      } else if (op < 55) {
        const double when = now + static_cast<double>(rng.UniformInt(6));
        const EventId id = q.Push(when, record(next_event));
        handles.push_back({id, {when, pushes}});
        reference[{when, pushes++}] = next_event++;
      } else if (op < 62 && !handles.empty()) {
        const size_t i = static_cast<size_t>(rng.UniformInt(handles.size()));
        const auto [id, key] = handles[i];
        handles[i] = handles.back();
        handles.pop_back();
        const bool live = reference.count(key) != 0;
        const size_t entries_before = q.heap_entries();
        EXPECT_EQ(q.Cancel(id), live);
        if (q.heap_entries() < entries_before) ++compactions;
        reference.erase(key);
        stale.push_back(id);
      } else if (op < 64 && !stale.empty()) {
        EXPECT_FALSE(q.Cancel(stale[rng.UniformInt(stale.size())]));
      } else if (op < 65) {
        // A burst of plain events, almost all cancelled again: dead
        // entries come to outnumber live ones and force a compaction.
        std::vector<EventId> burst;
        for (int k = 0; k < 150; ++k) {
          burst.push_back(q.Push(now + 50.0 + k, [] {}));
          ++pushes;
        }
        for (size_t k = 0; k < burst.size(); ++k) {
          const size_t entries_before = q.heap_entries();
          ASSERT_TRUE(q.Cancel(burst[k]));
          if (q.heap_entries() < entries_before) ++compactions;
        }
      } else if (!reference.empty()) {
        const auto head = reference.begin();
        ASSERT_DOUBLE_EQ(q.PeekTime(), head->first.first);
        auto [when, fn] = q.Pop();
        ASSERT_DOUBLE_EQ(when, head->first.first);
        now = when;
        want.push_back(head->second);
        reference.erase(head);
        fn();
        ++popped;
      }
      ASSERT_EQ(q.size(), reference.size());
      if (!reference.empty()) {
        ASSERT_DOUBLE_EQ(q.PeekTime(), reference.begin()->first.first);
      }
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
    }
    while (!reference.empty()) {
      want.push_back(reference.begin()->second);
      reference.erase(reference.begin());
      q.Pop().second();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_GT(popped, 500);
    EXPECT_GT(fallbacks, 0);
    EXPECT_GT(compactions, 0);
  }
}

}  // namespace
}  // namespace fela::sim
