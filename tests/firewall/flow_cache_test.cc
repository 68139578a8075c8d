#include "firewall/classifier/flow_cache.h"

#include <gtest/gtest.h>

#include "sim/random.h"

namespace barb::firewall {
namespace {

net::FiveTuple tuple(std::uint32_t n) {
  net::FiveTuple t;
  t.src = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(n >> 8),
                           static_cast<std::uint8_t>(n));
  t.dst = net::Ipv4Address(10, 0, 0, 40);
  t.src_port = static_cast<std::uint16_t>(1024 + (n % 50000));
  t.dst_port = 80;
  t.protocol = 6;
  return t;
}

MatchResult verdict(RuleAction action, int index) {
  MatchResult mr;
  mr.action = action;
  mr.matched_index = index;
  mr.rules_traversed = index + 1;
  return mr;
}

TEST(FlowCache, MissThenHit) {
  FlowCache cache(FlowCacheConfig{64, 8});
  MatchResult out;
  EXPECT_FALSE(cache.lookup(tuple(1), &out));
  cache.insert(tuple(1), verdict(RuleAction::kAllow, 3));
  ASSERT_TRUE(cache.lookup(tuple(1), &out));
  EXPECT_EQ(out.action, RuleAction::kAllow);
  EXPECT_EQ(out.matched_index, 3);
  EXPECT_EQ(out.rules_traversed, 4);
  EXPECT_EQ(cache.stats().lookups, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.live_entries(), 1u);
}

TEST(FlowCache, ExactTupleKeying) {
  FlowCache cache(FlowCacheConfig{64, 8});
  cache.insert(tuple(1), verdict(RuleAction::kAllow, 0));
  MatchResult out;
  auto near = tuple(1);
  near.src_port = static_cast<std::uint16_t>(near.src_port + 1);
  EXPECT_FALSE(cache.lookup(near, &out));
  near = tuple(1);
  near.protocol = 17;
  EXPECT_FALSE(cache.lookup(near, &out));
}

TEST(FlowCache, DenyVerdictsAreCachedToo) {
  FlowCache cache(FlowCacheConfig{64, 8});
  cache.insert(tuple(9), verdict(RuleAction::kDeny, 0));
  MatchResult out;
  ASSERT_TRUE(cache.lookup(tuple(9), &out));
  EXPECT_EQ(out.action, RuleAction::kDeny);
}

TEST(FlowCache, GenerationBumpInvalidatesEverything) {
  FlowCache cache(FlowCacheConfig{64, 8});
  for (std::uint32_t i = 0; i < 10; ++i) {
    cache.insert(tuple(i), verdict(RuleAction::kAllow, static_cast<int>(i)));
  }
  EXPECT_EQ(cache.live_entries(), 10u);
  cache.bump_generation();
  EXPECT_EQ(cache.live_entries(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  MatchResult out;
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(cache.lookup(tuple(i), &out));
  }
  EXPECT_EQ(cache.stats().stale_hits, 10u);
  // Re-inserting after the bump works and hits again.
  cache.insert(tuple(3), verdict(RuleAction::kDeny, 1));
  ASSERT_TRUE(cache.lookup(tuple(3), &out));
  EXPECT_EQ(out.action, RuleAction::kDeny);
}

TEST(FlowCache, RefreshExistingKeyKeepsOneEntry) {
  FlowCache cache(FlowCacheConfig{64, 8});
  cache.insert(tuple(5), verdict(RuleAction::kAllow, 1));
  cache.insert(tuple(5), verdict(RuleAction::kDeny, 0));
  EXPECT_EQ(cache.live_entries(), 1u);
  MatchResult out;
  ASSERT_TRUE(cache.lookup(tuple(5), &out));
  EXPECT_EQ(out.action, RuleAction::kDeny);
}

TEST(FlowCache, CapacityRoundsUpToPowerOfTwo) {
  FlowCache cache(FlowCacheConfig{100, 8});
  EXPECT_EQ(cache.capacity(), 128u);
}

TEST(FlowCache, SlotsAllocatedOnFirstInsert) {
  FlowCache cache(FlowCacheConfig{100, 8});
  EXPECT_EQ(cache.memory_bytes(), 0u);
  EXPECT_EQ(cache.capacity(), 128u);
  MatchResult out;
  EXPECT_FALSE(cache.lookup(tuple(1), &out));  // an empty table misses
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.memory_bytes(), 0u);  // lookups never allocate
  cache.insert(tuple(1), verdict(RuleAction::kAllow, 0));
  const std::size_t bytes = cache.memory_bytes();
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(bytes % cache.capacity(), 0u);
  ASSERT_TRUE(cache.lookup(tuple(1), &out));
  for (std::uint32_t i = 2; i < 1000; ++i) cache.insert(tuple(i), verdict(RuleAction::kDeny, 1));
  EXPECT_EQ(cache.memory_bytes(), bytes);  // fixed capacity: never grows
}

TEST(FlowCache, ThrashEvictsButNeverGrows) {
  // A spoofed-source flood in miniature: far more unique tuples than slots.
  FlowCache cache(FlowCacheConfig{64, 8});
  for (std::uint32_t i = 0; i < 4096; ++i) {
    cache.insert(tuple(i), verdict(RuleAction::kDeny, 0));
  }
  EXPECT_LE(cache.live_entries(), cache.capacity());
  EXPECT_GT(cache.stats().evictions, 0u);
  // Every surviving entry still answers with the verdict it was given.
  MatchResult out;
  std::size_t hits = 0;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    if (cache.lookup(tuple(i), &out)) {
      ++hits;
      EXPECT_EQ(out.action, RuleAction::kDeny);
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LE(hits, cache.capacity());
}

TEST(FlowCache, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    FlowCache cache(FlowCacheConfig{32, 4});
    sim::Random rng(42);
    MatchResult out;
    for (int i = 0; i < 2000; ++i) {
      const auto t = tuple(static_cast<std::uint32_t>(rng.uniform(300)));
      if (!cache.lookup(t, &out)) {
        cache.insert(t, verdict(RuleAction::kAllow, 2));
      }
      if (i == 1000) cache.bump_generation();
    }
    return cache.stats();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.stale_hits, b.stale_hits);
  // Sanity: the workload actually exercised hits, misses, and staleness.
  EXPECT_GT(a.hits, 0u);
  EXPECT_GT(a.misses, 0u);
  EXPECT_GT(a.stale_hits, 0u);
}

}  // namespace
}  // namespace barb::firewall
