/**
 * @file
 * Unit tests for the set-associative array and replacement policies.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cache/set_assoc.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace pipm
{
namespace
{

struct Payload
{
    int v = 0;
};

TEST(SetAssoc, InsertThenLookup)
{
    SetAssoc<Payload> cache(4, 2);
    EXPECT_EQ(cache.lookup(10), nullptr);
    EXPECT_FALSE(cache.insert(10, Payload{7}));
    ASSERT_NE(cache.lookup(10), nullptr);
    EXPECT_EQ(cache.lookup(10)->v, 7);
    EXPECT_EQ(cache.occupancy(), 1u);
}

TEST(SetAssoc, LruEvictsLeastRecentlyUsed)
{
    // Single set, 2 ways: the untouched key is the victim.
    SetAssoc<Payload> cache(1, 2);
    cache.insert(1, Payload{1});
    cache.insert(2, Payload{2});
    cache.lookup(1);   // make key 2 the LRU
    auto evicted = cache.insert(3, Payload{3});
    ASSERT_TRUE(evicted);
    EXPECT_EQ(evicted->key, 2u);
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_NE(cache.lookup(3), nullptr);
}

TEST(SetAssoc, InvalidateRemoves)
{
    SetAssoc<Payload> cache(4, 2);
    cache.insert(5, Payload{5});
    auto out = cache.invalidate(5);
    ASSERT_TRUE(out);
    EXPECT_EQ(out->meta.v, 5);
    EXPECT_EQ(cache.lookup(5), nullptr);
    EXPECT_FALSE(cache.invalidate(5));
}

TEST(SetAssoc, ProbeDoesNotTouchReplacementState)
{
    SetAssoc<Payload> cache(1, 2);
    cache.insert(1, Payload{});
    cache.insert(2, Payload{});
    cache.probe(1);   // must NOT refresh key 1
    auto evicted = cache.insert(3, Payload{});
    ASSERT_TRUE(evicted);
    EXPECT_EQ(evicted->key, 1u);
}

TEST(SetAssoc, CapacityNeverExceeded)
{
    SetAssoc<Payload> cache(8, 4);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        if (!cache.probe(k))
            cache.insert(k, Payload{});
    }
    EXPECT_LE(cache.occupancy(), cache.capacity());
    EXPECT_EQ(cache.capacity(), 32u);
}

TEST(SetAssoc, DuplicateInsertPanics)
{
    detail::throwOnError = true;
    SetAssoc<Payload> cache(4, 2);
    cache.insert(9, Payload{});
    EXPECT_THROW(cache.insert(9, Payload{}), SimError);
    detail::throwOnError = false;
}

TEST(SetAssoc, ForEachVisitsAllValidEntries)
{
    SetAssoc<Payload> cache(8, 2);
    for (int k = 0; k < 10; ++k)
        cache.insert(k, Payload{k});
    std::set<std::uint64_t> keys;
    cache.forEach([&keys](const SetAssoc<Payload>::Entry &e) {
        keys.insert(e.key);
    });
    EXPECT_EQ(keys.size(), cache.occupancy());
}

TEST(SetAssoc, FindFromRankRotatesThroughForEachOrder)
{
    // Geometries whose tag strip is a multiple of eight, and ones with
    // a byte-at-a-time tail (3 and 12 ways over one or few sets).
    for (const auto [sets, ways] :
         {std::pair{8u, 2u}, std::pair{16u, 16u}, std::pair{1u, 3u},
          std::pair{4u, 12u}, std::pair{2u, 5u}}) {
        SetAssoc<Payload> cache(sets, ways);
        Rng rng(sets * 100 + ways);
        for (int k = 0; k < 3 * static_cast<int>(sets * ways); ++k) {
            const std::uint64_t key = rng.below(4 * sets * ways);
            if (rng.chance(0.3))
                cache.invalidate(key);
            else
                cache.insertIfAbsent(key, Payload{static_cast<int>(key)});
        }
        std::vector<std::uint64_t> order;
        cache.forEach([&order](const SetAssoc<Payload>::Entry &e) {
            order.push_back(e.key);
        });
        const std::uint64_t n = cache.occupancy();
        ASSERT_EQ(order.size(), n);
        ASSERT_GT(n, 1u);
        for (std::uint64_t r = 0; r < n; ++r) {
            const auto first = cache.findFromRank(
                r, [](const SetAssoc<Payload>::Entry &) { return true; });
            ASSERT_TRUE(first);
            EXPECT_EQ(first->key, order[r]);
            EXPECT_EQ(first->meta.v, static_cast<int>(order[r]));
            // Rejecting the rank-th entry moves to the next one, wrapping
            // past the last slot.
            const auto next = cache.findFromRank(
                r, [&](const SetAssoc<Payload>::Entry &e) {
                    return e.key != order[r];
                });
            ASSERT_TRUE(next);
            EXPECT_EQ(next->key, order[(r + 1) % n]);
            // The rank is taken modulo the occupancy.
            const auto wrapped = cache.findFromRank(
                r + 3 * n,
                [](const SetAssoc<Payload>::Entry &) { return true; });
            ASSERT_TRUE(wrapped);
            EXPECT_EQ(wrapped->key, order[r]);
        }
        EXPECT_FALSE(cache.findFromRank(
            n - 1, [](const SetAssoc<Payload>::Entry &) { return false; }));
        cache.clear();
        EXPECT_FALSE(cache.findFromRank(
            0, [](const SetAssoc<Payload>::Entry &) { return true; }));
    }
}

TEST(SetAssoc, ClearEmptiesEverything)
{
    SetAssoc<Payload> cache(8, 2);
    for (int k = 0; k < 10; ++k)
        cache.insert(k, Payload{});
    cache.clear();
    EXPECT_EQ(cache.occupancy(), 0u);
}

TEST(SetAssoc, WithCapacityRoundsToPowerOfTwoSets)
{
    auto cache = SetAssoc<Payload>::withCapacity(1000, 8);
    // 1000/8 = 125 sets -> rounded down to 64.
    EXPECT_EQ(cache.sets(), 64u);
    EXPECT_EQ(cache.ways(), 8u);
}

TEST(SetAssoc, RandomPolicyStillBoundsOccupancy)
{
    SetAssoc<Payload> cache(4, 4, ReplPolicy::random, 99);
    for (std::uint64_t k = 0; k < 500; ++k) {
        if (!cache.probe(k))
            cache.insert(k, Payload{});
    }
    EXPECT_LE(cache.occupancy(), 16u);
}

TEST(SetAssoc, SrripEvictsSomethingValid)
{
    SetAssoc<Payload> cache(1, 4, ReplPolicy::srrip);
    for (std::uint64_t k = 0; k < 4; ++k)
        cache.insert(k, Payload{});
    auto evicted = cache.insert(100, Payload{});
    ASSERT_TRUE(evicted);
    EXPECT_LT(evicted->key, 4u);
    EXPECT_NE(cache.lookup(100), nullptr);
}

/** forEach and occupancy() agree exactly with a key -> payload model. */
void
expectMatchesModel(const SetAssoc<Payload> &cache,
                   const std::map<std::uint64_t, int> &model)
{
    std::map<std::uint64_t, int> seen;
    cache.forEach([&seen](const SetAssoc<Payload>::Entry &e) {
        EXPECT_TRUE(seen.emplace(e.key, e.meta.v).second)
            << "key " << e.key << " visited twice";
    });
    EXPECT_EQ(seen, model);
    EXPECT_EQ(cache.occupancy(), model.size());
}

TEST(SetAssoc, FillClearRefillMatchesModel)
{
    // Keys and replacement words are left uninitialised until a fill
    // writes them; this drives every policy through fills, evictions,
    // invalidations and a clear-then-refill, in arrays built over heap
    // memory a previous array just dirtied, and checks the resident set
    // against a model after every phase.
    for (ReplPolicy policy :
         {ReplPolicy::lru, ReplPolicy::srrip, ReplPolicy::random}) {
        SCOPED_TRACE(static_cast<int>(policy));
        {
            // Dirty the heap with a same-sized array, then free it.
            auto junk = std::make_unique<SetAssoc<Payload>>(8, 4, policy);
            for (std::uint64_t k = 0; k < 64; ++k)
                junk->insertIfAbsent(~k, Payload{-1});
        }
        SetAssoc<Payload> cache(8, 4, policy, 5);
        std::map<std::uint64_t, int> model;
        Rng rng(17);
        auto fill_some = [&](unsigned n, int tag) {
            for (unsigned i = 0; i < n; ++i) {
                const std::uint64_t key = rng.below(96);
                if (model.count(key))
                    continue;
                const auto ev = cache.insert(key, Payload{tag});
                if (ev) {
                    ASSERT_EQ(model.count(ev->key), 1u);
                    EXPECT_EQ(model[ev->key], ev->meta.v);
                    model.erase(ev->key);
                }
                model[key] = tag;
            }
        };
        fill_some(20, 1);              // partial fill: some sets free
        expectMatchesModel(cache, model);
        fill_some(200, 2);             // full sets: evictions
        expectMatchesModel(cache, model);
        for (std::uint64_t k = 0; k < 96; k += 3) {
            const auto gone = cache.invalidate(k);
            EXPECT_EQ(gone.has_value(), model.erase(k) == 1);
        }
        expectMatchesModel(cache, model);
        cache.clear();
        model.clear();
        expectMatchesModel(cache, model);
        fill_some(200, 3);             // refill after clear
        expectMatchesModel(cache, model);
    }
}

TEST(Replacement, LruVictimIsSmallestStamp)
{
    Replacement repl(ReplPolicy::lru);
    std::vector<ReplWord> words = {5, 2, 9, 3};
    EXPECT_EQ(repl.victim(words), 1u);
}

TEST(Replacement, SrripAgesUntilMax)
{
    Replacement repl(ReplPolicy::srrip);
    std::vector<ReplWord> words = {0, 1, 2, 1};
    const std::size_t v = repl.victim(words);
    EXPECT_EQ(v, 2u);
    // The chosen victim's word must have reached srripMax.
    EXPECT_GE(words[v], srripMax);
}

TEST(Replacement, OnHitRefreshesLru)
{
    Replacement repl(ReplPolicy::lru);
    EXPECT_EQ(repl.onHit(3, 42), 42u);
    EXPECT_EQ(repl.onFill(7), 7u);
}

} // namespace
} // namespace pipm
