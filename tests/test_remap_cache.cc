/**
 * @file
 * Unit tests for the remapping caches and the memory image.
 */

#include <gtest/gtest.h>

#include "mem/memory_image.hh"
#include "pipm/remap_cache.hh"

namespace pipm
{
namespace
{

TEST(RemapCache, MissThenFillThenHit)
{
    RemapCache cache(1024, 4, 4, 8, "rc");
    EXPECT_FALSE(cache.lookup(42));
    cache.fill(42);
    EXPECT_TRUE(cache.lookup(42));
    EXPECT_EQ(cache.hits.value(), 1u);
    EXPECT_EQ(cache.missCount.value(), 1u);
}

TEST(RemapCache, InvalidateForcesRewalk)
{
    RemapCache cache(1024, 4, 4, 8, "rc");
    cache.fill(42);
    cache.invalidate(42);
    EXPECT_FALSE(cache.lookup(42));
}

TEST(RemapCache, CapacityBoundsResidentEntries)
{
    // 64 bytes / 4 B entries = 16 entries.
    RemapCache cache(64, 4, 4, 8, "rc");
    for (PageFrame p = 0; p < 64; ++p) {
        if (!cache.lookup(p))
            cache.fill(p);
    }
    unsigned resident = 0;
    for (PageFrame p = 0; p < 64; ++p)
        resident += cache.lookup(p);
    EXPECT_LE(resident, 16u);
}

TEST(RemapCache, InfiniteModeAlwaysHits)
{
    RemapCache cache(64, 4, 4, 8, "rc", /*infinite=*/true);
    for (PageFrame p = 0; p < 1000; ++p)
        EXPECT_TRUE(cache.lookup(p));
    EXPECT_EQ(cache.missCount.value(), 0u);
}

TEST(RemapCache, DoubleFillIsIdempotent)
{
    RemapCache cache(1024, 4, 4, 8, "rc");
    cache.fill(7);
    cache.fill(7);   // must not panic on duplicate insert
    EXPECT_TRUE(cache.lookup(7));
}

TEST(MemoryImage, PristineIsDeterministicAndVaried)
{
    EXPECT_EQ(MemoryImage::pristine(5), MemoryImage::pristine(5));
    EXPECT_NE(MemoryImage::pristine(5), MemoryImage::pristine(6));
}

TEST(MemoryImage, WriteReadCopy)
{
    MemoryImage mem;
    EXPECT_EQ(mem.read(10), MemoryImage::pristine(10));
    mem.write(10, 0xdead);
    EXPECT_EQ(mem.read(10), 0xdeadu);
    mem.copyLine(10, 20);
    EXPECT_EQ(mem.read(20), 0xdeadu);
    // Copying an untouched line propagates its pristine value.
    mem.copyLine(30, 31);
    EXPECT_EQ(mem.read(31), MemoryImage::pristine(30));
}

TEST(MemoryImage, ValueFreeImageReadsZeroAndDropsWrites)
{
    MemoryImage mem(false);
    EXPECT_FALSE(mem.tracking());
    mem.reserve(1024);
    EXPECT_EQ(mem.read(10), 0u);
    mem.write(10, 0xdead);
    EXPECT_EQ(mem.read(10), 0u);
    mem.copyLine(10, 20);
    EXPECT_EQ(mem.read(20), 0u);
}

} // namespace
} // namespace pipm
