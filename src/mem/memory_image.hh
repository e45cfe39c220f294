/**
 * @file
 * Functional memory image: the authoritative data value of every memory
 * line (local DRAM frames and the CXL pool).
 *
 * Each line holds a 64-bit token. Untouched lines read as a deterministic
 * hash of their address, so data-value checks in integration tests are
 * meaningful even for lines never written. The image is sparse: only
 * written lines are stored.
 *
 * An image built with `track = false` is the value-free image of a
 * timing-only run (DESIGN.md §9, "Value plane"): every line reads as 0
 * and writes, copies and reservations are dropped. Only fault recovery
 * compares values (a line is synced home or counted lost when they
 * differ), and a fault-enabled run always tracks, so a value-free run
 * is cycle-identical to a tracking one; only the values themselves are
 * gone.
 */

#ifndef PIPM_MEM_MEMORY_IMAGE_HH
#define PIPM_MEM_MEMORY_IMAGE_HH

#include <cstdint>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace pipm
{

/** Sparse map from line address to data token. */
class MemoryImage
{
  public:
    explicit MemoryImage(bool track = true) : track_(track) {}

    /** Whether this image holds values (false: value-free). */
    bool tracking() const { return track_; }

    /** The value a never-written line reads as. */
    static std::uint64_t
    pristine(LineAddr line)
    {
        std::uint64_t z = line + 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t
    read(LineAddr line) const
    {
        if (!track_)
            return 0;
        auto it = data_.find(line);
        return it == data_.end() ? pristine(line) : it->second;
    }

    void
    write(LineAddr line, std::uint64_t value)
    {
        if (track_)
            data_[line] = value;
    }

    /** Copy one line's value to another location (page migration). */
    void
    copyLine(LineAddr from, LineAddr to)
    {
        if (track_)
            data_[to] = read(from);
    }

    /** Pre-size for an expected written-line count (avoids rehash churn). */
    void
    reserve(std::uint64_t lines)
    {
        if (track_)
            data_.reserve(lines);
    }

  private:
    bool track_;
    FlatMap<LineAddr, std::uint64_t> data_;
};

} // namespace pipm

#endif // PIPM_MEM_MEMORY_IMAGE_HH
