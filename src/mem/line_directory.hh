/**
 * @file
 * The shared LLC's coherence directory: a flat open-addressed table
 * from line address to the line's sharer set and owner.
 */

#ifndef VIA_MEM_LINE_DIRECTORY_HH
#define VIA_MEM_LINE_DIRECTORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simcore/log.hh"
#include "simcore/types.hh"

namespace via
{

/** Directory entry: which cores cache the line, who owns it. */
struct DirEntry
{
    std::uint32_t sharers = 0; //!< bitmask of caching cores
    int owner = -1;            //!< core with a modified copy
};

/**
 * Line address -> DirEntry, open addressing with linear probing.
 *
 * A default DirEntry (no sharers, no owner) behaves exactly like an
 * absent line wherever the directory is consulted, so a line is
 * never erased: dropping it resets its entry instead. Without
 * erasure there are no tombstones, and the table only grows,
 * doubling before it passes half load. Keys sit inline in the
 * slots, so a lookup is one multiplicative hash and a short probe
 * over adjacent slots, with no allocation outside growth.
 */
class LineDirectory
{
  public:
    explicit LineDirectory(std::size_t initial_slots = 64)
    {
        std::size_t slots = 2;
        while (slots < initial_slots)
            slots *= 2;
        resize(slots);
    }

    /** The entry of @p line_addr, inserting a default one if absent. */
    DirEntry &
    operator[](Addr line_addr)
    {
        std::size_t i = probe(line_addr);
        if (_slots[i].key == line_addr)
            return _slots[i].entry;
        via_assert(line_addr != kEmpty, "directory key is reserved");
        if (2 * (_used + 1) > _slots.size()) {
            resize(2 * _slots.size());
            i = probe(line_addr);
        }
        ++_used;
        _slots[i].key = line_addr;
        return _slots[i].entry;
    }

    /** The entry of @p line_addr, or nullptr if never inserted. */
    DirEntry *
    find(Addr line_addr)
    {
        std::size_t i = probe(line_addr);
        return _slots[i].key == line_addr ? &_slots[i].entry : nullptr;
    }

    /** Lines ever inserted (reset entries included). */
    std::size_t size() const { return _used; }

    /** Slots in the table, a power of two. */
    std::size_t capacity() const { return _slots.size(); }

    /** The slot a probe for @p line_addr starts at (for tests). */
    std::size_t
    homeSlot(Addr line_addr) const
    {
        // Fibonacci hashing: the top bits of the product mix every
        // bit of the address, including the high ones, so line
        // strides spread over the table.
        return std::size_t((line_addr * 0x9E3779B97F4A7C15ull) >>
                           _shift);
    }

  private:
    /** Never a line address: lines are aligned to the line size. */
    static constexpr Addr kEmpty = ~Addr(0);

    struct Slot
    {
        Addr key = kEmpty;
        DirEntry entry;
    };

    /** The slot holding @p line_addr, or the empty one ending the run. */
    std::size_t
    probe(Addr line_addr) const
    {
        const std::size_t mask = _slots.size() - 1;
        std::size_t i = homeSlot(line_addr);
        while (_slots[i].key != line_addr && _slots[i].key != kEmpty)
            i = (i + 1) & mask;
        return i;
    }

    void
    resize(std::size_t slots)
    {
        std::vector<Slot> old(slots);
        old.swap(_slots);
        _shift = 64;
        for (std::size_t s = slots; s > 1; s /= 2)
            --_shift;
        for (const Slot &slot : old)
            if (slot.key != kEmpty)
                _slots[probe(slot.key)] = slot;
    }

    std::vector<Slot> _slots;
    std::size_t _used = 0;
    unsigned _shift = 64; //!< 64 - log2(capacity)
};

} // namespace via

#endif // VIA_MEM_LINE_DIRECTORY_HH
