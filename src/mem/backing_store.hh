/**
 * @file
 * Sparse paged functional memory plus a bump allocator.
 *
 * The backing store holds the architectural contents of simulated
 * memory. Timing is handled entirely by MemSystem; this class is
 * purely functional so the kernels can be checked for correctness
 * against golden references.
 */

#ifndef VIA_MEM_BACKING_STORE_HH
#define VIA_MEM_BACKING_STORE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "simcore/log.hh"
#include "simcore/types.hh"

namespace via
{

class Serializer;
class Deserializer;

/** Byte-addressable sparse memory with typed helpers. */
class BackingStore
{
  public:
    static constexpr std::uint64_t pageBytes = 1 << 16;

    BackingStore() = default;

    /** Raw byte access. */
    void
    read(Addr addr, void *dst, std::size_t bytes) const
    {
        // Fast path for the overwhelmingly common case: a small
        // access inside the most recently touched page.
        std::uint64_t off = addr % pageBytes;
        if (addr / pageBytes == _lastPn && off + bytes <= pageBytes) {
            std::memcpy(dst, _lastPage + off, bytes);
            return;
        }
        readSlow(addr, dst, bytes);
    }

    void
    write(Addr addr, const void *src, std::size_t bytes)
    {
        std::uint64_t off = addr % pageBytes;
        if (addr / pageBytes == _lastPn && off + bytes <= pageBytes) {
            std::memcpy(_lastPage + off, src, bytes);
            return;
        }
        writeSlow(addr, src, bytes);
    }

    /** Typed scalar access for trivially copyable types. */
    template <typename T>
    T
    load(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(Addr addr, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &v, sizeof(T));
    }

    /**
     * Allocate a region of simulated memory.
     *
     * @param bytes region size
     * @param align required alignment (power of two)
     * @return base address of the region
     */
    Addr alloc(std::uint64_t bytes, std::uint64_t align = 64);

    /** Copy a host array into simulated memory; returns its base. */
    template <typename T>
    Addr
    allocArray(const std::vector<T> &host, std::uint64_t align = 64)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        Addr base = alloc(host.size() * sizeof(T), align);
        if (!host.empty())
            write(base, host.data(), host.size() * sizeof(T));
        return base;
    }

    /** Copy a simulated array back out to the host. */
    template <typename T>
    std::vector<T>
    readArray(Addr base, std::size_t count) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<T> out(count);
        if (count)
            read(base, out.data(), count * sizeof(T));
        return out;
    }

    /**
     * Serialize every materialized page and the allocator brk. The
     * brk is part of the architectural state: restoring it makes
     * allocations after the restore land at the same addresses as
     * in the original run, which is what checkpoint bit-identity
     * relies on.
     */
    void saveState(Serializer &ser) const;
    /** Restore state saved by saveState (replaces all pages). */
    void loadState(Deserializer &des);

  private:
    /** First address the allocator hands out (avoid address 0). */
    static constexpr Addr allocBase = 0x10000;

    void readSlow(Addr addr, void *dst, std::size_t bytes) const;
    void writeSlow(Addr addr, const void *src, std::size_t bytes);
    std::uint8_t *pageFor(Addr addr);
    const std::uint8_t *pageForRead(Addr addr) const;

    mutable std::unordered_map<std::uint64_t,
                               std::unique_ptr<std::uint8_t[]>> _pages;
    // Last-page cache: accesses are overwhelmingly local, and the
    // page arrays never move once materialized, so one remembered
    // (page number, pointer) pair skips the hash on the common path.
    mutable std::uint64_t _lastPn = ~std::uint64_t(0);
    mutable std::uint8_t *_lastPage = nullptr;
    Addr _brk = allocBase;
};

} // namespace via

#endif // VIA_MEM_BACKING_STORE_HH
