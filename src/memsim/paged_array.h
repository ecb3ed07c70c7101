/**
 * @file
 * Sparse array over a 64-bit key space for the memsim hot paths.
 *
 * Values live in fixed pages of 2^PageBits elements, allocated zeroed
 * on first touch and owned by an ordered directory, so memory grows
 * with the pages actually touched (never with the largest key) and
 * pages can be walked in ascending key order. A direct-mapped table of
 * recently used pages answers almost every lookup with one compare;
 * the directory is searched only when that table misses.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>

namespace sov {

template <typename T, unsigned PageBits>
class PagedArray
{
    static_assert(PageBits > 0 && PageBits < 32);

  public:
    static constexpr std::uint64_t kPageSize = std::uint64_t{1} << PageBits;

    PagedArray() = default;
    PagedArray(const PagedArray &) = delete;
    PagedArray &operator=(const PagedArray &) = delete;

    PagedArray(PagedArray &&other) noexcept
        : recent_(other.recent_), pages_(std::move(other.pages_))
    {
        other.recent_.fill(Slot{});
    }

    PagedArray &
    operator=(PagedArray &&other) noexcept
    {
        if (this != &other) {
            recent_ = other.recent_;
            pages_ = std::move(other.pages_);
            other.recent_.fill(Slot{});
        }
        return *this;
    }

    /** Element @p key; zero until first written. */
    T &
    operator[](std::uint64_t key)
    {
        const std::uint64_t page_no = key >> PageBits;
        Slot &slot = recent_[slotOf(page_no)];
        if (slot.page_no != page_no) [[unlikely]]
            slot = Slot{page_no, page(page_no)};
        return slot.data[key & (kPageSize - 1)];
    }

    /**
     * Call @p fn(values) with the kPageSize values of every allocated
     * page numbered in [@p first_page, @p last_page], in ascending
     * page order.
     */
    template <typename Fn>
    void
    forEachPage(std::uint64_t first_page, std::uint64_t last_page,
                Fn &&fn) const
    {
        for (auto it = pages_.lower_bound(first_page);
             it != pages_.end() && it->first <= last_page; ++it)
            fn(static_cast<const T *>(it->second.get()));
    }

    /** Free every page. */
    void
    clear()
    {
        recent_.fill(Slot{});
        pages_.clear();
    }

  private:
    static constexpr std::size_t kRecentSlots = 1024;

    struct Slot
    {
        /** No page has this number: page numbers are < 2^(64-PageBits). */
        std::uint64_t page_no = ~std::uint64_t{0};
        T *data = nullptr;
    };

    /** Consecutive pages take consecutive slots; keys that differ above
     *  bit 32 (MemTrace's ids) start at different odd offsets, so two
     *  ids' pages rarely evict each other. */
    static std::size_t
    slotOf(std::uint64_t page_no)
    {
        return static_cast<std::size_t>(
            (page_no + (page_no >> (32 - PageBits)) * 0x9E37) &
            (kRecentSlots - 1));
    }

    T *
    page(std::uint64_t page_no)
    {
        std::unique_ptr<T[]> &p = pages_[page_no];
        if (!p)
            p = std::make_unique<T[]>(kPageSize); // value-initialised
        return p.get();
    }

    std::array<Slot, kRecentSlots> recent_{};
    std::map<std::uint64_t, std::unique_ptr<T[]>> pages_;
};

} // namespace sov
