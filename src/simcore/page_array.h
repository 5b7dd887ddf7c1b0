/**
 * @file
 * Dense per-page storage: the one container behind the simulator's
 * page-keyed state (mem::PageTable, uvm::ReplicaDirectory,
 * core::PaTable, uvm::FaultCoalescer, the GPU's L1 holder filters,
 * mem::AccessCounterTable and mem::DramManager's LRU links) and its
 * region-keyed huge-page state (mem::RegionTracker, the GPU's huge
 * mappings, mem::DramManager's regions).
 *
 * Workload regions are allocated from page 0 upwards, so page ids are
 * small, dense integers and a page's slot is found by indexing, not
 * hashing: one bounds check, one chunk pointer and one bit test.
 *
 *  - *Lazy.* Nothing is allocated until a page is written; a chunk of
 *    kChunkSize slots appears on the first write inside it and the
 *    chunk directory grows on demand. Reads of never-written pages
 *    allocate nothing.
 *  - *Pointer-stable.* Chunks never move, so find()/operator[]
 *    pointers stay valid across later writes and erases of other
 *    pages.
 *  - *Ordered.* Iteration visits live pages in ascending page order,
 *    so audits and exports are reproducible and independent of the
 *    order the pages were written in.
 *
 * Erase resets the slot to a default value (releasing memory a value
 * owns) but keeps its chunk: churn reuses the same slots. clear()
 * releases everything.
 */

#ifndef GRIT_SIMCORE_PAGE_ARRAY_H_
#define GRIT_SIMCORE_PAGE_ARRAY_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simcore/sim_error.h"
#include "simcore/types.h"

namespace grit::sim {

/** Chunked page-indexed array: a live bit per slot, a count per chunk. */
template <typename T>
class PageArray
{
  public:
    /** Slots per chunk (power of two). */
    static constexpr unsigned kChunkShift = 9;
    static constexpr std::uint64_t kChunkSize = std::uint64_t{1}
                                                << kChunkShift;
    /**
     * Largest page id + 1 a write may use: 2^32 pages (16 TiB of 4 KB
     * pages), which bounds the chunk directory at 64 MiB. Reads beyond
     * it are simply absent.
     */
    static constexpr std::uint64_t kMaxPages = std::uint64_t{1} << 32;

    /** What iteration yields: the page and a view of its value. */
    struct Entry
    {
        PageId first;
        const T &second;
    };

    /** Live pages. O(1). */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Value of @p page; nullptr when the page is not live. */
    const T *find(PageId page) const { return slotOf(page); }
    T *find(PageId page) { return slotOf(page); }

    bool contains(PageId page) const { return find(page) != nullptr; }

    /** @p page's value, default-constructed (and live) on first use. */
    T &
    operator[](PageId page)
    {
        Chunk &chunk = obtainChunk(page);
        const std::uint64_t slot = page & kSlotMask;
        if (!chunk.live(slot)) {
            chunk.setLive(slot, true);
            ++chunk.count;
            ++size_;
        }
        return chunk.values[slot];
    }

    /** Make @p page absent. @return true when it was live. */
    bool
    erase(PageId page)
    {
        Chunk *chunk = chunkOf(page);
        const std::uint64_t slot = page & kSlotMask;
        if (chunk == nullptr || !chunk->live(slot))
            return false;
        chunk->values[slot] = T{};
        chunk->setLive(slot, false);
        --chunk->count;
        --size_;
        return true;
    }

    /** Chunks allocated so far (memory accounting and tests). */
    std::size_t
    chunkCount() const
    {
        std::size_t n = 0;
        for (const auto &chunk : chunks_)
            n += chunk != nullptr;
        return n;
    }

    /** Drop every page and all storage. */
    void
    clear()
    {
        chunks_.clear();
        size_ = 0;
    }

    /** Const forward iterator over live pages in ascending order. */
    class const_iterator
    {
      public:
        const_iterator(const PageArray *array, PageId page)
            : array_(array), page_(page)
        {
            settle();
        }

        Entry
        operator*() const
        {
            return Entry{page_, array_->chunks_[page_ >> kChunkShift]
                                    ->values[page_ & kSlotMask]};
        }

        const_iterator &
        operator++()
        {
            ++page_;
            settle();
            return *this;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return page_ == other.page_;
        }

      private:
        /** Advance to the first live page at or after page_. */
        void
        settle()
        {
            const PageId end = array_->endPage();
            while (page_ < end) {
                const Chunk *chunk =
                    array_->chunks_[page_ >> kChunkShift].get();
                if (chunk == nullptr || chunk->count == 0) {
                    page_ = ((page_ >> kChunkShift) + 1) << kChunkShift;
                    continue;
                }
                const std::uint64_t slot = page_ & kSlotMask;
                const std::uint64_t word =
                    chunk->liveBits[slot >> 6] >> (slot & 63);
                if (word != 0) {
                    page_ += static_cast<PageId>(std::countr_zero(word));
                    return;
                }
                page_ = (page_ | 63) + 1;
            }
            page_ = end;
        }

        const PageArray *array_;
        PageId page_;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, endPage()); }

  private:
    static constexpr std::uint64_t kSlotMask = kChunkSize - 1;

    struct Chunk
    {
        std::array<T, kChunkSize> values{};
        std::array<std::uint64_t, kChunkSize / 64> liveBits{};
        std::uint32_t count = 0;

        bool
        live(std::uint64_t slot) const
        {
            return (liveBits[slot >> 6] >> (slot & 63)) & 1;
        }

        void
        setLive(std::uint64_t slot, bool on)
        {
            const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
            if (on)
                liveBits[slot >> 6] |= bit;
            else
                liveBits[slot >> 6] &= ~bit;
        }
    };

    PageId endPage() const { return chunks_.size() << kChunkShift; }

    Chunk *
    chunkOf(PageId page) const
    {
        const std::uint64_t c = page >> kChunkShift;
        return c < chunks_.size() ? chunks_[c].get() : nullptr;
    }

    /** Live value of @p page, or nullptr. */
    T *
    slotOf(PageId page) const
    {
        Chunk *chunk = chunkOf(page);
        if (chunk == nullptr)
            return nullptr;
        const std::uint64_t slot = page & kSlotMask;
        return chunk->live(slot) ? &chunk->values[slot] : nullptr;
    }

    Chunk &
    obtainChunk(PageId page)
    {
        const std::uint64_t c = page >> kChunkShift;
        if (c >= chunks_.size()) {
            if (page >= kMaxPages)
                throw SimException(ErrorCode::kInternal,
                                   "page id beyond the dense page range",
                                   "page " + std::to_string(page));
            chunks_.resize(c + 1);
        }
        std::unique_ptr<Chunk> &chunk = chunks_[c];
        if (!chunk)
            chunk = std::make_unique<Chunk>();
        return *chunk;
    }

    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::size_t size_ = 0;
};

}  // namespace grit::sim

#endif  // GRIT_SIMCORE_PAGE_ARRAY_H_
