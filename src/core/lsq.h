/**
 * @file
 * Unified load/store queue: occupancy, conservative load ordering
 * (loads issue only after all older store addresses are resolved)
 * and store-to-load forwarding.
 *
 * The LSQ holds exactly the in-flight window's memory ops in program
 * order, allocated at dispatch and released at commit, so it is a
 * fixed power-of-two ring of entries indexed by absolute queue
 * position: no per-dispatch allocation, and sequence-number lookups
 * are a binary search over the sorted live span. An amortized cursor
 * tracks the oldest unresolved store, which makes the load-ordering
 * gate (olderStoreUnresolved) O(1).
 */

#ifndef REDSOC_CORE_LSQ_H
#define REDSOC_CORE_LSQ_H

#include <optional>
#include <vector>

#include "common/types.h"

namespace redsoc {

class Lsq
{
  public:
    explicit Lsq(unsigned capacity);

    bool full() const { return size() >= capacity_; }
    size_t size() const { return static_cast<size_t>(tail_ - head_); }

    /** Allocate an entry at dispatch (program order). */
    void dispatch(SeqNum seq, bool is_store);

    /** Record the resolved address/size at issue. */
    void resolve(SeqNum seq, Addr addr, unsigned size, Tick complete);

    /** Update a resolved entry's completion time. */
    void setComplete(SeqNum seq, Tick complete);

    /**
     * True if any store older than @p seq has an unresolved address
     * (the conservative ordering gate for load issue). O(1): only the
     * oldest unresolved store can decide it.
     */
    bool olderStoreUnresolved(SeqNum seq) const
    {
        return unresolved_ != tail_ && at(unresolved_).seq < seq;
    }

    /**
     * The youngest store older than @p seq whose address is still
     * unresolved, or kNoSeq when none. The event kernel parks a
     * blocked load on one concrete blocker and re-evaluates only
     * when *that* store resolves (re-parking if another older store
     * is still pending), instead of re-checking every parked load on
     * every store issue.
     */
    SeqNum youngestUnresolvedStoreBefore(SeqNum seq) const;

    struct ForwardResult
    {
        bool full_cover = false; ///< one store sources every byte
        bool partial = false;    ///< overlap without single-store cover
        /** Max completion over every *contributing* store (a store
         *  contributes only the load bytes no younger store covers). */
        Tick store_complete = 0;
    };

    /**
     * Byte-accurate store-to-load forwarding query over the resolved
     * older stores, youngest first (DESIGN.md §11.4):
     *
     *  - a store contributes only the load bytes not covered by a
     *    younger store; a fully shadowed store has no timing effect;
     *  - full_cover: exactly one store contributes and it covers the
     *    whole load — its data can be forwarded;
     *  - partial: any other overlap (one partial store, or several
     *    stores jointly sourcing the load). The load must wait for
     *    every contributing store (store_complete is their max) and
     *    then read the cache.
     *
     * Empty result if no older resolved store overlaps the load.
     */
    std::optional<ForwardResult>
    forwardFrom(SeqNum load_seq, Addr addr, unsigned size) const;

    /** Sequence numbers in queue (program) order, into @p out
     *  (cleared first): invariant audit / tests. */
    void seqs(std::vector<SeqNum> &out) const;

    /** Release the entry at commit. */
    void commit(SeqNum seq);

    /** Drop every entry (per-run reset). */
    void reset() { head_ = tail_ = unresolved_ = forwards_ = 0; }

    u64 forwards() const { return forwards_; }
    void noteForward() { ++forwards_; }

  private:
    struct Entry
    {
        SeqNum seq;
        bool is_store;
        bool resolved = false;
        Addr addr = 0;
        unsigned size = 0;
        Tick complete = 0;
    };

    /** The entry at absolute queue position @p pos. */
    Entry &at(u64 pos) { return ring_[pos & mask_]; }
    const Entry &at(u64 pos) const { return ring_[pos & mask_]; }

    /** First live position whose seq is >= @p seq (tail_ if none). */
    u64 lowerBound(SeqNum seq) const;
    /** The live entry holding @p seq; panics naming @p what if absent. */
    Entry &find(SeqNum seq, const char *what);
    /** Move the unresolved-store cursor past settled entries. */
    void advanceUnresolved();

    unsigned capacity_;
    std::vector<Entry> ring_; ///< power-of-two ring, program order
    u64 mask_;                ///< ring_.size() - 1
    u64 head_ = 0;            ///< absolute position of the oldest entry
    u64 tail_ = 0;            ///< one past the youngest entry
    /** Position of the oldest unresolved store, or tail_ when none:
     *  every entry in [head_, unresolved_) is a load or resolved. */
    u64 unresolved_ = 0;
    u64 forwards_ = 0;
};

} // namespace redsoc

#endif // REDSOC_CORE_LSQ_H
