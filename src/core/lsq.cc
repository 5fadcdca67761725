#include "core/lsq.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace redsoc {

Lsq::Lsq(unsigned capacity) : capacity_(capacity)
{
    fatal_if(capacity == 0, "zero-entry LSQ");
    ring_.resize(std::bit_ceil(static_cast<size_t>(capacity)));
    mask_ = ring_.size() - 1;
}

void
Lsq::dispatch(SeqNum seq, bool is_store)
{
    panic_if(full(), "dispatch into full LSQ");
    panic_if(tail_ != head_ && seq <= at(tail_ - 1).seq,
             "out-of-order LSQ dispatch");
    at(tail_++) = Entry{seq, is_store};
    advanceUnresolved();
}

void
Lsq::advanceUnresolved()
{
    // Entries only ever settle (a resolved store stays resolved), so
    // the cursor moves forward monotonically: O(1) amortized per op.
    while (unresolved_ != tail_ &&
           (!at(unresolved_).is_store || at(unresolved_).resolved))
        ++unresolved_;
}

u64
Lsq::lowerBound(SeqNum seq) const
{
    // dispatch() asserts program order, so the live span is sorted by
    // sequence number.
    u64 lo = head_;
    u64 hi = tail_;
    while (lo < hi) {
        const u64 mid = lo + (hi - lo) / 2;
        if (at(mid).seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

Lsq::Entry &
Lsq::find(SeqNum seq, const char *what)
{
    const u64 pos = lowerBound(seq);
    panic_if(pos == tail_ || at(pos).seq != seq, what,
             " of op not in LSQ");
    return at(pos);
}

void
Lsq::resolve(SeqNum seq, Addr addr, unsigned size, Tick complete)
{
    Entry &e = find(seq, "resolve");
    e.resolved = true;
    e.addr = addr;
    e.size = size;
    e.complete = complete;
    advanceUnresolved();
}

void
Lsq::setComplete(SeqNum seq, Tick complete)
{
    find(seq, "setComplete").complete = complete;
}

SeqNum
Lsq::youngestUnresolvedStoreBefore(SeqNum seq) const
{
    // Walk back from the youngest older entry; nothing older than the
    // cursor is unresolved, so the walk stops there.
    for (u64 pos = lowerBound(seq); pos > unresolved_;) {
        const Entry &e = at(--pos);
        if (e.is_store && !e.resolved)
            return e.seq;
    }
    return kNoSeq;
}

std::optional<Lsq::ForwardResult>
Lsq::forwardFrom(SeqNum load_seq, Addr addr, unsigned size) const
{
    panic_if(size == 0 || size > 64,
             "load size outside the byte-mask window");
    // Youngest-older-store first: a younger store's bytes shadow an
    // older store's, so each store contributes only the load bytes
    // still uncovered when the scan reaches it. The load's timing
    // must honor *every* contributing store — waiting only on the
    // youngest overlap would read bytes a still-pending older store
    // owns.
    const u64 all =
        size >= 64 ? ~u64{0} : (u64{1} << size) - 1;
    u64 need = all;
    unsigned contributors = 0;
    bool single_store_covers = false;
    Tick complete = 0;
    for (u64 pos = lowerBound(load_seq); pos > head_ && need != 0;) {
        const Entry &e = at(--pos);
        if (!e.is_store || !e.resolved)
            continue;
        const Addr lo = std::max(e.addr, addr);
        const Addr hi = std::min(e.addr + e.size, addr + size);
        if (lo >= hi)
            continue; // no overlap
        const u64 span = hi - lo;
        const u64 mask =
            (span >= 64 ? ~u64{0} : (u64{1} << span) - 1) << (lo - addr);
        if ((mask & need) == 0)
            continue; // fully shadowed by younger stores
        need &= ~mask;
        ++contributors;
        if (contributors == 1 && mask == all)
            single_store_covers = true;
        complete = std::max(complete, e.complete);
    }
    if (contributors == 0)
        return std::nullopt;
    ForwardResult result;
    result.full_cover = single_store_covers;
    result.partial = !result.full_cover;
    result.store_complete = complete;
    return result;
}

void
Lsq::seqs(std::vector<SeqNum> &out) const
{
    out.clear();
    for (u64 pos = head_; pos != tail_; ++pos)
        out.push_back(at(pos).seq);
}

void
Lsq::commit(SeqNum seq)
{
    panic_if(head_ == tail_ || at(head_).seq != seq,
             "out-of-order LSQ commit");
    ++head_;
    if (unresolved_ < head_)
        unresolved_ = head_; // committed an unresolved store
    advanceUnresolved();
}

} // namespace redsoc
