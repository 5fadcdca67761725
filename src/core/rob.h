/**
 * @file
 * Reorder buffer: in-order dispatch/commit window bookkeeping.
 * The trace supplies program order and dispatch never skips an op,
 * so the in-flight ops are always one consecutive sequence range
 * [head, tail): the ROB is that range plus its capacity, with no
 * per-entry storage (DESIGN.md §12).
 */

#ifndef REDSOC_CORE_ROB_H
#define REDSOC_CORE_ROB_H

#include <cstddef>

#include "common/logging.h"
#include "common/types.h"

namespace redsoc {

class Rob
{
  public:
    explicit Rob(unsigned capacity) : capacity_(capacity)
    {
        fatal_if(capacity == 0, "zero-entry ROB");
    }

    bool full() const { return size() >= capacity_; }
    bool empty() const { return head_ == tail_; }
    size_t size() const { return static_cast<size_t>(tail_ - head_); }
    unsigned capacity() const { return capacity_; }

    /** Dispatch @p seq: must be tail(), the next program-order op. */
    void push(SeqNum seq)
    {
        panic_if(full(), "push into full ROB");
        panic_if(seq != tail_, "non-consecutive ROB dispatch of ", seq,
                 " (expected ", tail_, ")");
        ++tail_;
    }

    /** Oldest in-flight op. */
    SeqNum head() const
    {
        panic_if(empty(), "head of empty ROB");
        return head_;
    }

    /** One past the youngest in-flight op (the next push). */
    SeqNum tail() const { return tail_; }

    /** Commit the head (must equal @p seq). */
    void pop(SeqNum seq)
    {
        panic_if(empty() || seq != head_, "out-of-order ROB commit");
        ++head_;
    }

    /** Empty the window and restart it at sequence number 0. */
    void reset() { head_ = tail_ = 0; }

  private:
    unsigned capacity_;
    SeqNum head_ = 0;
    SeqNum tail_ = 0;
};

} // namespace redsoc

#endif // REDSOC_CORE_ROB_H
