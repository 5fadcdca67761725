#include "mem/cache.h"

#include <algorithm>

#include "common/bitutils.h"
#include "common/logging.h"

namespace redsoc {

Cache::Cache(CacheConfig config)
    : config_(std::move(config)), line_bytes_(config_.line_bytes)
{
    fatal_if(config_.size_bytes == 0, "zero cache size");
    // Overflow guard: the tag array is materialized, so a corrupt or
    // adversarial size (e.g. a fuzzer knob gone wrong) must fail
    // loudly instead of attempting a multi-terabyte allocation.
    fatal_if(config_.size_bytes > (u64{1} << 32),
             "cache size over 4 GiB: likely an overflowing config");
    fatal_if(!isPowerOfTwo(config_.line_bytes), "line size not pow2");
    fatal_if(config_.assoc == 0, "zero associativity");
    fatal_if(config_.size_bytes % (config_.line_bytes * config_.assoc) != 0,
             "cache size not divisible by way size");
    num_sets_ = static_cast<unsigned>(
        config_.size_bytes / (config_.line_bytes * config_.assoc));
    fatal_if(!isPowerOfTwo(num_sets_), "set count not pow2");
    lines_.resize(u64{num_sets_} * config_.assoc);
}

unsigned
Cache::setOf(Addr addr) const
{
    return static_cast<unsigned>((addr / line_bytes_) & (num_sets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / line_bytes_ / num_sets_;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    const unsigned set = setOf(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < config_.assoc; ++w) {
        Line &line = lines_[u64{set} * config_.assoc + w];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

Cache::AccessResult
Cache::access(Addr addr, bool is_write)
{
    AccessResult result;
    ++stamp_;
    if (Line *line = findLine(addr)) {
        ++hits_;
        result.hit = true;
        line->lru = stamp_;
        line->dirty |= is_write;
        return result;
    }

    ++misses_;
    const unsigned set = setOf(addr);
    Line *victim = nullptr;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        Line &line = lines_[u64{set} * config_.assoc + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lru < victim->lru)
            victim = &line;
    }
    if (victim->valid) {
        result.had_victim = true;
        result.writeback = victim->dirty;
        result.victim_line =
            (victim->tag * num_sets_ + set) * line_bytes_;
    }
    victim->valid = true;
    victim->tag = tagOf(addr);
    victim->dirty = is_write;
    victim->lru = stamp_;
    return result;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

Cache::InsertResult
Cache::insert(Addr addr)
{
    InsertResult result;
    if (findLine(addr))
        return result;
    // Reuse demand-allocation machinery but do not count stats:
    // prefetch fills are not demand accesses.
    const u64 saved_hits = hits_, saved_misses = misses_;
    const AccessResult fill = access(addr, false);
    hits_ = saved_hits;
    misses_ = saved_misses;
    result.allocated = true;
    result.writeback = fill.writeback;
    result.victim_line = fill.victim_line;
    result.had_victim = fill.had_victim;
    return result;
}

bool
Cache::invalidate(Addr addr)
{
    if (Line *line = findLine(addr)) {
        const bool dirty = line->dirty;
        line->valid = false;
        line->dirty = false;
        return dirty;
    }
    return false;
}

void
Cache::resetStats()
{
    hits_ = 0;
    misses_ = 0;
}

void
Cache::reset()
{
    std::fill(lines_.begin(), lines_.end(), Line{});
    stamp_ = 0;
    resetStats();
}

} // namespace redsoc
