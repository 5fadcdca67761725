/**
 * @file
 * In-memory span recorder for the benchmark's traced run. A span
 * wraps one call into a layer's public API (name, start, end, the
 * enclosing span, the point it serves, and up to two work counts);
 * spans stay in per-thread buffers until the run ends, when they are
 * aggregated per name and written out as JSON lines.
 *
 * Recording is off unless a SpanRecorder is active, so the untraced
 * end-to-end path pays one branch per boundary.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using u64 = std::uint64_t;

struct Span
{
    u64 id = 0;
    u64 parent = 0; ///< 0 = root
    u64 point = 0;  ///< the point (work item) this span serves
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    u64 a = 0; ///< first work count (ops, accesses, bytes, ...)
    u64 b = 0; ///< second work count (cycles, hits, edges, ...)
    u64 c = 0; ///< third work count
};

/** Per-name totals over a run's spans. */
struct SpanTotals
{
    u64 calls = 0;
    double self_s = 0.0;  ///< duration minus direct children
    double total_s = 0.0; ///< inclusive duration
    u64 a = 0;
    u64 b = 0;
    u64 c = 0;
};

class SpanRecorder
{
  public:
    SpanRecorder();
    ~SpanRecorder();
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** The active recorder, or nullptr when tracing is off. */
    static SpanRecorder *active();

    /** Stop / restart recording (no span may be open across either). */
    void pause();
    void resume();

    /** Aggregate every recorded span by name. Call once all recording
     *  threads have been joined. */
    std::map<std::string, SpanTotals> totals() const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    friend class ScopedSpan;

    /** Spans recorded so far (all threads joined). */
    std::vector<Span> all() const;

    struct Buffer
    {
        std::vector<Span> spans;
        std::vector<size_t> open; ///< indexes of open spans (a stack)
    };
    Buffer &threadBuffer();

    std::chrono::steady_clock::time_point epoch_;
    u64 generation_;
    std::mutex mu_;
    std::vector<std::unique_ptr<Buffer>> buffers_; // guarded by mu_
};

/**
 * RAII span around one layer call. Inert (no clock reads) when no
 * recorder is active. Counts set through setCounts() land on the span.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, u64 point);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void setCounts(u64 a, u64 b = 0, u64 c = 0);

    /** End the span now (counts may still be set afterwards). */
    void finish();

  private:
    SpanRecorder *rec_ = nullptr;
    SpanRecorder::Buffer *buf_ = nullptr;
    size_t index_ = 0;
    bool open_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
