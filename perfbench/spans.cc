#include "spans.h"

#include <atomic>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<SpanRecorder *> g_active{nullptr};
std::atomic<u64> g_next_id{1};
std::atomic<u64> g_generation{0};

/** The calling thread's buffer in the recorder of generation `gen`
 *  (a generation, not a pointer, so a new recorder at a reused
 *  address never sees a stale buffer). */
struct ThreadSlot
{
    u64 gen = 0;
    void *buffer = nullptr;
};
thread_local ThreadSlot t_slot;

} // namespace

SpanRecorder::SpanRecorder()
    : epoch_(std::chrono::steady_clock::now()),
      generation_(g_generation.fetch_add(1) + 1)
{
    g_active.store(this);
}

SpanRecorder::~SpanRecorder()
{
    g_active.store(nullptr);
}

void
SpanRecorder::pause()
{
    g_active.store(nullptr);
}

void
SpanRecorder::resume()
{
    g_active.store(this);
}

SpanRecorder *
SpanRecorder::active()
{
    return g_active.load(std::memory_order_relaxed);
}

SpanRecorder::Buffer &
SpanRecorder::threadBuffer()
{
    if (t_slot.gen != generation_) {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        t_slot.gen = generation_;
        t_slot.buffer = buffers_.back().get();
    }
    return *static_cast<Buffer *>(t_slot.buffer);
}

std::vector<Span>
SpanRecorder::all() const
{
    std::vector<Span> out;
    for (const auto &buf : buffers_)
        out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    return out;
}

std::map<std::string, SpanTotals>
SpanRecorder::totals() const
{
    const std::vector<Span> spans = all();
    // Children always run on their parent's thread (spans nest through
    // the per-thread open stack), so a parent's covered time is the sum
    // of its direct children's durations.
    std::unordered_map<u64, std::int64_t> child_ns;
    for (const Span &s : spans)
        if (s.parent != 0)
            child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, SpanTotals> out;
    for (const Span &s : spans) {
        SpanTotals &t = out[s.name];
        const std::int64_t dur = s.end_ns - s.start_ns;
        auto it = child_ns.find(s.id);
        const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
        ++t.calls;
        t.total_s += static_cast<double>(dur) * 1e-9;
        t.self_s += static_cast<double>(dur - covered) * 1e-9;
        t.a += s.a;
        t.b += s.b;
        t.c += s.c;
    }
    return out;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (const Span &s : all())
        std::fprintf(f,
                     "{\"id\":%llu,\"parent\":%llu,\"point\":%llu,"
                     "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"a\":%llu,\"b\":%llu,\"c\":%llu}\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.point), s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<unsigned long long>(s.a),
                     static_cast<unsigned long long>(s.b),
                     static_cast<unsigned long long>(s.c));
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char *name, u64 point)
{
    rec_ = SpanRecorder::active();
    if (rec_ == nullptr)
        return;
    buf_ = &rec_->threadBuffer();
    Span s;
    s.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    s.parent = buf_->open.empty() ? 0 : buf_->spans[buf_->open.back()].id;
    s.point = point;
    s.name = name;
    index_ = buf_->spans.size();
    buf_->open.push_back(index_);
    open_ = true;
    s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - rec_->epoch_)
                     .count();
    buf_->spans.push_back(s);
}

ScopedSpan::~ScopedSpan()
{
    finish();
}

void
ScopedSpan::finish()
{
    if (!open_)
        return;
    buf_->spans[index_].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - rec_->epoch_)
            .count();
    buf_->open.pop_back();
    open_ = false;
}

void
ScopedSpan::setCounts(u64 a, u64 b, u64 c)
{
    if (buf_ == nullptr)
        return;
    buf_->spans[index_].a = a;
    buf_->spans[index_].b = b;
    buf_->spans[index_].c = c;
}

} // namespace perfbench
