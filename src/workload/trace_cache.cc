#include "workload/trace_cache.h"

#include <bit>

namespace grit::workload {

namespace {

/** splitmix64-style avalanche, for combining key fields. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    return h ^ (h >> 31);
}

}  // namespace

std::size_t
TraceCache::KeyHash::operator()(const Key &key) const
{
    std::uint64_t h = static_cast<std::uint64_t>(key.app);
    h = mix(h, key.params.numGpus);
    h = mix(h, key.params.footprintDivisor);
    h = mix(h, key.params.seed);
    h = mix(h, std::bit_cast<std::uint64_t>(key.params.intensity));
    return static_cast<std::size_t>(h);
}

std::size_t
TraceCache::ChunkKeyHash::operator()(const ChunkKey &key) const
{
    std::uint64_t h = KeyHash{}(key.trace);
    h = mix(h, key.gpu);
    h = mix(h, key.chunkAccesses);
    h = mix(h, key.chunk);
    return static_cast<std::size_t>(h);
}

ChunkHandle
TraceCache::fetch(const ChunkKey &key,
                  const std::function<ChunkHandle()> &generate)
{
    std::promise<ChunkHandle> promise;
    std::shared_future<ChunkHandle> slot;
    bool generating = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = chunks_.try_emplace(key);
        if (inserted) {
            it->second.slot = promise.get_future().share();
            generating = true;
        }
        it->second.lastUse = ++tick_;
        slot = it->second.slot;
    }
    if (!generating) {
        hits_.fetch_add(1);
        return slot.get();  // waits while the chunk is in flight
    }

    misses_.fetch_add(1);
    ChunkHandle chunk;
    try {
        chunk = generate();
    } catch (...) {
        // Don't cache the failure: drop the slot so a later request
        // retries, and propagate to everyone waiting on this one.
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = chunks_.find(key);
            if (it != chunks_.end() && !it->second.ready)
                chunks_.erase(it);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        // The slot may already be gone (clear() raced us); only account
        // for it while it is actually cached.
        auto it = chunks_.find(key);
        if (it != chunks_.end() && !it->second.ready) {
            if (chunk == nullptr) {
                chunks_.erase(it);  // past the stream's end: cache nothing
            } else {
                it->second.bytes = chunkBytes(*chunk);
                it->second.ready = true;
                totalBytes_ += it->second.bytes;
                evictLocked(&key);
            }
        }
    }
    promise.set_value(chunk);
    return chunk;
}

void
TraceCache::evictLocked(const ChunkKey *protect)
{
    while (byteBudget_ != 0 && totalBytes_ > byteBudget_) {
        auto victim = chunks_.end();
        for (auto it = chunks_.begin(); it != chunks_.end(); ++it) {
            if (!it->second.ready ||
                (protect != nullptr && it->first == *protect))
                continue;
            if (victim == chunks_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == chunks_.end())
            break;  // nothing evictable (in-flight or protected only)
        totalBytes_ -= victim->second.bytes;
        evictions_.fetch_add(1);
        chunks_.erase(victim);
    }
}

std::vector<std::uint64_t>
TraceCache::accessCounts(const Key &key)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = counts_.find(key);
        if (it != counts_.end())
            return it->second;
    }
    // Counting pass outside the lock: cheap (RNG + arithmetic, no
    // storage) and deterministic, so a racing duplicate is harmless.
    CountingSink sink(key.params.numGpus);
    generateTrace(key.app, key.params, sink);
    std::lock_guard<std::mutex> lock(mu_);
    return counts_.try_emplace(key, sink.counts()).first->second;
}

/**
 * The consumer-side stream handed out by openStream(): fetch each chunk
 * from the shared pool; when this stream is the one to generate it,
 * align a private generator stream to the requested boundary and pull
 * the chunk from there.
 */
class TraceCache::CachedStream : public TraceStream
{
  public:
    CachedStream(TraceCache &cache, const Key &trace, unsigned gpu,
                 std::uint64_t chunk_accesses)
        : cache_(cache),
          trace_(trace),
          gpu_(gpu),
          chunkAccesses_(chunk_accesses)
    {
    }

    ChunkHandle
    next() override
    {
        ChunkHandle chunk =
            cache_.fetch(ChunkKey{trace_, gpu_, chunkAccesses_, pos_},
                         [this] { return pullFromSource(pos_); });
        if (chunk != nullptr)
            ++pos_;
        return chunk;
    }

    void seek(std::uint64_t chunk) override { pos_ = chunk; }

    std::uint64_t chunkAccesses() const override { return chunkAccesses_; }

  private:
    ChunkHandle
    pullFromSource(std::uint64_t chunk)
    {
        if (source_ == nullptr || sourcePos_ > chunk) {
            const Key trace = trace_;
            source_ = std::make_unique<GeneratedTraceStream>(
                [trace](TraceSink &sink) {
                    generateTrace(trace.app, trace.params, sink);
                },
                gpu_, chunkAccesses_, /*max_buffered=*/4,
                /*first_chunk=*/chunk);
            sourcePos_ = chunk;
        } else if (sourcePos_ < chunk) {
            // The gap was served from the pool; fast-forward the
            // generator (forward seek discards, never regenerates).
            source_->seek(chunk);
            sourcePos_ = chunk;
        }
        ChunkHandle c = source_->next();
        if (c != nullptr)
            ++sourcePos_;
        return c;
    }

    TraceCache &cache_;
    Key trace_;
    unsigned gpu_;
    std::uint64_t chunkAccesses_;
    std::uint64_t pos_ = 0;        //!< next chunk to yield
    std::unique_ptr<GeneratedTraceStream> source_;
    std::uint64_t sourcePos_ = 0;  //!< source's next chunk
};

std::unique_ptr<TraceStream>
TraceCache::openStream(AppId app, const WorkloadParams &params,
                       unsigned gpu, std::uint64_t chunk_accesses)
{
    return std::make_unique<CachedStream>(*this, Key{app, params}, gpu,
                                          chunk_accesses);
}

StreamedWorkload
TraceCache::openWorkload(AppId app, const WorkloadParams &params,
                         std::uint64_t chunk_accesses)
{
    StreamedWorkload sw;
    sw.meta = workloadShell(app, params);
    sw.accesses = accessCounts(Key{app, params});
    sw.streams.reserve(params.numGpus);
    for (unsigned g = 0; g < params.numGpus; ++g)
        sw.streams.push_back(openStream(app, params, g, chunk_accesses));
    return sw;
}

void
TraceCache::setByteBudget(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    byteBudget_ = bytes;
    evictLocked(nullptr);  // shrink immediately, protect nothing
}

std::uint64_t
TraceCache::byteBudget() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return byteBudget_;
}

std::uint64_t
TraceCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return totalBytes_;
}

std::size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return chunks_.size();
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    chunks_.clear();
    counts_.clear();
    totalBytes_ = 0;
}

}  // namespace grit::workload
