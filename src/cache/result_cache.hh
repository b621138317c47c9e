/**
 * @file
 * Sharded request-result cache for the serving runtime.
 *
 * A workload score is a pure function of (workload name, model seed,
 * episode seed) — the determinism contract behind
 * Workload::reseedEpisodes — so a completed request's score can be
 * replayed for any later request with the same key without touching a
 * replica. Seed-insensitive workloads (seedSensitive() == false) map
 * every episode seed onto one canonical entry.
 *
 * The cache is byte-bounded, not entry-bounded: each entry is charged
 * an approximate footprint (key bytes + bookkeeping) and shards evict
 * LRU-first when their slice of the budget overflows. Sharding keeps
 * the hot submit() path from serialising on one mutex.
 */

#ifndef NSBENCH_RESULT_CACHE_HH
#define NSBENCH_RESULT_CACHE_HH

#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace nsbench::cache
{

struct ResultCacheOptions {
    /** Total byte budget across all shards. */
    uint64_t maxBytes = 64ull << 20;
    /** Independent LRU shards (keys hash onto one shard). */
    size_t shards = 8;
};

/** Point-in-time counters aggregated over all shards. */
struct ResultCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t bytes = 0;
    uint64_t entries = 0;
};

class ResultCache
{
  public:
    explicit ResultCache(ResultCacheOptions options = {});

    /** Canonical cache key for a request. */
    static std::string keyString(const std::string &workload,
                                 uint64_t model_seed,
                                 uint64_t episode_seed);

    /** Approximate resident footprint charged for one entry. */
    static uint64_t entryCost(const std::string &key);

    /**
     * Looks @p key up, refreshing its recency on a hit.
     * @return true and fills @p score on a hit; false on a miss.
     */
    bool lookup(const std::string &key, double *score);

    /**
     * Inserts (or refreshes) @p key -> @p score, evicting LRU entries
     * from the shard until it fits its byte budget.
     * @return number of entries evicted to make room.
     */
    uint64_t insert(const std::string &key, double score);

    ResultCacheStats stats() const;

    void clear();

  private:
    struct Shard {
        mutable std::mutex mu;
        /** Front = most recently used. */
        std::list<std::pair<std::string, double>> lru;
        std::unordered_map<
            std::string,
            std::list<std::pair<std::string, double>>::iterator>
            index;
        uint64_t bytes = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
    };

    Shard &shardFor(const std::string &key);

    ResultCacheOptions options_;
    uint64_t bytesPerShard_;
    /** deque: Shard holds a mutex and must never move. */
    std::deque<Shard> shards_;
};

} // namespace nsbench::cache

#endif // NSBENCH_RESULT_CACHE_HH
