/**
 * @file
 * Single-flight request coalescing.
 *
 * When several requests for the same key are in flight at the same
 * time, only the first (the leader) should execute; the rest
 * (followers) park their completion callbacks here and are fanned the
 * leader's result when it lands. The serve layer routes every request
 * through here, cached or not, so it dedupes across the whole
 * in-flight lifetime of a key.
 */

#ifndef NSBENCH_SINGLE_FLIGHT_HH
#define NSBENCH_SINGLE_FLIGHT_HH

#include <cstddef>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace nsbench::cache
{

/**
 * Tracks in-flight cache keys and parks waiters behind the leader.
 *
 * @tparam Waiter per-request state fanned back on completion (the
 *         serve layer stores the request's callback plus timestamps).
 */
template <typename Waiter> class SingleFlight
{
  public:
    enum class Role { Leader, Follower };

    /**
     * Joins the flight for @p key. The first caller becomes the
     * leader and must eventually call finish(); its @p waiter is NOT
     * stored (the leader delivers its own result). Later callers are
     * followers: their waiters are parked until finish().
     */
    Role
    join(const std::string &key, Waiter waiter)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = flights_.try_emplace(key);
        if (inserted)
            return Role::Leader;
        it->second.push_back(std::move(waiter));
        return Role::Follower;
    }

    /**
     * Ends the flight for @p key, returning every parked follower.
     * The leader calls this exactly once, whether it completed or
     * failed; the caller decides what to deliver to the waiters.
     */
    std::vector<Waiter>
    finish(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = flights_.find(key);
        if (it == flights_.end())
            return {};
        std::vector<Waiter> waiters = std::move(it->second);
        flights_.erase(it);
        return waiters;
    }

    /**
     * Ends the flight for @p key only if no follower is parked on it;
     * returns whether it ended. Lets a leader that will not run drop
     * its flight without racing a follower that is joining.
     */
    bool
    finishIfIdle(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = flights_.find(key);
        if (it == flights_.end())
            return true;
        if (!it->second.empty())
            return false;
        flights_.erase(it);
        return true;
    }

    /** Number of keys currently in flight (for tests). */
    size_t
    inFlight() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return flights_.size();
    }

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::string, std::vector<Waiter>> flights_;
};

} // namespace nsbench::cache

#endif // NSBENCH_SINGLE_FLIGHT_HH
