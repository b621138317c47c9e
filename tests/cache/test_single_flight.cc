/**
 * @file
 * Single-flight coalescing tests: leader election, follower parking,
 * fan-out on finish, idle-only finish, and flight lifecycle.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/single_flight.hh"

namespace
{

using nsbench::cache::SingleFlight;

using Flight = SingleFlight<int>;

TEST(CacheSingleFlight, FirstJoinLeadsLaterJoinsFollow)
{
    Flight flights;
    EXPECT_EQ(flights.join("k", 1), Flight::Role::Leader);
    EXPECT_EQ(flights.join("k", 2), Flight::Role::Follower);
    EXPECT_EQ(flights.join("k", 3), Flight::Role::Follower);
    EXPECT_EQ(flights.inFlight(), 1u);
}

TEST(CacheSingleFlight, FinishReturnsFollowersInJoinOrder)
{
    Flight flights;
    ASSERT_EQ(flights.join("k", 1), Flight::Role::Leader);
    flights.join("k", 2);
    flights.join("k", 3);

    // The leader's waiter is not parked: only followers fan out.
    std::vector<int> waiters = flights.finish("k");
    ASSERT_EQ(waiters.size(), 2u);
    EXPECT_EQ(waiters[0], 2);
    EXPECT_EQ(waiters[1], 3);
    EXPECT_EQ(flights.inFlight(), 0u);
}

TEST(CacheSingleFlight, FinishOnUnknownKeyIsEmpty)
{
    Flight flights;
    EXPECT_TRUE(flights.finish("nope").empty());
}

TEST(CacheSingleFlight, FinishIfIdleEndsOnlyFollowerlessFlights)
{
    Flight flights;
    ASSERT_EQ(flights.join("lone", 1), Flight::Role::Leader);
    ASSERT_EQ(flights.join("shared", 2), Flight::Role::Leader);
    flights.join("shared", 3);

    // A flight with a parked follower stays open, untouched.
    EXPECT_FALSE(flights.finishIfIdle("shared"));
    EXPECT_TRUE(flights.finishIfIdle("lone"));
    EXPECT_EQ(flights.inFlight(), 1u);
    EXPECT_EQ(flights.finish("shared"), std::vector<int>{3});
    // The ended key starts a fresh flight.
    EXPECT_EQ(flights.join("lone", 4), Flight::Role::Leader);
}

TEST(CacheSingleFlight, KeysFlyIndependently)
{
    Flight flights;
    EXPECT_EQ(flights.join("a", 1), Flight::Role::Leader);
    EXPECT_EQ(flights.join("b", 2), Flight::Role::Leader);
    EXPECT_EQ(flights.join("a", 3), Flight::Role::Follower);
    EXPECT_EQ(flights.inFlight(), 2u);
    EXPECT_EQ(flights.finish("a").size(), 1u);
    EXPECT_EQ(flights.inFlight(), 1u);
    EXPECT_TRUE(flights.finish("b").empty());
}

TEST(CacheSingleFlight, NewFlightStartsAfterFinish)
{
    Flight flights;
    ASSERT_EQ(flights.join("k", 1), Flight::Role::Leader);
    flights.finish("k");
    // The key is free again: the next joiner leads a fresh flight.
    EXPECT_EQ(flights.join("k", 2), Flight::Role::Leader);
}

} // namespace
