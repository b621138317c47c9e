/**
 * @file
 * BoundedQueue unit tests: FIFO order, capacity rejection, blocking
 * behaviour, and the close/drain protocol graceful shutdown rests on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serve/queue.hh"

namespace
{

using namespace nsbench;
using serve::BoundedQueue;

TEST(ServeQueue, FifoOrder)
{
    BoundedQueue<int> queue(8);
    for (int i = 0; i < 5; i++)
        EXPECT_TRUE(queue.tryPush(i));
    for (int i = 0; i < 5; i++) {
        auto item = queue.pop();
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(*item, i);
    }
    EXPECT_EQ(queue.size(), 0u);
}

TEST(ServeQueue, TryPushRejectsWhenFull)
{
    BoundedQueue<int> queue(2);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_TRUE(queue.tryPush(2));
    EXPECT_FALSE(queue.tryPush(3));
    EXPECT_EQ(queue.size(), 2u);
    queue.pop();
    EXPECT_TRUE(queue.tryPush(3));
}

TEST(ServeQueue, CloseFailsPushesButDrainsPops)
{
    BoundedQueue<int> queue(8);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_TRUE(queue.tryPush(2));
    queue.close();
    EXPECT_TRUE(queue.closed());
    EXPECT_FALSE(queue.drained());
    EXPECT_FALSE(queue.tryPush(3));
    EXPECT_FALSE(queue.push(3));

    auto first = queue.pop();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, 1);
    auto second = queue.pop();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second, 2);
    EXPECT_TRUE(queue.drained());
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(ServeQueue, CloseWakesBlockedPop)
{
    BoundedQueue<int> queue(4);
    std::atomic<bool> returned{false};
    std::thread consumer([&] {
        auto item = queue.pop();
        EXPECT_FALSE(item.has_value());
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load());
    queue.close();
    consumer.join();
    EXPECT_TRUE(returned.load());
}

TEST(ServeQueue, CloseWakesBlockedPush)
{
    BoundedQueue<int> queue(1);
    EXPECT_TRUE(queue.tryPush(1));
    std::atomic<bool> pushed{true};
    std::thread producer([&] { pushed.store(queue.push(2)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    producer.join();
    EXPECT_FALSE(pushed.load());
}

TEST(ServeQueue, PushUnblocksWhenSpaceFrees)
{
    BoundedQueue<int> queue(1);
    EXPECT_TRUE(queue.tryPush(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] { pushed.store(queue.push(2)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(*queue.pop(), 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(*queue.pop(), 2);
}

TEST(ServeQueue, ConcurrentProducersConsumersDeliverEverything)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 3;
    constexpr int kPerProducer = 500;

    BoundedQueue<int> queue(16);
    std::atomic<long long> sum{0};
    std::atomic<int> received{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; c++)
        consumers.emplace_back([&] {
            while (auto item = queue.pop()) {
                sum.fetch_add(*item);
                received.fetch_add(1);
            }
        });

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; p++)
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; i++)
                EXPECT_TRUE(queue.push(p * kPerProducer + i));
        });
    for (auto &producer : producers)
        producer.join();
    queue.close();
    for (auto &consumer : consumers)
        consumer.join();

    const long long n = kProducers * kPerProducer;
    EXPECT_EQ(received.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
    EXPECT_TRUE(queue.drained());
}

TEST(ServeQueueDeath, RejectsZeroCapacity)
{
    EXPECT_DEATH(BoundedQueue<int> queue(0), "capacity");
}

} // namespace
