// Tests for the fiber runtime: fibers, the deterministic SPMD scheduler,
// collective-object registry, and mini-HClib finish/async.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/fiber.hpp"
#include "runtime/finish.hpp"
#include "runtime/scheduler.hpp"

namespace {

using ap::rt::DeadlockError;
using ap::rt::Fiber;
using ap::rt::LaunchConfig;

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&x] { x = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> order;
  Fiber f([&order] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(3);
    Fiber::yield();
    order.push_back(5);
  });
  f.resume();
  order.push_back(2);
  f.resume();
  order.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, ExceptionPropagatesToResumer) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ResumeAfterFinishThrows) {
  Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), std::logic_error);
}

TEST(Fiber, CurrentTracksRunningFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* observed = nullptr;
  Fiber f([&observed] { observed = Fiber::current(); });
  f.resume();
  EXPECT_EQ(observed, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, RejectsEmptyEntry) {
  EXPECT_THROW(Fiber(std::function<void()>{}), std::invalid_argument);
}

TEST(Fiber, RejectsTinyStack) {
  EXPECT_THROW(Fiber([] {}, 1024), std::invalid_argument);
}

TEST(Fiber, NestedFibers) {
  std::vector<int> order;
  Fiber outer([&order] {
    order.push_back(1);
    Fiber inner([&order] {
      order.push_back(2);
      Fiber::yield();
      order.push_back(4);
    });
    inner.resume();
    order.push_back(3);
    inner.resume();
    order.push_back(5);
  });
  outer.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Scheduler, RunsEveryPe) {
  LaunchConfig cfg;
  cfg.num_pes = 7;
  std::vector<int> seen(7, 0);
  ap::rt::launch(cfg, [&seen] { seen[static_cast<size_t>(ap::rt::my_pe())]++; });
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 7);
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Scheduler, MyPeOutsideLaunchIsMinusOne) { EXPECT_EQ(ap::rt::my_pe(), -1); }

TEST(Scheduler, NPesInsideLaunch) {
  LaunchConfig cfg;
  cfg.num_pes = 5;
  ap::rt::launch(cfg, [] { EXPECT_EQ(ap::rt::n_pes(), 5); });
}

TEST(Scheduler, RoundRobinIsDeterministic) {
  // Two identical launches must interleave identically. The round-robin
  // interleaving (and the one shared vector every PE appends to) is the
  // fiber backend's; pin it so the suite also passes under
  // ACTORPROF_BACKEND=threads.
  auto trace_of = [] {
    LaunchConfig cfg;
    cfg.num_pes = 4;
    cfg.backend = ap::rt::Backend::fiber;
    std::vector<int> trace;
    ap::rt::launch(cfg, [&trace] {
      for (int i = 0; i < 3; ++i) {
        trace.push_back(ap::rt::my_pe());
        ap::rt::yield();
      }
    });
    return trace;
  };
  EXPECT_EQ(trace_of(), trace_of());
}

TEST(Scheduler, WaitUntilUnblocksWhenPeerActs) {
  LaunchConfig cfg;
  cfg.num_pes = 2;
  int flag = 0;
  std::vector<int> order;
  ap::rt::launch(cfg, [&] {
    if (ap::rt::my_pe() == 0) {
      ap::rt::wait_until([&flag] { return flag == 1; });
      order.push_back(0);
    } else {
      ap::rt::yield();
      flag = 1;
      order.push_back(1);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(Scheduler, DeadlockIsDetected) {
  LaunchConfig cfg;
  cfg.num_pes = 2;
  EXPECT_THROW(
      ap::rt::launch(cfg, [] { ap::rt::wait_until([] { return false; }); }),
      DeadlockError);
}

TEST(Scheduler, PeExceptionPropagates) {
  LaunchConfig cfg;
  cfg.num_pes = 3;
  EXPECT_THROW(ap::rt::launch(cfg,
                              [] {
                                if (ap::rt::my_pe() == 1)
                                  throw std::runtime_error("pe1 failed");
                              }),
               std::runtime_error);
}

TEST(Scheduler, LaunchesCannotNest) {
  LaunchConfig cfg;
  cfg.num_pes = 1;
  EXPECT_THROW(ap::rt::launch(cfg,
                              [&cfg] {
                                ap::rt::launch(cfg, [] {});
                              }),
               std::logic_error);
}

TEST(Scheduler, RejectsBadConfig) {
  LaunchConfig cfg;
  cfg.num_pes = 0;
  EXPECT_THROW(ap::rt::launch(cfg, [] {}), std::invalid_argument);
  cfg.num_pes = 2;
  cfg.pes_per_node = -1;
  EXPECT_THROW(ap::rt::launch(cfg, [] {}), std::invalid_argument);
}

TEST(Scheduler, CollectiveObjectIsShared) {
  LaunchConfig cfg;
  cfg.num_pes = 4;
  std::vector<std::shared_ptr<int>> got(4);
  ap::rt::launch(cfg, [&got] {
    auto obj = ap::rt::collective<int>([] { return std::make_shared<int>(7); });
    got[static_cast<size_t>(ap::rt::my_pe())] = obj;
  });
  for (int i = 1; i < 4; ++i) EXPECT_EQ(got[0].get(), got[static_cast<size_t>(i)].get());
  EXPECT_EQ(*got[0], 7);
}

TEST(Scheduler, CollectiveTypeMismatchThrows) {
  LaunchConfig cfg;
  cfg.num_pes = 2;
  EXPECT_THROW(
      ap::rt::launch(cfg,
                     [] {
                       if (ap::rt::my_pe() == 0) {
                         ap::rt::collective<int>(
                             [] { return std::make_shared<int>(1); });
                       } else {
                         ap::rt::collective<double>(
                             [] { return std::make_shared<double>(1.0); });
                       }
                     }),
      std::logic_error);
}

TEST(Scheduler, ConfigExposesNodeShape) {
  LaunchConfig cfg;
  cfg.num_pes = 8;
  cfg.pes_per_node = 4;
  EXPECT_EQ(cfg.num_nodes(), 2);
  EXPECT_EQ(cfg.effective_pes_per_node(), 4);
  cfg.pes_per_node = 0;
  EXPECT_EQ(cfg.num_nodes(), 1);
  EXPECT_EQ(cfg.effective_pes_per_node(), 8);
}

TEST(Finish, BodyRunsInline) {
  LaunchConfig cfg;
  cfg.num_pes = 2;
  int count = 0;
  ap::rt::launch(cfg, [&count] { ap::hclib::finish([&count] { ++count; }); });
  EXPECT_EQ(count, 2);
}

TEST(Finish, AsyncTasksCompleteBeforeFinishReturns) {
  LaunchConfig cfg;
  cfg.num_pes = 3;
  std::vector<int> done(3, 0);
  ap::rt::launch(cfg, [&done] {
    ap::hclib::finish([&done] {
      for (int i = 0; i < 5; ++i)
        ap::hclib::async(
            [&done] { done[static_cast<size_t>(ap::rt::my_pe())]++; });
    });
    EXPECT_EQ(done[static_cast<size_t>(ap::rt::my_pe())], 5);
  });
}

TEST(Finish, TasksMaySpawnTasks) {
  LaunchConfig cfg;
  cfg.num_pes = 1;
  int depth_reached = 0;
  ap::rt::launch(cfg, [&depth_reached] {
    std::function<void(int)> spawn = [&](int d) {
      if (d == 0) return;
      ap::hclib::async([&, d] {
        depth_reached = std::max(depth_reached, 6 - d + 1);
        spawn(d - 1);
      });
    };
    ap::hclib::finish([&] { spawn(6); });
  });
  EXPECT_EQ(depth_reached, 6);
}

TEST(Finish, PumpRunsUntilComplete) {
  LaunchConfig cfg;
  cfg.num_pes = 1;
  int pump_calls = 0;
  ap::rt::launch(cfg, [&pump_calls] {
    ap::hclib::finish([&pump_calls] {
      ap::hclib::FinishScope::current()->register_pump([&pump_calls] {
        ++pump_calls;
        return pump_calls >= 4;
      });
    });
  });
  EXPECT_EQ(pump_calls, 4);
}

TEST(Finish, AsyncOutsideFinishThrows) {
  LaunchConfig cfg;
  cfg.num_pes = 1;
  EXPECT_THROW(ap::rt::launch(cfg, [] { ap::hclib::async([] {}); }),
               std::logic_error);
}

TEST(Finish, NestedFinishScopes) {
  LaunchConfig cfg;
  cfg.num_pes = 1;
  std::vector<int> order;
  ap::rt::launch(cfg, [&order] {
    ap::hclib::finish([&order] {
      ap::hclib::async([&order] { order.push_back(2); });
      ap::hclib::finish([&order] {
        ap::hclib::async([&order] { order.push_back(1); });
      });
      // Inner finish already drained its own task.
      EXPECT_EQ(order.size(), 1u);
    });
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

class SchedulerPeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerPeSweep, BarrierStyleHandshakeAcrossPeCounts) {
  const int n = GetParam();
  LaunchConfig cfg;
  cfg.num_pes = n;
  // A naive counting barrier built on the primitives; exercises blocking
  // and wakeup across many PEs.
  int arrived = 0;
  std::uint64_t gen = 0;
  int passed = 0;
  ap::rt::launch(cfg, [&] {
    for (int round = 0; round < 3; ++round) {
      const std::uint64_t g = gen;
      if (++arrived == n) {
        arrived = 0;
        ++gen;
      } else {
        ap::rt::wait_until([&gen, g] { return gen != g; });
      }
      ++passed;
    }
  });
  EXPECT_EQ(passed, 3 * n);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, SchedulerPeSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32, 64));

// ------------------------------------------------- barrier deactivation

TEST(Barrier, SenseDeactivateCompletesOpenRound) {
  ap::rt::SenseBarrier b(4);
  const auto t0 = b.arrive(0);
  const auto t1 = b.arrive(1);
  const auto t2 = b.arrive(2);
  EXPECT_FALSE(b.passed(t0));
  b.deactivate(3);  // last holdout dies: round completes on its behalf
  EXPECT_TRUE(b.passed(t0) && b.passed(t1) && b.passed(t2));
  EXPECT_EQ(b.participants(), 3);
  // Later rounds run over the shrunken set.
  (void)b.arrive(0);
  (void)b.arrive(1);
  const auto t = b.arrive(2);
  EXPECT_TRUE(b.passed(t));
}

TEST(Barrier, SenseDeactivateWithNoArrivalsLeavesRoundOpen) {
  ap::rt::SenseBarrier b(3);
  b.deactivate(2);
  const auto t = b.arrive(0);
  EXPECT_FALSE(b.passed(t));
  (void)b.arrive(1);
  EXPECT_TRUE(b.passed(t));
}

TEST(Barrier, TreeDeactivateLastHoldoutCompletesRound) {
  // 40 participants, fan-in 4: a three-level tree. Every PE but 17
  // arrives; deactivating 17 must complete its leaf and climb to the
  // root like the last arriver would.
  ap::rt::TreeBarrier b(40);
  std::vector<std::uint64_t> tickets;
  for (int pe = 0; pe < 40; ++pe)
    if (pe != 17) tickets.push_back(b.arrive(pe));
  for (const auto t : tickets) EXPECT_FALSE(b.passed(t));
  b.deactivate(17);
  for (const auto t : tickets) EXPECT_TRUE(b.passed(t));
  EXPECT_EQ(b.participants(), 39);
}

TEST(Barrier, TreeDeactivateBeforeArrivalsShrinksLaterRounds) {
  ap::rt::TreeBarrier b(40);
  b.deactivate(17);
  std::uint64_t last = 0;
  for (int pe = 0; pe < 40; ++pe)
    if (pe != 17) last = b.arrive(pe);
  EXPECT_TRUE(b.passed(last));
}

TEST(Barrier, TreeDeactivateWholeLeafSubtreePrunesIt) {
  // Kill PEs 16..19 — an entire fan-in-4 leaf. The empty leaf must be
  // pruned from its parent's expected count across any mix of kill
  // orderings and open arrivals.
  ap::rt::TreeBarrier b(40);
  std::vector<std::uint64_t> tickets;
  for (int pe = 0; pe < 16; ++pe) tickets.push_back(b.arrive(pe));
  b.deactivate(16);
  b.deactivate(17);
  b.deactivate(18);
  b.deactivate(19);
  for (const auto t : tickets) EXPECT_FALSE(b.passed(t));
  for (int pe = 20; pe < 40; ++pe) tickets.push_back(b.arrive(pe));
  for (const auto t : tickets) EXPECT_TRUE(b.passed(t));
  // Two more rounds over the 36 survivors still complete.
  for (int round = 0; round < 2; ++round) {
    std::uint64_t last = 0;
    for (int pe = 0; pe < 40; ++pe)
      if (pe < 16 || pe >= 20) last = b.arrive(pe);
    EXPECT_TRUE(b.passed(last));
  }
}

TEST(Barrier, TreeDeactivateDownToOneParticipant) {
  ap::rt::TreeBarrier b(33);
  for (int pe = 1; pe < 33; ++pe) b.deactivate(pe);
  EXPECT_EQ(b.participants(), 1);
  const auto t = b.arrive(0);
  EXPECT_TRUE(b.passed(t));
  EXPECT_TRUE(b.passed(b.arrive(0)));
}

}  // namespace
