// Tests for HClib-Actor: Selector semantics, FA-BSP interleaving, the
// finish integration, dependent-mailbox chaining, and the observer seam.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <numeric>
#include <vector>

#include "actor/selector.hpp"
#include "papi/papi.hpp"
#include "runtime/finish.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/shmem.hpp"

namespace {

namespace shmem = ap::shmem;
namespace actor = ap::actor;
using ap::rt::LaunchConfig;

LaunchConfig cfg_of(int pes, int ppn = 0) {
  LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  cfg.symm_heap_bytes = 16 << 20;
  return cfg;
}

/// The paper's Listing 1/2 actor: increments slots of a local array.
class IncrementActor : public actor::Actor<std::int64_t> {
 public:
  explicit IncrementActor(std::vector<std::int64_t>* larray)
      : larray_(larray) {
    mb[0].process = [this](std::int64_t idx, int sender_rank) {
      (void)sender_rank;
      (*larray_)[static_cast<std::size_t>(idx)] += 1;  // no atomics needed
    };
  }

 private:
  std::vector<std::int64_t>* larray_;
};

TEST(Selector, Listing1HistogramPattern) {
  shmem::run(cfg_of(4, 4), [] {
    const int n = shmem::n_pes();
    const int me = shmem::my_pe();
    const std::int64_t kSends = 200;
    std::vector<std::int64_t> larray(8, 0);
    auto actor_ptr = std::make_unique<IncrementActor>(&larray);

    ap::hclib::finish([&] {
      actor_ptr->start();
      for (std::int64_t i = 0; i < kSends; ++i) {
        const int dst = static_cast<int>((me + i) % n);
        actor_ptr->send(i % 8, dst);
      }
      actor_ptr->done(0);
    });

    // Every PE receives exactly kSends increments in total (the send
    // pattern above is a permutation across PEs per round).
    const std::int64_t local =
        std::accumulate(larray.begin(), larray.end(), std::int64_t{0});
    EXPECT_EQ(local, kSends);
    EXPECT_EQ(shmem::sum_reduce(local), kSends * n);
  });
}

TEST(Selector, MessagesCarrySenderRank) {
  shmem::run(cfg_of(3, 3), [] {
    std::vector<int> senders;
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [&senders](std::int64_t msg, int sender) {
      EXPECT_EQ(msg, sender * 10);
      senders.push_back(sender);
    };
    ap::hclib::finish([&] {
      a.start();
      const std::int64_t msg = shmem::my_pe() * 10;
      for (int d = 0; d < shmem::n_pes(); ++d) a.send(msg, d);
      a.done(0);
    });
    EXPECT_EQ(senders.size(), 3u);
  });
}

TEST(Selector, HandledCountsPerMailbox) {
  shmem::run(cfg_of(2, 2), [] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 50; ++i) a.send(1, 1 - shmem::my_pe());
      a.done(0);
    });
    EXPECT_EQ(a.handled(0), 50u);
  });
}

TEST(Selector, TwoMailboxRequestReply) {
  // mb0 carries requests; handlers reply on mb1. Termination relies on the
  // dependent-mailbox chaining (done(1) fires when mb0 terminates).
  shmem::run(cfg_of(4, 2), [] {
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    std::int64_t replies = 0;

    class ReqRep : public actor::Selector<2, std::int64_t> {
     public:
      ReqRep(std::int64_t* replies) {
        mb[0].process = [this](std::int64_t v, int sender) {
          send(1, v * 2, sender);  // reply with the doubled value
        };
        mb[1].process = [replies](std::int64_t v, int) {
          *replies += v;
        };
      }
    };

    ReqRep sel(&replies);
    ap::hclib::finish([&] {
      sel.start();
      for (int d = 0; d < n; ++d)
        sel.send(0, me * 100 + d, d);
      sel.done(0);
      // NOTE: no done(1) — chaining must trigger it.
    });

    std::int64_t expect = 0;
    for (int d = 0; d < n; ++d) expect += 2 * (me * 100 + d);
    EXPECT_EQ(replies, expect);
    EXPECT_TRUE(sel.terminated());
  });
}

TEST(Selector, HandlersRunOneAtATimeNoAtomicsNeeded) {
  // Many PEs hammer one counter slot on PE0; without single-threaded
  // handler execution this would lose updates.
  shmem::run(cfg_of(8, 4), [] {
    std::int64_t counter = 0;
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [&counter](std::int64_t v, int) { counter += v; };
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 300; ++i) a.send(1, 0);
      a.done(0);
    });
    shmem::barrier_all();
    if (shmem::my_pe() == 0) {
      EXPECT_EQ(counter, 8 * 300);
    } else {
      EXPECT_EQ(counter, 0);
    }
  });
}

TEST(Selector, SendBeforeStartThrows) {
  shmem::run(cfg_of(2, 2), [] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    EXPECT_THROW(a.send(1, 0), std::logic_error);
    // Bring both PEs through a finish so teardown stays symmetric.
    ap::hclib::finish([&] {
      a.start();
      a.done(0);
    });
  });
}

TEST(Selector, StartOutsideFinishThrows) {
  shmem::run(cfg_of(1), [] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    EXPECT_THROW(a.start(), std::logic_error);
  });
}

TEST(Selector, StartWithoutHandlerThrows) {
  shmem::run(cfg_of(1), [] {
    actor::Actor<std::int64_t> a;
    ap::hclib::finish([&] { EXPECT_THROW(a.start(), std::logic_error); });
  });
}

TEST(Selector, SendAfterDoneThrows) {
  shmem::run(cfg_of(2, 2), [] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    ap::hclib::finish([&] {
      a.start();
      a.done(0);
      EXPECT_THROW(a.send(1, 0), std::logic_error);
    });
  });
}

TEST(Selector, BadMailboxIdThrows) {
  shmem::run(cfg_of(1), [] {
    actor::Selector<2, std::int64_t> s;
    s.mb[0].process = [](std::int64_t, int) {};
    s.mb[1].process = [](std::int64_t, int) {};
    ap::hclib::finish([&] {
      s.start();
      EXPECT_THROW(s.send(2, 1, 0), std::out_of_range);
      EXPECT_THROW(s.send(-1, 1, 0), std::out_of_range);
      EXPECT_THROW(s.done(5), std::out_of_range);
      s.done(0);
    });
  });
}

TEST(Selector, StructMessagesTravelIntact) {
  struct Edge {
    std::int64_t u, v;
    double w;
  };
  shmem::run(cfg_of(4, 2), [] {
    double wsum = 0;
    actor::Actor<Edge> a;
    a.mb[0].process = [&wsum](Edge e, int) {
      EXPECT_EQ(e.u + 1, e.v);
      wsum += e.w;
    };
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 64; ++i) {
        Edge e{i, i + 1, 0.5};
        a.send(e, i % shmem::n_pes());
      }
      a.done(0);
    });
    EXPECT_DOUBLE_EQ(shmem::sum_reduce(wsum), 4 * 64 * 0.5);
  });
}

TEST(Selector, TinyBuffersStillTerminate) {
  shmem::run(cfg_of(4, 2), [] {
    ap::convey::Options o;
    o.buffer_bytes = 32;  // brutal back-pressure
    std::int64_t got = 0;
    actor::Actor<std::int64_t> a{o};
    a.mb[0].process = [&got](std::int64_t, int) { ++got; };
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 500; ++i) a.send(1, (shmem::my_pe() + i) % 4);
      a.done(0);
    });
    EXPECT_EQ(shmem::sum_reduce(got), 4 * 500);
  });
}

TEST(Selector, HandlerMaySendToAnotherSelector) {
  // Two cooperating actors: A forwards everything it receives to B.
  shmem::run(cfg_of(4, 4), [] {
    std::int64_t sink = 0;
    bool b_done_sent = false;
    actor::Actor<std::int64_t> b;
    b.mb[0].process = [&sink](std::int64_t v, int) { sink += v; };
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [&b](std::int64_t v, int) {
      b.send(v, 0);  // everything funnels to PE0's B actor
    };
    ap::hclib::finish([&] {
      b.start();
      a.start();
      for (int i = 0; i < 20; ++i) a.send(1, i % shmem::n_pes());
      a.done(0);
      // B may receive from A's handlers until A has fully terminated;
      // declare B done only then (HClib-Actor expresses the same with a
      // teardown dependency between selectors).
      ap::hclib::FinishScope::current()->register_pump([&] {
        if (!a.terminated()) return false;
        if (!b_done_sent) {
          b.done(0);
          b_done_sent = true;
        }
        return true;
      });
    });
    shmem::barrier_all();
    if (shmem::my_pe() == 0) {
      EXPECT_EQ(sink, 4 * 20);
    }
  });
}

// ---------------------------------------------------------- observer seam

/// Counts every observer hook. Atomic: under the threads backend every
/// PE's worker reports into the one observer. `per_message` picks the
/// selector's dispatch: per-message begin/end pairs (the default) or one
/// begin/close pair per drained batch.
struct CountingActorObserver : actor::ActorObserver {
  bool per_message = true;
  std::atomic<int> sends{0}, handler_begins{0}, handler_ends{0};
  std::atomic<int> comm_begins{0}, comm_ends{0};
  std::atomic<int> batch_begins{0}, batch_closes{0};
  std::atomic<std::uint64_t> batch_msgs{0};
  void on_send(int, int, std::size_t, std::uint64_t) override { ++sends; }
  void on_handler_begin(int, int, std::size_t, std::uint64_t) override {
    ++handler_begins;
  }
  void on_handler_end(int) override { ++handler_ends; }
  void on_comm_begin() override { ++comm_begins; }
  void on_comm_end() override { ++comm_ends; }
  [[nodiscard]] bool wants_per_message_events() const override {
    return per_message;
  }
  void on_handler_batch_begin(int) override { ++batch_begins; }
  void on_handler_batch(int, std::size_t count, std::size_t) override {
    ++batch_closes;
    batch_msgs += count;
  }
};

TEST(Selector, ObserverSeesEverySendAndHandler) {
  CountingActorObserver obs;
  actor::set_actor_observer(&obs);
  shmem::run(cfg_of(2, 2), [] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 30; ++i) a.send(1, 1 - shmem::my_pe());
      a.done(0);
    });
  });
  actor::set_actor_observer(nullptr);
  EXPECT_EQ(obs.sends.load(), 60);           // both PEs' sends
  EXPECT_EQ(obs.handler_begins.load(), 60);  // every message handled once
  EXPECT_EQ(obs.handler_ends.load(), 60);
  EXPECT_EQ(obs.batch_begins.load(), 0);
  EXPECT_GT(obs.comm_begins.load(), 0);
  EXPECT_EQ(obs.comm_begins.load(), obs.comm_ends.load());  // balanced
}

TEST(Selector, BatchObserverSeesOnePairPerDrainedBatch) {
  CountingActorObserver obs;
  obs.per_message = false;
  std::array<std::uint64_t, 2> handled{}, drains{};
  actor::set_actor_observer(&obs);
  shmem::run(cfg_of(2, 2), [&] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 30; ++i) a.send(1, 1 - shmem::my_pe());
      a.done(0);
    });
    const auto me = static_cast<std::size_t>(shmem::my_pe());
    handled[me] = a.handled();
    drains[me] = a.conveyor().stats().drains;
  });
  actor::set_actor_observer(nullptr);
  EXPECT_EQ(obs.handler_begins.load(), 0);
  EXPECT_EQ(obs.handler_ends.load(), 0);
  EXPECT_GT(obs.batch_begins.load(), 0);
  EXPECT_EQ(obs.batch_begins.load(), obs.batch_closes.load());
  EXPECT_LE(static_cast<std::uint64_t>(obs.batch_closes.load()),
            drains[0] + drains[1]);
  EXPECT_EQ(handled[0] + handled[1], 60u);
  EXPECT_EQ(obs.batch_msgs.load(), handled[0] + handled[1]);
}

/// One PE sends 200 messages to itself; the handler throws on value 5 and
/// the sender catches it. Returns the PE's PAPI instruction count over the
/// run and how many handlers completed.
std::pair<std::uint64_t, std::uint64_t> run_with_throwing_handler(
    CountingActorObserver& obs) {
  std::uint64_t ins = 0, handled = 0;
  int caught = 0;
  actor::set_actor_observer(&obs);
  shmem::run(cfg_of(1), [&] {
    using ap::papi::Event;
    const std::uint64_t ins0 = ap::papi::counter_value(Event::TOT_INS);
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t v, int) {
      if (v == 5) throw std::runtime_error("handler failed");
    };
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 200; ++i) {
        try {
          a.send(i, 0);
        } catch (const std::runtime_error&) {
          ++caught;
        }
      }
      a.done(0);
    });
    ins = ap::papi::counter_value(Event::TOT_INS) - ins0;
    handled = a.handled();
  });
  actor::set_actor_observer(nullptr);
  EXPECT_EQ(caught, 1);
  return {ins, handled};
}

TEST(Selector, ThrowingHandlerClosesItsBatchAndChargesLikePerMessage) {
  CountingActorObserver per_message;
  const auto [ins_per_message, handled_per_message] =
      run_with_throwing_handler(per_message);
  EXPECT_EQ(per_message.handler_begins.load(), 200);
  EXPECT_EQ(per_message.handler_ends.load(), 200);

  CountingActorObserver batch;
  batch.per_message = false;
  const auto [ins_batch, handled_batch] = run_with_throwing_handler(batch);
  EXPECT_EQ(batch.handler_begins.load(), 0);
  EXPECT_EQ(batch.batch_begins.load(), batch.batch_closes.load());
  // The message that threw was consumed and charged, not handled.
  EXPECT_EQ(handled_batch, 199u);
  EXPECT_EQ(handled_batch, handled_per_message);
  EXPECT_EQ(batch.batch_msgs.load(), 200u);
  EXPECT_EQ(ins_batch, ins_per_message);
}

// ------------------------------------------------------------ sweeps

struct ActorSweep {
  int pes, ppn, sends;
  std::size_t buffer_bytes;
};

class SelectorSweep : public ::testing::TestWithParam<ActorSweep> {};

TEST_P(SelectorSweep, AllMessagesDeliveredExactlyOnce) {
  const auto p = GetParam();
  shmem::run(cfg_of(p.pes, p.ppn), [&p] {
    ap::convey::Options o;
    o.buffer_bytes = p.buffer_bytes;
    std::map<std::int64_t, int> seen;
    actor::Actor<std::int64_t> a{o};
    a.mb[0].process = [&seen](std::int64_t v, int) { seen[v]++; };
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < p.sends; ++i) {
        const std::int64_t tag = static_cast<std::int64_t>(me) * 1000000 + i;
        a.send(tag, (me * 3 + i * 7) % n);
      }
      a.done(0);
    });
    std::int64_t local = 0;
    for (auto& [tag, cnt] : seen) {
      EXPECT_EQ(cnt, 1) << "duplicate tag " << tag;
      local += cnt;
    }
    EXPECT_EQ(shmem::sum_reduce(local),
              static_cast<std::int64_t>(p.pes) * p.sends);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SelectorSweep,
    ::testing::Values(ActorSweep{1, 0, 100, 4096},
                      ActorSweep{2, 2, 500, 64},
                      ActorSweep{4, 4, 400, 128},
                      ActorSweep{8, 4, 300, 96},
                      ActorSweep{16, 16, 200, 1024},
                      ActorSweep{16, 8, 200, 128},
                      ActorSweep{32, 16, 100, 512},
                      ActorSweep{6, 3, 257, 48}));

}  // namespace
