// Layer replays: a workload's recorded send stream replayed through
// bare Conveyors and through a Selector with an empty handler, and its
// recorded RMA stream re-issued through putmem_nbi/quiet. Timed from
// outside the program, these give the self time of shmem, conveyor, actor
// and the application handler. Each replay checks that it delivered
// exactly the recorded counts.
#include <array>
#include <cstddef>
#include <stdexcept>

#include "actor/selector.hpp"
#include "conveyor/conveyor.hpp"
#include "ledger.hpp"
#include "runtime/finish.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/shmem.hpp"

namespace perfbench {

LayerCounter::LayerCounter(int pes) {
  counts.rma.resize(static_cast<std::size_t>(pes));
  ap::shmem::set_rma_observer(this);
  ap::convey::set_transfer_observer(this);
  ap::rt::set_tick_hook([this] { ++counts.sweeps; });
}

LayerCounter::~LayerCounter() {
  ap::rt::set_tick_hook({});
  ap::convey::set_transfer_observer(nullptr);
  ap::shmem::set_rma_observer(nullptr);
}

void LayerCounter::on_put(int target_pe, std::size_t bytes) {
  ++counts.puts;
  counts.rma[static_cast<std::size_t>(ap::rt::my_pe())].push_back(
      RmaOp{RmaOp::put, target_pe, static_cast<std::uint32_t>(bytes)});
}

void LayerCounter::on_put_nbi(int target_pe, std::size_t bytes) {
  ++counts.nbi_puts;
  counts.nbi_bytes += bytes;
  counts.rma[static_cast<std::size_t>(ap::rt::my_pe())].push_back(
      RmaOp{RmaOp::nbi, target_pe, static_cast<std::uint32_t>(bytes)});
}

void LayerCounter::on_quiet(std::size_t) {
  ++counts.quiets;
  counts.rma[static_cast<std::size_t>(ap::rt::my_pe())].push_back(
      RmaOp{RmaOp::quiet, -1, 0});
}

void LayerCounter::on_barrier() {
  ++counts.barriers;
  // barrier_all() quiets first; that quiet belongs to the barrier.
  auto& ops = counts.rma[static_cast<std::size_t>(ap::rt::my_pe())];
  if (!ops.empty() && ops.back().kind == RmaOp::quiet) ops.pop_back();
}

void LayerCounter::on_transfer(ap::convey::SendType type,
                               std::size_t buffer_bytes, int, int,
                               std::uint64_t) {
  // Progress rounds are not transfers in metrics.prom either.
  if (type == ap::convey::SendType::nonblock_progress) return;
  ++counts.transfers;
  counts.transfer_bytes += buffer_bytes;
}

ap::rt::LaunchConfig launch_config(int pes, int ppn) {
  ap::rt::LaunchConfig lc;
  lc.num_pes = pes;
  lc.pes_per_node = ppn;
  lc.backend = ap::rt::Backend::fiber;
  return lc;
}

namespace {

/// Messages each PE should receive under the stream.
std::vector<std::uint64_t> expected_received(const SendStream& s) {
  std::vector<std::uint64_t> in(static_cast<std::size_t>(s.pes), 0);
  for (const auto& dsts : s.dst)
    for (int d : dsts) ++in[static_cast<std::size_t>(d)];
  return in;
}

template <std::size_t N>
struct Payload {
  std::array<std::byte, N> bytes{};
};

template <std::size_t N>
ReplayResult selector_replay(const SendStream& s) {
  const auto expect = expected_received(s);
  std::vector<std::uint64_t> got(expect.size(), 0);
  double t0 = 0, t1 = 0;
  ap::shmem::run(launch_config(s.pes, s.ppn), [&] {
    const int me = ap::shmem::my_pe();
    std::uint64_t handled = 0;
    ap::actor::Actor<Payload<N>> a;
    a.mb[0].process = [&handled](Payload<N>, int) { ++handled; };
    const Payload<N> msg{};
    ap::shmem::barrier_all();
    if (me == 0) t0 = now_s();
    ap::hclib::finish([&] {
      a.start();
      for (int d : s.dst[static_cast<std::size_t>(me)]) a.send(msg, d);
      a.done(0);
    });
    ap::shmem::barrier_all();
    if (me == 0) t1 = now_s();
    got[static_cast<std::size_t>(me)] = handled;
  });
  return ReplayResult{t1 - t0, got == expect};
}

}  // namespace

ReplayResult replay_conveyor(const SendStream& s) {
  const auto expect = expected_received(s);
  std::vector<std::uint64_t> got(expect.size(), 0);
  double t0 = 0, t1 = 0;
  ap::shmem::run(launch_config(s.pes, s.ppn), [&] {
    const int me = ap::shmem::my_pe();
    const auto& dst = s.dst[static_cast<std::size_t>(me)];
    ap::convey::Options opts;
    opts.item_bytes = s.msg_bytes;
    const std::vector<std::byte> item(s.msg_bytes);
    auto c = ap::convey::Conveyor::create(opts);
    ap::shmem::barrier_all();
    if (me == 0) t0 = now_s();
    std::size_t i = 0;
    std::uint64_t delivered = 0;
    bool done = false;
    while (c->advance(done)) {
      for (; i < dst.size(); ++i)
        if (!c->push(item.data(), dst[i])) break;
      delivered += c->drain([](const ap::convey::Delivered&) {});
      done = i == dst.size();
      ap::rt::yield();
    }
    ap::shmem::barrier_all();
    if (me == 0) t1 = now_s();
    got[static_cast<std::size_t>(me)] = delivered;
  });
  return ReplayResult{t1 - t0, got == expect};
}

ReplayResult replay_selector(const SendStream& s) {
  switch (s.msg_bytes) {
    case 8: return selector_replay<8>(s);
    case 16: return selector_replay<16>(s);
    default: throw std::invalid_argument("replay_selector: message size");
  }
}

ReplayResult replay_shmem(const std::vector<std::vector<RmaOp>>& ops, int pes,
                          int ppn) {
  std::uint32_t max_bytes = 8;
  for (const auto& pe_ops : ops)
    for (const RmaOp& op : pe_ops) max_bytes = std::max(max_bytes, op.bytes);
  double t0 = 0, t1 = 0;
  bool exact = true;
  ap::shmem::run(launch_config(pes, ppn), [&] {
    const int me = ap::shmem::my_pe();
    const auto& mine = ops[static_cast<std::size_t>(me)];
    void* dest = ap::shmem::symm_malloc(max_bytes);
    const std::vector<std::byte> src(max_bytes);
    ap::shmem::barrier_all();
    if (me == 0) t0 = now_s();
    const ap::shmem::PeStats before = ap::shmem::stats();
    std::uint64_t puts = 0, nbi = 0, nbi_bytes = 0, quiets = 0;
    for (const RmaOp& op : mine) {
      switch (op.kind) {
        case RmaOp::put:
          ap::shmem::put(dest, src.data(), op.bytes, op.dst);
          ++puts;
          break;
        case RmaOp::nbi:
          ap::shmem::putmem_nbi(dest, src.data(), op.bytes, op.dst);
          ++nbi;
          nbi_bytes += op.bytes;
          break;
        case RmaOp::quiet:
          ap::shmem::quiet();
          ++quiets;
          break;
      }
    }
    const ap::shmem::PeStats after = ap::shmem::stats();
    ap::shmem::barrier_all();
    if (me == 0) t1 = now_s();
    exact = exact && after.puts - before.puts == puts &&
            after.nbi_puts - before.nbi_puts == nbi &&
            after.nbi_put_bytes - before.nbi_put_bytes == nbi_bytes &&
            after.quiets - before.quiets == quiets;
    ap::shmem::symm_free(dest);
  });
  return ReplayResult{t1 - t0, exact};
}

}  // namespace perfbench
