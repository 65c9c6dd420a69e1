#include "mpi/runtime.h"

#include <cmath>

namespace eio::mpi {

namespace {

[[nodiscard]] double log2_ceil(std::uint32_t n) noexcept {
  return n <= 1 ? 1.0 : std::ceil(std::log2(static_cast<double>(n)));
}

}  // namespace

Runtime::Runtime(sim::RunContext& run, posix::PosixIo& io, CollectiveCosts costs,
                 fault::Injector* injector)
    : engine_(run.engine()), io_(io), costs_(costs), injector_(injector) {}

void Runtime::load(ProgramSet programs) {
  EIO_CHECK(!programs.empty());
  programs_ = std::move(programs);
  ranks_.assign(programs_.size(), RankState{});
  gathers_.assign(ranks_.size(), GatherState{});
  barrier_ = BarrierState{};
  done_count_ = 0;
  started_ = false;
  // The rank universe is now known: fix the straggler set.
  if (injector_ != nullptr) injector_->bind_ranks(rank_count());
}

void Runtime::start() {
  EIO_CHECK_MSG(!started_, "job already started");
  EIO_CHECK_MSG(!ranks_.empty(), "no programs loaded");
  started_ = true;
  for (RankId r = 0; r < ranks_.size(); ++r) {
    engine_.schedule_in(0.0, [this, r] { step(r); });
  }
}

Seconds Runtime::run_to_completion() {
  start();
  engine_.run();
  EIO_CHECK_MSG(all_done(), "engine drained before all ranks finished — deadlock?");
  return job_finish_time();
}

Seconds Runtime::finish_time(RankId rank) const {
  EIO_CHECK(rank < ranks_.size());
  EIO_CHECK_MSG(ranks_[rank].done, "rank " << rank << " not finished");
  return ranks_[rank].finish;
}

Seconds Runtime::job_finish_time() const {
  Seconds latest = 0.0;
  for (const RankState& r : ranks_) {
    EIO_CHECK(r.done);
    latest = std::max(latest, r.finish);
  }
  return latest;
}

Fd& Runtime::slot(RankId rank, FileSlot s) {
  auto& slots = ranks_[rank].slots;
  if (slots.size() <= s) slots.resize(s + 1, -1);
  return slots[s];
}

void Runtime::advance(RankId rank) {
  ++ranks_[rank].pc;
  step(rank);
}

void Runtime::step(RankId rank) {
  RankState& state = ranks_[rank];
  const Program& program = programs_[rank];
  if (state.pc >= program.size()) {
    if (!state.done) {
      state.done = true;
      state.finish = engine_.now();
      ++done_count_;
    }
    return;
  }
  run_op(rank, program, program.ops()[state.pc]);
}

void Runtime::run_op(RankId rank, const Program& program, const Op& operation) {
  std::visit(
      [&](const auto& o) {
        using T = std::decay_t<decltype(o)>;
        if constexpr (std::is_same_v<T, op::Open>) {
          std::uint32_t flags = posix::kRdWr | (o.create ? posix::kCreate : 0u);
          io_.open(rank, program.path(o), flags, [this, rank, s = o.slot](Fd fd) {
            EIO_CHECK_MSG(fd >= 0, "open failed for rank " << rank);
            slot(rank, s) = fd;
            advance(rank);
          });
        } else if constexpr (std::is_same_v<T, op::Close>) {
          io_.close(rank, slot(rank, o.slot), [this, rank](int rc) {
            EIO_CHECK(rc == 0);
            advance(rank);
          });
        } else if constexpr (std::is_same_v<T, op::Seek>) {
          io_.lseek(rank, slot(rank, o.slot),
                    static_cast<std::int64_t>(o.offset), posix::Whence::kSet,
                    [this, rank](std::int64_t pos) {
                      EIO_CHECK(pos >= 0);
                      advance(rank);
                    });
        } else if constexpr (std::is_same_v<T, op::Read>) {
          issue_data_op(rank, slot(rank, o.slot), o.bytes, /*is_write=*/false);
        } else if constexpr (std::is_same_v<T, op::Write>) {
          issue_data_op(rank, slot(rank, o.slot), o.bytes, /*is_write=*/true);
        } else if constexpr (std::is_same_v<T, op::Barrier>) {
          arrive_barrier(rank);
        } else if constexpr (std::is_same_v<T, op::Compute>) {
          engine_.schedule_in(o.duration, [this, rank] { advance(rank); });
        } else if constexpr (std::is_same_v<T, op::Phase>) {
          if (phase_hook_) phase_hook_(rank, o.phase);
          advance(rank);
        } else if constexpr (std::is_same_v<T, op::Gather>) {
          arrive_gather(rank, o);
        }
      },
      operation);
}

void Runtime::issue_data_op(RankId rank, Fd fd, Bytes bytes, bool is_write) {
  auto on_done = [this, rank](std::int64_t n) {
    EIO_CHECK(n >= 0);
    advance(rank);
  };
  if (is_write) {
    io_.write(rank, fd, bytes, on_done);
  } else {
    io_.read(rank, fd, bytes, on_done);
  }
}

void Runtime::arrive_barrier(RankId rank) {
  (void)rank;
  ++barrier_.arrived;
  if (barrier_.arrived < ranks_.size()) return;
  // Everyone is here: release the whole job after the tree latency.
  barrier_.arrived = 0;
  ++barrier_.generation;
  Seconds release =
      costs_.barrier_hop_latency * log2_ceil(static_cast<std::uint32_t>(ranks_.size()));
  for (RankId r = 0; r < ranks_.size(); ++r) {
    engine_.schedule_in(release, [this, r] { advance(r); });
  }
}

void Runtime::arrive_gather(RankId rank, const op::Gather& g) {
  EIO_CHECK(g.group_size >= 1);
  std::uint32_t group = rank / g.group_size;
  std::uint32_t first = group * g.group_size;
  std::uint32_t members = std::min<std::uint32_t>(
      g.group_size, static_cast<std::uint32_t>(ranks_.size()) - first);
  GatherState& gs = gathers_[group];
  ++gs.arrived;
  if (gs.arrived < members) return;
  gs.arrived = 0;
  ++gs.generation;

  // Root absorbs (members-1) payloads through its NIC; leaves are free
  // once their data is handed off at the end of the exchange.
  Seconds tree = costs_.gather_hop_latency * log2_ceil(members);
  Seconds leaf_done = tree + static_cast<double>(g.bytes_per_rank) /
                                 costs_.gather_bandwidth;
  Seconds root_done =
      tree + static_cast<double>(g.bytes_per_rank) *
                 static_cast<double>(members > 0 ? members - 1 : 0) /
                 costs_.gather_bandwidth;
  for (std::uint32_t r = first; r < first + members; ++r) {
    Seconds wake = (r == first) ? root_done : leaf_done;
    engine_.schedule_in(wake, [this, r] { advance(r); });
  }
}

}  // namespace eio::mpi
