// The simulated MPI job runtime.
//
// Drives one Program per rank against the POSIX layer, implementing
// global barriers (the synchronization that makes the Nth order
// statistic govern phase run time) and the gather collective used for
// collective buffering. Barrier and gather costs follow a simple
// log-tree latency + bandwidth model.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "fault/injector.h"
#include "mpi/program.h"
#include "posix/vfs.h"
#include "sim/engine.h"
#include "sim/run_context.h"

namespace eio::mpi {

/// Cost model for the interconnect side of collectives.
struct CollectiveCosts {
  Seconds barrier_hop_latency = us(4.0);  ///< per tree level
  Seconds gather_hop_latency = us(8.0);   ///< per tree level
  Rate gather_bandwidth = 1.6 * 1024.0 * static_cast<double>(MiB);  ///< root ingest
};

/// Executes a job of N rank programs to completion.
class Runtime {
 public:
  /// Called when a Phase op executes (the tracer hooks this).
  using PhaseHook = std::function<void(RankId, std::int32_t)>;

  /// `run` must be the same run context the POSIX layer was built on.
  /// `injector` (optional, not owned, same run) supplies the straggler
  /// clause: chosen ranks pay their previous data op's slowdown lag
  /// before issuing the next one, so they drift late within phases and
  /// the barrier order statistic governs phase time, as in the paper.
  Runtime(sim::RunContext& run, posix::PosixIo& io, CollectiveCosts costs = {},
          fault::Injector* injector = nullptr);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Install the job: one program per rank. Resets all progress. The
  /// runtime shares the set and reads each rank's ops in place.
  void load(ProgramSet programs);

  /// The loaded program set (shared with the job it came from).
  [[nodiscard]] const ProgramSet& programs() const noexcept { return programs_; }

  /// Hook invoked on Phase ops.
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  /// Start every rank at the current simulation time. Programs run
  /// until completion as the engine drains.
  void start();

  /// Convenience: start() then engine.run(); returns job wall time.
  Seconds run_to_completion();

  [[nodiscard]] std::uint32_t rank_count() const noexcept {
    return static_cast<std::uint32_t>(ranks_.size());
  }
  [[nodiscard]] bool all_done() const noexcept { return done_count_ == ranks_.size(); }
  /// Completion time of a given rank (valid once done).
  [[nodiscard]] Seconds finish_time(RankId rank) const;
  /// Completion time of the slowest rank (the job run time).
  [[nodiscard]] Seconds job_finish_time() const;

 private:
  struct RankState {
    std::size_t pc = 0;  ///< next op of programs_[rank]
    std::vector<Fd> slots;
    bool done = false;
    Seconds finish = 0.0;
  };

  struct BarrierState {
    std::uint32_t arrived = 0;
    std::uint64_t generation = 0;
  };

  struct GatherState {
    std::uint32_t arrived = 0;
    std::uint64_t generation = 0;
  };

  void step(RankId rank);
  void advance(RankId rank);
  void run_op(RankId rank, const Program& program, const Op& op);
  /// Issue a data op, timing it for straggler bookkeeping.
  void issue_data_op(RankId rank, Fd fd, Bytes bytes, bool is_write);
  [[nodiscard]] Fd& slot(RankId rank, FileSlot s);
  void arrive_barrier(RankId rank);
  void arrive_gather(RankId rank, const op::Gather& g);

  sim::Engine& engine_;
  posix::PosixIo& io_;
  CollectiveCosts costs_;
  fault::Injector* injector_;  ///< optional, not owned, same run
  PhaseHook phase_hook_;
  ProgramSet programs_;
  std::vector<RankState> ranks_;
  BarrierState barrier_;
  std::vector<GatherState> gathers_;  ///< per group, reused across ops
  std::uint32_t done_count_ = 0;
  bool started_ = false;
};

}  // namespace eio::mpi
