// The Lustre-like parallel file system model.
//
// `Filesystem` is the facade the POSIX layer talks to. It owns the
// fluid-flow network (NICs + OSTs), the serialized metadata service,
// per-node client caches, and the read-ahead tracker, and it translates
// read/write requests into flows with the cost-model features the
// paper's case studies hinge on:
//
//  * client cache residue of completed writes: the memory pressure
//    that arms the read-ahead defect;
//  * the strided read-ahead bug (Figures 4–5): strided reads recognized
//    on the 3rd match are serviced as 4 KiB page reads when the client
//    is under dirty-memory pressure, progressively worse per match;
//  * unaligned shared-file writes: read-modify-write byte inflation
//    plus per-stripe-boundary lock latency (Figure 6(g–i));
//  * a serialized small-I/O path for sub-threshold transfers, modelling
//    HDF5 metadata traffic through the MDS (Figure 6(j–l));
//  * lognormal service noise and rare Pareto stragglers (the run-to-run
//    event variability that motivates ensemble analysis).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "fault/injector.h"
#include "lustre/machine.h"
#include "lustre/readahead.h"
#include "lustre/striping.h"
#include "sim/engine.h"
#include "sim/fluid.h"
#include "sim/run_context.h"
#include "sim/serial_server.h"

namespace eio::lustre {

/// Completion callback for asynchronous file-system requests. Inline
/// (no heap) and move-only: one is created per data op, so a heap
/// capture here would put an allocation on the simulator hot path.
/// 160 bytes fits the POSIX layer's completion chain (its finish
/// lambda nests a SizeCallback) with room to grow a few words.
using IoCallback = sim::InlineFunction<void(), 160>;

/// Options fixed at file creation.
struct FileOptions {
  std::uint32_t stripe_count = 1;  ///< OSTs the file stripes over
  bool shared = false;             ///< opened by more than one node
};

/// Summary counters exposed for tests and reports.
struct FilesystemStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t small_ops = 0;
  std::uint64_t degraded_reads = 0;
  Bytes bytes_written = 0;
  Bytes bytes_read = 0;
};

/// Facade over the simulated storage system.
class Filesystem {
 public:
  /// Build a file system backing `node_count` client nodes on the given
  /// platform. All state — clock, flows, caches, RNG substreams — is
  /// owned by or derived from `run`, never shared across runs.
  /// `injector` (optional, not owned, same run) perturbs bulk data ops
  /// per its fault plan: jitter stalls here, slow-OST windows armed on
  /// the fluid network at construction.
  Filesystem(sim::RunContext& run, const MachineConfig& machine,
             std::uint32_t node_count, fault::Injector* injector = nullptr);

  Filesystem(const Filesystem&) = delete;
  Filesystem& operator=(const Filesystem&) = delete;

  /// Create a file; returns its id. `start_ost` rotates per file.
  FileId create(std::string name, const FileOptions& options);

  /// Layout of an existing file.
  [[nodiscard]] const FileLayout& layout(FileId file) const;

  /// Look up a file id by name (kInvalidFile when absent).
  [[nodiscard]] FileId lookup(const std::string& name) const;

  /// High-water mark of written extents (the POSIX "file size").
  [[nodiscard]] Bytes size(FileId file) const;

  /// Write `length` bytes at `offset`; `done` fires when the call would
  /// return to the application (the data has reached the OSTs).
  /// `rank` identifies the issuing process (per-process read-ahead
  /// streams; the node is the Lustre client).
  void write(NodeId node, RankId rank, FileId file, Bytes offset, Bytes length,
             IoCallback done);

  /// Read `length` bytes at `offset`.
  void read(NodeId node, RankId rank, FileId file, Bytes offset, Bytes length,
            IoCallback done);

  /// Start the other-jobs interference stream (no-op unless
  /// machine.background.enabled). Runs until stop_background().
  void start_background();

  /// Stop generating interference (in-flight requests drain normally).
  void stop_background();

  /// Interference bytes injected so far.
  [[nodiscard]] Bytes background_bytes() const noexcept {
    return background_bytes_;
  }

  /// Cached-page residue of recently completed writes on a node.
  [[nodiscard]] Bytes residue(NodeId node) const;

  /// True when the node's client memory is under enough pressure to arm
  /// the read-ahead defect for reads of `file`: residue/in-flight load on
  /// the node, or the job still interleaving writes into the file.
  [[nodiscard]] bool under_pressure(NodeId node, FileId file) const;

  [[nodiscard]] const FilesystemStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const MachineConfig& machine() const noexcept { return machine_; }
  [[nodiscard]] sim::FluidNetwork& network() noexcept { return network_; }
  [[nodiscard]] const sim::FluidNetwork& network() const noexcept { return network_; }
  [[nodiscard]] sim::SerialServer& mds() noexcept { return mds_; }
  [[nodiscard]] ReadaheadTracker& readahead() noexcept { return readahead_; }
  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  /// Base latency charged for open/seek/close style calls.
  [[nodiscard]] Seconds syscall_latency() const noexcept {
    return machine_.syscall_latency;
  }

 private:
  struct FileState {
    std::string name;
    FileLayout layout;
    bool shared = false;
    bool saw_unaligned = false;  ///< any unaligned shared write so far
    Bytes size = 0;              ///< high-water mark of written extents
    Seconds last_write_done = -1e18;  ///< job-wide most recent write
  };

  /// One completed write's cached pages, reclaimed at (when, seq).
  struct Reclaim {
    Seconds when;
    std::uint64_t seq;  ///< Engine::reserve_passive key
    Bytes bytes;
  };

  struct NodeState {
    /// Residue of completed writes, and their pending reclaims in key
    /// order (oldest first from reclaim_head). Expired entries are
    /// retired lazily by expire_residue(), so queries stay logically
    /// const.
    mutable Bytes residue = 0;
    mutable std::vector<Reclaim> reclaims;
    mutable std::size_t reclaim_head = 0;
    Bytes sync_in_flight = 0;       ///< bytes in synchronous write flows
    rng::Stream noise;
    rng::Stream straggler;
    rng::Stream readahead;
  };

  /// Multiplicative slowdown: lognormal noise, occasionally a straggler.
  /// Applied as a post-transfer time tax of (slowdown-1) x the event's
  /// measured service time, so splitting transfers into more calls
  /// averages it away — the Law-of-Large-Numbers effect of Figure 2.
  [[nodiscard]] double draw_slowdown(NodeState& n);
  void write_impl(NodeId node, RankId rank, FileId file, Bytes offset,
                  Bytes length, IoCallback done);
  void read_impl(NodeId node, RankId rank, FileId file, Bytes offset,
                 Bytes length, IoCallback done);
  void start_sync_write(NodeId node, FileId file, Bytes offset, Bytes length,
                        Seconds pre_delay, double inflation, IoCallback done);
  void small_io(NodeId node, const FileState& f, bool is_write, Bytes length,
                IoCallback done);
  /// Retire the node's reclaims whose key has passed; returns the
  /// residue that remains.
  Bytes expire_residue(const NodeState& n) const;
  void background_arrival();

  [[nodiscard]] static sim::FluidNetwork::Config network_config(
      const MachineConfig& machine, std::uint32_t node_count,
      std::uint64_t seed);

  sim::Engine& engine_;
  fault::Injector* injector_;  ///< optional, not owned, same run
  MachineConfig machine_;
  sim::FluidNetwork network_;
  sim::SerialServer mds_;
  ReadaheadTracker readahead_;
  std::vector<NodeState> nodes_;
  std::unordered_map<FileId, FileState> files_;
  std::unordered_map<std::string, FileId> names_;
  FileId next_file_ = 1;
  OstId next_start_ost_ = 0;
  FilesystemStats stats_;
  // interference generator: the phantom node is the last NIC index
  bool background_active_ = false;
  sim::EventId background_event_ = sim::kInvalidEvent;
  Bytes background_bytes_ = 0;
  rng::Stream background_rng_;
};

}  // namespace eio::lustre
