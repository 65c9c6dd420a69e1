// Hardware/middleware configuration of a simulated platform.
//
// Two calibrated presets mirror the paper's testbeds: `franklin()`
// (NERSC Cray XT4, Lustre scratch with 48 OSTs, the strided read-ahead
// bug present) and `jaguar()` (ORNL XT4 partition, 144 OSTs, no bug).
// Absolute bandwidths are calibrated so that the paper's headline run
// times land in the right ballpark; the *mechanisms* (token scheduling,
// client-count contention, alignment penalties, the read-ahead bug) are
// what the reproduction rests on.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"
#include "sim/fluid.h"

namespace eio::lustre {

/// Interference from other jobs sharing the file system ("factors
/// affecting performance include the load from other jobs on the HPC
/// system"). Modeled as a Poisson stream of bulk requests from a
/// phantom client node against random OSTs.
struct BackgroundLoad {
  bool enabled = false;
  /// Target fraction of aggregate OST bandwidth consumed on average.
  double intensity = 0.2;
  Bytes mean_request = 32 * MiB;   ///< exponential request sizes
  std::uint32_t spread = 2;        ///< OSTs touched per request
  /// Distinct phantom client nodes the interference appears to come
  /// from (other jobs are many clients, so they claim many per-client
  /// OST shares, not one).
  std::uint32_t phantom_nodes = 32;
};

/// Everything the file-system model needs to know about a platform.
struct MachineConfig {
  std::string name = "franklin";

  // --- fabric ---
  std::uint32_t tasks_per_node = 4;      ///< MPI tasks per compute node
  Rate nic_bandwidth = 1200.0 * MiB;     ///< per-node injection bandwidth

  // --- object storage ---
  std::uint32_t ost_count = 48;
  Rate ost_bandwidth = 350.0 * MiB;      ///< per-OST streaming bandwidth
  Bytes stripe_size = 1 * MiB;
  /// Client-count contention: essentially free up to ~hundreds of
  /// clients per OST (IOR at 256 nodes saturates fine), biting at the
  /// thousands-of-clients scale of the GCRM baseline.
  sim::ContentionModel contention{/*alpha=*/0.012, /*knee=*/280};

  // --- client I/O scheduler (source of the Fig. 1c harmonics) ---
  sim::ConcurrencyPolicy node_policy = sim::ConcurrencyPolicy::franklin_mix();

  // --- client page cache ---
  /// Writes are write-through (extent-lock callbacks flush shared-file
  /// extents aggressively on these systems), but the pages of a
  /// completed write linger in the client cache before reclaim; this
  /// *residue* is the memory pressure that arms the read-ahead defect
  /// during MADbench's interleaved middle phase.
  Bytes dirty_residue_cap = 160 * MiB;   ///< residue credited per write
  Seconds dirty_residue_ttl = 18.0;      ///< reclaim delay
  Bytes pressure_threshold = 64 * MiB;   ///< residue+in-flight ⇒ pressure
  /// Reads within this window of the file's most recent write
  /// completion are considered interleaved with writes ("system memory
  /// was being filled with interleaved writes") — the arming condition
  /// of the read-ahead defect.
  Seconds interleave_pressure_window = 25.0;

  // --- reads ---
  double read_efficiency = 0.25;         ///< read share of OST bandwidth

  // --- strided read-ahead defect (Figures 4–5) ---
  bool strided_readahead_bug = true;     ///< the pre-patch Lustre behaviour
  std::uint32_t strided_trigger = 3;     ///< pattern recognized on this match
  Seconds readahead_page_latency = ms(0.55);  ///< per 4 KiB page when degraded
  double readahead_pipeline = 1.0;       ///< overlapped in-flight pages
  double readahead_growth = 1.30;        ///< window growth per extra match
  double readahead_task_sigma = 0.30;    ///< cross-event severity spread
  Bytes page_size = 4 * KiB;

  // --- small-I/O (metadata) path ---
  Bytes small_io_threshold = 64 * KiB;   ///< below this → serialized path
  Seconds small_io_base_latency = ms(13.0);
  Rate small_io_bandwidth = 4.0 * MiB;
  double unaligned_meta_factor = 1.6;    ///< extra latency on unaligned files

  // --- unaligned bulk writes ---
  double rmw_inflation = 0.6;            ///< extra bytes moved (fraction)
  Seconds lock_latency_per_boundary = ms(1.5);

  // --- stochastic service variation ---
  double service_noise_sigma = 0.10;     ///< lognormal σ on every transfer
  double straggler_probability = 0.0008; ///< rare heavy-tail events
  double straggler_alpha = 3.5;          ///< Pareto shape of straggler factor
  double straggler_min = 1.2;            ///< minimum straggler slowdown
  Seconds syscall_latency = us(2.0);     ///< open/seek/close base cost

  // --- interference from other jobs ---
  BackgroundLoad background;

  std::uint64_t seed = 0x5EED;

  /// NERSC Franklin (Cray XT4) — the platform with the read-ahead bug.
  [[nodiscard]] static MachineConfig franklin() { return MachineConfig{}; }

  /// Franklin after the Lustre patch that removed strided read-ahead
  /// detection (Figure 5).
  [[nodiscard]] static MachineConfig franklin_patched() {
    MachineConfig m;
    m.name = "franklin-patched";
    m.strided_readahead_bug = false;
    return m;
  }

  /// ORNL Jaguar XT4 partition: 72 OSSs x 2 OSTs = 144 OSTs, modest
  /// per-OST bandwidth, tighter client scheduling, no read-ahead bug.
  [[nodiscard]] static MachineConfig jaguar() {
    MachineConfig m;
    m.name = "jaguar";
    m.ost_count = 144;
    m.ost_bandwidth = 120.0 * MiB;
    m.nic_bandwidth = 1100.0 * MiB;
    m.strided_readahead_bug = false;
    m.read_efficiency = 0.75;
    m.node_policy = sim::ConcurrencyPolicy{{{2, 0.15}, {4, 0.85}}};
    m.service_noise_sigma = 0.08;
    m.straggler_probability = 0.002;
    m.seed = 0x7A67;
    return m;
  }
};

}  // namespace eio::lustre
