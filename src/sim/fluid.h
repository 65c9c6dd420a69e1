// Fluid-flow bottleneck-share network.
//
// Every bulk transfer in the simulated machine is a *flow*: an amount of
// bytes moving from a compute node to a set of OSTs (or back). A flow's
// instantaneous rate is
//
//     rate = min( NIC share,  Σ_osts OST share,  per-flow cap )
//
// where shares are *structural* (they depend only on how many flows and
// client nodes are active on a resource, never on other flows' rates),
// so a flow arrival/departure only requires recomputing flows that
// share one of its resources — no global water-filling and no cascades.
//
// OST capacity is divided in two levels, mirroring how a Lustre OST
// services RPC streams: first equally among distinct *client nodes*
// with traffic on the OST, then equally among that node's flows on the
// OST. This is the mechanism behind the paper's Figure 1(c) harmonics:
// a node whose client admits only one stream concentrates the node's
// entire OST allocation onto that stream (≈4R), two streams get ≈2R
// each, and four streams get the fair share R.
//
// Each node has a token scheduler that admits a bounded number of
// concurrent streams (concurrency sampled per busy-burst from a
// configurable policy; grant order randomized per grant, which is what
// produces the Law-of-Large-Numbers averaging of Figure 2).
//
// Storage layout (steady-state allocation-free, mirroring the engine's
// calendar): flows live in a slot slab with a free list — FlowId packs
// (generation << 32) | (slot + 1) — split into two parallel tables.
// The hot table `flows_` holds what every refresh, heap sift and
// resolve() reads: remaining bytes, rate, last update, cap, OST
// efficiency, visit stamp, node, heap position, the generation tag,
// the flags and the stripe as one vector of `Leg{ost, group}` (each
// unique OST with the flow's node group on it), about 88 bytes. The
// cold table `flow_slots_` holds what only start and completion read:
// the payload size, the 224-byte completion closure, and the free-list
// and active-list links. resolve() and flow_active() check the
// generation on every visit; the tag sits in the hot record, so the
// check costs no extra cache line. The active list threads live flows
// in creation order, the canonical refresh order for full-scan
// recomputes. Each OST keeps its per-client-node flow groups in a
// small slab with a parallel `order` index vector sorted by node id
// (a group holds its first flow id in place); recomputes walk groups
// in ascending node order (canonical) and released slots retain their
// vector capacities for reuse. Node
// scheduler streams (2.5 KB of engine state each) live apart from the
// nodes, and the due-heap keeps its (when, seq) keys apart from the
// slots they name, so the arrays a refresh reads stay dense.
//
// Cached shares: the rate formula's divisions depend only on grant
// state and OST capacity, so they are done when that state changes,
// not on every refresh:
//   - Node::nic_share = nic_capacity / granted.size();
//   - Ost::slice = capacity * eff(clients) / clients;
//   - Ost::shares[g] = slice / (flows in group g), a dense array
//     parallel to the group slab (a one-flow group's share is the
//     slice itself: x / 1.0 == x exactly).
// grant() and release_resources() update the node share and the
// touched groups' shares, and every live group's when an OST's client
// count moves; set_ost_capacity() updates that OST's slice and shares.
// compute_rate() sums `shares` in leg order, applies the flow's OST
// efficiency and takes the min with `nic_share` and the cap; it does
// no division. The bits cannot move: each cached value is the
// expression the rate formula used to evaluate per refresh, with the
// same operands in the same order, its inputs change only where it is
// updated, and IEEE arithmetic is deterministic. So every rate, due
// time and completion order is the one dividing per refresh produced
// (tests/sim/fluid_wake_test.cpp pins completion logs recorded on
// that implementation, and recomputes rates from the formula).
//
// Completions (keyed wake): a granted flow's completion is not a
// calendar event. It is an entry in the network's due-heap, an indexed
// binary min-heap of flow slots keyed by (due, seq): `due` is
// now + remaining/rate, computed exactly as a per-flow schedule_in
// would, and `seq` is reserved from the engine's FIFO counter at the
// same moment (Engine::reserve_seq). A rate change re-keys the flow in
// place — no cancel, no dead calendar entry, no action to build. The
// engine holds one wake event per network, armed with
// Engine::schedule_keyed under the head's own (due, seq) and re-armed
// only when the head's key changes; the wake pops the head and
// completes it. Every completion therefore fires at the same time and
// in the same order, relative to every other event, as one calendar
// event per flow would.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/inline_function.h"

namespace eio::sim {

/// Handle identifying an active flow. Packs
/// (generation << 32) | (slot index + 1), so 0 stays the sentinel.
using FlowId = std::uint64_t;

inline constexpr FlowId kInvalidFlow = 0;

/// Distribution over per-burst stream concurrency for a node's client
/// I/O scheduler. Probabilities must be positive and sum to 1 (±1e-9);
/// violations throw at construction, not at the millionth sample().
struct ConcurrencyPolicy {
  struct Choice {
    std::uint32_t streams = 1;  ///< concurrent streams admitted
    double probability = 1.0;
  };

  ConcurrencyPolicy() = default;  ///< empty; sample() rejects it

  /// Validates and precomputes the cumulative table (the same partial
  /// sums sample() used to accumulate per call, so draws are
  /// bit-identical to the accumulate-in-the-loop implementation).
  ConcurrencyPolicy(std::vector<Choice> cs);  // NOLINT(google-explicit-constructor)

  /// All bursts admit exactly `n` concurrent streams.
  [[nodiscard]] static ConcurrencyPolicy fixed(std::uint32_t n) {
    return ConcurrencyPolicy{{{n, 1.0}}};
  }

  /// The Franklin-like mixture observed in the paper: most bursts are
  /// fair, but some nodes serialize down to 2 or 1 streams.
  [[nodiscard]] static ConcurrencyPolicy franklin_mix() {
    return ConcurrencyPolicy{{{1, 0.25}, {2, 0.30}, {4, 0.45}}};
  }

  [[nodiscard]] std::uint32_t sample(rng::Stream& s) const;

  std::vector<Choice> choices;
  /// cumulative[i] = sum of probabilities[0..i], built once.
  std::vector<double> cumulative;
};

/// Diminishing OST efficiency as the count of distinct client nodes
/// grows (queue-depth / seek-interleaving contention):
///   eff(c) = 1 / (1 + alpha * max(0, c - knee))
struct ContentionModel {
  double alpha = 0.0;        ///< per-extra-client penalty slope
  std::uint32_t knee = 16;   ///< clients at/below this are free

  [[nodiscard]] double efficiency(std::uint32_t clients) const noexcept {
    if (clients <= knee || alpha <= 0.0) return 1.0;
    return 1.0 / (1.0 + alpha * static_cast<double>(clients - knee));
  }
};

/// Inline capture budget for flow-completion callbacks (largest
/// caller: the lustre sync-write completion closure).
inline constexpr std::size_t kFlowCallbackCapacity = 224;

/// Completion callback; captures stay in place (no heap fallback).
using FlowCallback = InlineFunction<void(FlowId), kFlowCallbackCapacity>;

/// Parameters of a new flow.
struct FlowSpec {
  NodeId node = 0;               ///< originating compute node
  Bytes bytes = 0;               ///< payload to move
  std::vector<OstId> osts;       ///< unique OSTs this flow stripes over
  Rate cap = 1e18;               ///< per-flow rate ceiling (e.g. degraded reads)
  double ost_efficiency = 1.0;   ///< multiplier on OST-side share (read penalty)
  bool scheduled = true;         ///< subject to the node token scheduler
  FlowCallback on_complete;      ///< fired when bytes drain
};

/// The network of NICs and OSTs carrying fluid flows.
class FluidNetwork {
 public:
  struct Config {
    std::vector<Rate> nic_capacity;    ///< per-node injection bandwidth
    std::vector<Rate> ost_capacity;    ///< per-OST service bandwidth
    ConcurrencyPolicy node_policy = ConcurrencyPolicy::fixed(4);
    ContentionModel contention;        ///< OST client-count contention
    std::uint64_t seed = 1;            ///< master seed for scheduler draws
  };

  FluidNetwork(Engine& engine, Config config);
  /// Cancels a pending wake and flushes the fluid.* obs counters once.
  ~FluidNetwork();

  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  /// Launch a flow. Completion (possibly delayed by queueing in the
  /// node scheduler) invokes spec.on_complete.
  FlowId start_flow(FlowSpec spec);

  /// Number of flows not yet completed (granted + waiting).
  [[nodiscard]] std::size_t active_flows() const noexcept { return active_count_; }

  /// Instantaneous rate of a flow (0 if waiting for a token or done).
  [[nodiscard]] Rate flow_rate(FlowId id) const;

  /// True while the flow exists (granted or queued). O(1): bounds +
  /// generation check.
  [[nodiscard]] bool flow_active(FlowId id) const {
    if (id == kInvalidFlow) return false;
    std::uint32_t slot = slot_of(id);
    return slot < flows_.size() && flows_[slot].generation == gen_of(id);
  }

  /// Count of granted flows currently registered on an OST.
  [[nodiscard]] std::size_t ost_flow_count(OstId ost) const;

  /// Count of distinct client nodes currently active on an OST.
  [[nodiscard]] std::size_t ost_client_count(OstId ost) const;

  /// Count of granted flows on a node (streams holding a token).
  [[nodiscard]] std::size_t node_granted(NodeId node) const;

  /// Count of flows queued behind the node's token scheduler.
  [[nodiscard]] std::size_t node_waiting(NodeId node) const;

  /// Total bytes fully drained through the network so far.
  [[nodiscard]] Bytes bytes_completed() const noexcept { return bytes_completed_; }

  /// Adjust an OST's base capacity (used by fault-injection tests).
  void set_ost_capacity(OstId ost, Rate capacity);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t ost_count() const noexcept { return osts_.size(); }

 private:
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  /// One stripe leg: an OST and the index of the flow's node group in
  /// osts_[ost].groups (valid while granted; slab indices are stable
  /// under unrelated group insert/release).
  struct Leg {
    OstId ost = 0;
    std::uint32_t group = kNoIndex;
  };

  /// Hot flow record: the fields refresh, the due-heap and resolve()
  /// touch. Reused slots keep `legs`' capacity.
  struct Flow {
    double remaining = 0.0;       ///< bytes left to move
    Rate rate = 0.0;
    Seconds last_update = 0.0;
    Rate cap = 1e18;
    double ost_efficiency = 1.0;
    std::uint64_t visit_epoch = 0;
    NodeId node = 0;
    std::uint32_t heap_pos = kNoIndex;  ///< index in due_, or kNoIndex
    std::uint32_t generation = 0;       ///< bumped when the slot is freed
    bool scheduled = true;
    bool granted = false;
    std::vector<Leg> legs;        ///< unique OSTs, ascending
  };

  /// Cold slab cell, parallel to flows_: read only at start and
  /// completion. The active list is threaded in creation order — the
  /// canonical full-scan refresh order (packed FlowIds are not
  /// monotone).
  struct FlowSlot {
    std::uint32_t next_free = kNoIndex;
    std::uint32_t prev = kNoIndex;  ///< active-list link
    std::uint32_t next = kNoIndex;  ///< active-list link
    Bytes total_bytes = 0;          ///< original payload size
    FlowCallback on_complete;
  };

  struct Node {
    Rate nic_capacity = 0.0;
    Rate nic_share = 0.0;            ///< nic_capacity / granted.size()
    std::uint32_t concurrency = 1;   ///< tokens for the current burst
    std::vector<FlowId> granted;     ///< flows holding a token
    std::vector<FlowId> waiting;     ///< flows queued for a token
  };

  /// Flow ids of one group, in grant order. The first is held in
  /// place: on wide jobs most groups hold one flow, and a recompute
  /// walks every group of a touched OST. `rest_` keeps its capacity.
  class GroupIds {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    void clear() noexcept {
      size_ = 0;
      rest_.clear();
    }
    void push_back(FlowId id) {
      if (size_++ == 0) {
        first_ = id;
      } else {
        rest_.push_back(id);
      }
    }
    /// Remove `id`, keeping the others' order; false if absent.
    bool erase(FlowId id);
    template <typename Fn>
    void for_each(Fn&& fn) const {
      if (size_ == 0) return;
      fn(first_);
      for (FlowId id : rest_) fn(id);
    }

   private:
    FlowId first_ = kInvalidFlow;
    std::uint32_t size_ = 0;
    std::vector<FlowId> rest_;  ///< ids after the first
  };

  /// Granted flows from one client node on one OST.
  struct Group {
    NodeId node = 0;
    std::uint32_t next_free = kNoIndex;
    GroupIds ids;
  };

  /// Due-heap key: when a granted flow drains at its current rate, and
  /// the engine sequence number reserved when that was computed.
  struct Due {
    Seconds when = 0.0;
    std::uint64_t seq = 0;
    [[nodiscard]] bool before(const Due& o) const noexcept {
      if (when != o.when) return when < o.when;
      return seq < o.seq;
    }
  };

  struct Ost {
    Rate capacity = 0.0;
    Rate slice = 0.0;                   ///< capacity * eff(clients) / clients
    std::vector<Group> groups;          ///< slab; indices are stable
    std::vector<Rate> shares;           ///< slice / group size, parallel to groups
    std::vector<std::uint32_t> order;   ///< live groups, sorted by node
    std::uint32_t free_head = kNoIndex; ///< group slab free list
    std::size_t flow_count = 0;
  };

  [[nodiscard]] static constexpr FlowId pack(std::uint32_t slot,
                                             std::uint32_t gen) noexcept {
    return (static_cast<FlowId>(gen) << 32) | static_cast<FlowId>(slot + 1);
  }
  [[nodiscard]] static constexpr std::uint32_t slot_of(FlowId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  [[nodiscard]] static constexpr std::uint32_t gen_of(FlowId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  [[nodiscard]] Flow& resolve(FlowId id) {
    std::uint32_t slot = slot_of(id);
    if (slot >= flows_.size() || flows_[slot].generation != gen_of(id)) [[unlikely]] {
      dead_flow(id);
    }
    return flows_[slot];
  }
  /// resolve()'s failure path, out of line so the check inlines into
  /// the recompute walk. Throws like EIO_CHECK, naming the id.
  [[noreturn]] static void dead_flow(FlowId id);
  [[nodiscard]] std::uint32_t slot_index(const Flow& f) const noexcept {
    return static_cast<std::uint32_t>(&f - flows_.data());
  }
  [[nodiscard]] FlowId id_of(const Flow& f) const noexcept {
    return pack(slot_index(f), f.generation);
  }

  /// Take a slab cell (free list first) and link it at the active-list
  /// tail. Reused cells keep their vectors' capacities.
  std::uint32_t acquire_flow_slot();
  /// Unlink from the active list (creation-order scan skips it).
  void unlink_active(std::uint32_t slot);
  /// Bump the generation and push onto the free list; container
  /// capacities are retained for the next flow.
  void release_flow_slot(std::uint32_t slot);

  /// Index into ost.groups for `node`'s group, creating (slab reuse
  /// first) and splicing into the sorted order vector if absent.
  std::uint32_t find_or_make_group(Ost& ost, NodeId node);

  /// Recompute an OST's slice and every live group's share (its
  /// client count or capacity changed).
  void update_slice(Ost& ost);
  /// Recompute one group's share after its flow count changed.
  void update_share(Ost& ost, std::uint32_t gi);
  /// Recompute a node's NIC share after its grant count changed.
  void update_nic_share(Node& n);

  void grant(Flow& f);
  void release_resources(Flow& f);
  void complete_flow(std::uint32_t slot);
  /// Settle + recompute + reschedule every granted flow touching the
  /// given node or any of the given legs' OSTs. Falls back to a full
  /// scan of granted flows when the touched set covers most of them.
  void recompute_touching(NodeId node, const std::vector<Leg>& legs);
  /// OST-only variant for capacity changes (fault windows): refreshes
  /// exactly the flows granted on `ost`, in node order, without the
  /// phantom node walk. (Not an overload of recompute_touching: NodeId
  /// and OstId are both std::uint32_t.)
  void recompute_touching_ost(OstId ost);
  /// Settle one flow, recompute its rate and re-key its completion.
  void refresh(Flow& f);
  void settle(Flow& f);
  [[nodiscard]] Rate compute_rate(const Flow& f) const;
  /// Re-key the flow in the due-heap at its current rate (a flow with
  /// no rate leaves the heap).
  void reschedule(Flow& f);
  void due_set(Flow& f, const Due& d);
  void due_erase(Flow& f);
  /// Store (d, slot) at heap position `pos` and point the flow at it.
  void due_place(std::uint32_t pos, const Due& d, std::uint32_t slot);
  /// Move (d, slot), destined for `pos`, up or down to its place.
  void sift_up(std::uint32_t pos, Due d, std::uint32_t slot);
  void sift_down(std::uint32_t pos, Due d, std::uint32_t slot);
  /// Point the engine's wake at the due-heap head (no-op if it already
  /// carries the head's key).
  void arm_wake();
  /// The wake event: complete the head flow, then re-arm.
  void wake();
  void maybe_start_burst(NodeId node);
  void pump_waiting(NodeId node);

  Engine& engine_;
  ContentionModel contention_;
  ConcurrencyPolicy policy_;
  std::vector<Node> nodes_;
  /// Per-node scheduler streams, kept apart from nodes_: each holds a
  /// 2.5 KB engine state, which inside Node would put every node's
  /// NIC share on its own distant cache line.
  std::vector<rng::Stream> node_rngs_;
  std::vector<Ost> osts_;
  std::vector<Flow> flows_;           ///< hot flow table
  std::vector<FlowSlot> flow_slots_;  ///< cold flow table, parallel
  std::uint32_t flow_free_head_ = kNoIndex;
  std::uint32_t active_head_ = kNoIndex;  ///< oldest live flow
  std::uint32_t active_tail_ = kNoIndex;  ///< newest live flow
  std::size_t active_count_ = 0;
  Bytes bytes_completed_ = 0;
  std::size_t granted_count_ = 0;
  std::uint64_t epoch_ = 0;  ///< visitation stamp for recompute dedup
  std::vector<std::uint32_t> visit_;  ///< recompute's gathered flow slots
  /// Min-heap of granted flows' keys by (when, seq), and each entry's
  /// flow slot, parallel: a sift compares keys only.
  std::vector<Due> due_;
  std::vector<std::uint32_t> due_slot_;
  EventId wake_ = kInvalidEvent;
  std::uint64_t wake_seq_ = 0;  ///< key the pending wake was armed under
  std::uint64_t refreshes_ = 0;    ///< obs fluid.refreshes, flushed once
  std::uint64_t reschedules_ = 0;  ///< obs fluid.reschedules, flushed once
  std::uint64_t recomputes_ = 0;   ///< obs fluid.recomputes, flushed once
  std::uint64_t full_scans_ = 0;   ///< obs fluid.full_scans, flushed once
};

}  // namespace eio::sim
