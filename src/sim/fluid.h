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
// (generation << 32) | (slot + 1) — threaded onto an intrusive doubly
// linked list in creation order, which is the canonical refresh order
// for full-scan recomputes. Each OST keeps its per-client-node flow
// groups in a small slab with a parallel `order` index vector sorted
// by node id, replacing the previous hash map; recomputes walk groups
// in ascending node order (canonical) and released slots retain their
// vector capacities for reuse.
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
    return slot < flow_slots_.size() &&
           flow_slots_[slot].generation == gen_of(id);
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

  struct Flow {
    FlowId id = kInvalidFlow;
    NodeId node = 0;
    std::vector<OstId> osts;
    /// Index of this flow's node group in osts_[osts[i]].groups,
    /// parallel to `osts`; valid while granted. Slab indices are
    /// stable under unrelated group insert/release.
    std::vector<std::uint32_t> group_idx;
    Bytes total_bytes = 0;        ///< original payload size
    double remaining = 0.0;       ///< bytes left to move
    Rate cap = 1e18;
    double ost_efficiency = 1.0;
    bool scheduled = true;
    bool granted = false;
    Rate rate = 0.0;
    Seconds last_update = 0.0;
    std::uint64_t visit_epoch = 0;
    std::uint32_t heap_pos = kNoIndex;  ///< index in due_, or kNoIndex
    FlowCallback on_complete;
  };

  /// Slab cell: flow + generation tag + free-list / active-list links.
  /// The active list is threaded in creation order — the canonical
  /// full-scan refresh order (packed FlowIds are not monotone).
  struct FlowSlot {
    Flow f;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoIndex;
    std::uint32_t prev = kNoIndex;  ///< active-list link
    std::uint32_t next = kNoIndex;  ///< active-list link
  };

  struct Node {
    Rate nic_capacity = 0.0;
    std::uint32_t concurrency = 1;   ///< tokens for the current burst
    std::vector<FlowId> granted;     ///< flows holding a token
    std::vector<FlowId> waiting;     ///< flows queued for a token
    rng::Stream rng;
  };

  /// Granted flows from one client node on one OST.
  struct Group {
    NodeId node = 0;
    std::vector<FlowId> ids;
    std::uint32_t next_free = kNoIndex;
  };

  /// Due-heap entry: when a granted flow drains at its current rate,
  /// and the engine sequence number reserved when that was computed.
  struct Due {
    Seconds when = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    [[nodiscard]] bool before(const Due& o) const noexcept {
      if (when != o.when) return when < o.when;
      return seq < o.seq;
    }
  };

  struct Ost {
    Rate capacity = 0.0;
    std::vector<Group> groups;          ///< slab; indices are stable
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
    EIO_CHECK_MSG(slot < flow_slots_.size() &&
                      flow_slots_[slot].generation == gen_of(id),
                  "dead flow id " << id);
    return flow_slots_[slot].f;
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

  void grant(Flow& f);
  void release_resources(Flow& f);
  void complete_flow(FlowId id);
  /// Settle + recompute + reschedule every granted flow touching the
  /// given node or any of the given OSTs. Falls back to a full scan of
  /// granted flows when the touched set covers most of them.
  void recompute_touching(NodeId node, const std::vector<OstId>& osts);
  /// OST-only variant for capacity changes (fault windows): refreshes
  /// exactly the flows granted on `ost`, in node order, without the
  /// phantom node walk or the temp OST vector. (Not an overload of
  /// recompute_touching: NodeId and OstId are both std::uint32_t.)
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
  void due_place(std::uint32_t pos, const Due& d);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  /// Point the engine's wake at the due-heap head (no-op if it already
  /// carries the head's key).
  void arm_wake();
  /// The wake event: complete the head flow, then re-arm.
  void wake();
  void maybe_start_burst(Node& n);
  void pump_waiting(Node& n);

  Engine& engine_;
  ContentionModel contention_;
  ConcurrencyPolicy policy_;
  std::vector<Node> nodes_;
  std::vector<Ost> osts_;
  std::vector<FlowSlot> flow_slots_;
  std::uint32_t flow_free_head_ = kNoIndex;
  std::uint32_t active_head_ = kNoIndex;  ///< oldest live flow
  std::uint32_t active_tail_ = kNoIndex;  ///< newest live flow
  std::size_t active_count_ = 0;
  Bytes bytes_completed_ = 0;
  std::size_t granted_count_ = 0;
  std::uint64_t epoch_ = 0;  ///< visitation stamp for recompute dedup
  std::vector<Due> due_;     ///< min-heap of granted flows by (when, seq)
  EventId wake_ = kInvalidEvent;
  std::uint64_t wake_seq_ = 0;  ///< key the pending wake was armed under
  std::uint64_t refreshes_ = 0;    ///< obs fluid.refreshes, flushed once
  std::uint64_t reschedules_ = 0;  ///< obs fluid.reschedules, flushed once
};

}  // namespace eio::sim
