#include "sim/fluid.h"

#include <algorithm>
#include <cmath>

namespace eio::sim {

ConcurrencyPolicy::ConcurrencyPolicy(std::vector<Choice> cs)
    : choices(std::move(cs)) {
  EIO_CHECK_MSG(!choices.empty(), "empty concurrency policy");
  cumulative.reserve(choices.size());
  // The partial sums must be the exact sequence the old per-sample
  // accumulation produced, so draws stay bit-identical.
  double acc = 0.0;
  for (const Choice& c : choices) {
    EIO_CHECK_MSG(c.probability > 0.0,
                  "concurrency probability must be positive, got "
                      << c.probability << " for streams=" << c.streams);
    acc += c.probability;
    cumulative.push_back(acc);
  }
  EIO_CHECK_MSG(std::abs(acc - 1.0) <= 1e-9,
                "concurrency probabilities sum to " << acc << ", expected 1");
}

std::uint32_t ConcurrencyPolicy::sample(rng::Stream& s) const {
  EIO_CHECK_MSG(!choices.empty(), "empty concurrency policy");
  double u = s.uniform();
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    if (u < cumulative[i]) return choices[i].streams;
  }
  // Unreachable for valid policies (sum == 1) unless u lands in the
  // rounding sliver at the top; keep the historical fallback.
  return choices.back().streams;
}

FluidNetwork::FluidNetwork(Engine& engine, Config config)
    : engine_(engine),
      contention_(config.contention),
      policy_(std::move(config.node_policy)) {
  EIO_CHECK(!config.nic_capacity.empty());
  EIO_CHECK(!config.ost_capacity.empty());
  rng::StreamFactory factory(config.seed);
  nodes_.resize(config.nic_capacity.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].nic_capacity = config.nic_capacity[i];
    nodes_[i].rng = rng::make_stream(factory, rng::StreamKind::kNodeScheduler, i);
    EIO_CHECK(nodes_[i].nic_capacity > 0.0);
  }
  osts_.resize(config.ost_capacity.size());
  for (std::size_t i = 0; i < osts_.size(); ++i) {
    osts_[i].capacity = config.ost_capacity[i];
    EIO_CHECK(osts_[i].capacity > 0.0);
  }
}

FluidNetwork::~FluidNetwork() {
  engine_.cancel(wake_);
  OBS_COUNTER_ADD("fluid.refreshes", refreshes_);
  OBS_COUNTER_ADD("fluid.reschedules", reschedules_);
}

std::uint32_t FluidNetwork::acquire_flow_slot() {
  std::uint32_t slot;
  if (flow_free_head_ != kNoIndex) {
    slot = flow_free_head_;
    flow_free_head_ = flow_slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(flow_slots_.size());
    flow_slots_.emplace_back();
  }
  FlowSlot& s = flow_slots_[slot];
  s.prev = active_tail_;
  s.next = kNoIndex;
  if (active_tail_ != kNoIndex) {
    flow_slots_[active_tail_].next = slot;
  } else {
    active_head_ = slot;
  }
  active_tail_ = slot;
  ++active_count_;
  return slot;
}

void FluidNetwork::unlink_active(std::uint32_t slot) {
  FlowSlot& s = flow_slots_[slot];
  if (s.prev != kNoIndex) {
    flow_slots_[s.prev].next = s.next;
  } else {
    active_head_ = s.next;
  }
  if (s.next != kNoIndex) {
    flow_slots_[s.next].prev = s.prev;
  } else {
    active_tail_ = s.prev;
  }
  s.prev = s.next = kNoIndex;
  --active_count_;
}

void FluidNetwork::release_flow_slot(std::uint32_t slot) {
  FlowSlot& s = flow_slots_[slot];
  ++s.generation;
  s.next_free = flow_free_head_;
  flow_free_head_ = slot;
}

FlowId FluidNetwork::start_flow(FlowSpec spec) {
  EIO_CHECK_MSG(spec.node < nodes_.size(), "bad node id " << spec.node);
  for (OstId o : spec.osts) EIO_CHECK_MSG(o < osts_.size(), "bad ost id " << o);
  EIO_CHECK_MSG(!spec.osts.empty(), "flow must touch at least one OST");

  std::uint32_t slot = acquire_flow_slot();
  FlowSlot& cell = flow_slots_[slot];
  FlowId id = pack(slot, cell.generation);
  Flow& f = cell.f;
  f.id = id;
  f.node = spec.node;
  // Copy into the slot's retained buffer (steady state: no growth)
  // rather than adopting the spec's allocation.
  f.osts.assign(spec.osts.begin(), spec.osts.end());
  // De-duplicate the OST set; shares are computed per unique OST.
  std::sort(f.osts.begin(), f.osts.end());
  f.osts.erase(std::unique(f.osts.begin(), f.osts.end()), f.osts.end());
  f.group_idx.clear();
  f.group_idx.reserve(f.osts.size());
  f.total_bytes = spec.bytes;
  f.remaining = static_cast<double>(spec.bytes);
  f.cap = spec.cap;
  f.ost_efficiency = spec.ost_efficiency;
  f.scheduled = spec.scheduled;
  f.granted = false;
  f.rate = 0.0;
  f.last_update = engine_.now();
  f.visit_epoch = 0;
  f.heap_pos = kNoIndex;
  f.on_complete = std::move(spec.on_complete);

  if (f.remaining <= 0.0) {
    // Zero-byte transfer: complete on the next event boundary so the
    // caller's callback never runs re-entrantly inside start_flow. The
    // slot is returned immediately — the id was only minted so the
    // callback has a (now-dead) handle.
    auto cb = std::move(f.on_complete);
    unlink_active(slot);
    release_flow_slot(slot);
    engine_.schedule_in(0.0, [cb = std::move(cb), id]() mutable {
      if (cb) cb(id);
    });
    return id;
  }

  Node& n = nodes_[f.node];
  maybe_start_burst(n);

  bool can_grant = !f.scheduled || n.granted.size() < n.concurrency;
  if (can_grant) {
    grant(f);
    recompute_touching(f.node, f.osts);
    arm_wake();
  } else {
    n.waiting.push_back(id);
  }
  return id;
}

void FluidNetwork::maybe_start_burst(Node& n) {
  if (n.granted.empty() && n.waiting.empty()) {
    n.concurrency = policy_.sample(n.rng);
    EIO_CHECK(n.concurrency >= 1);
  }
}

std::uint32_t FluidNetwork::find_or_make_group(Ost& ost, NodeId node) {
  auto it = std::lower_bound(
      ost.order.begin(), ost.order.end(), node,
      [&ost](std::uint32_t gi, NodeId n) { return ost.groups[gi].node < n; });
  if (it != ost.order.end() && ost.groups[*it].node == node) return *it;
  std::uint32_t gi;
  if (ost.free_head != kNoIndex) {
    gi = ost.free_head;
    ost.free_head = ost.groups[gi].next_free;
  } else {
    gi = static_cast<std::uint32_t>(ost.groups.size());
    ost.groups.emplace_back();
  }
  Group& g = ost.groups[gi];
  g.node = node;
  g.ids.clear();  // reused cells keep their capacity
  ost.order.insert(it, gi);
  return gi;
}

void FluidNetwork::grant(Flow& f) {
  EIO_CHECK(!f.granted);
  f.granted = true;
  ++granted_count_;
  Node& n = nodes_[f.node];
  n.granted.push_back(f.id);
  f.group_idx.clear();
  f.group_idx.reserve(f.osts.size());
  for (OstId o : f.osts) {
    Ost& ost = osts_[o];
    std::uint32_t gi = find_or_make_group(ost, f.node);
    ost.groups[gi].ids.push_back(f.id);
    f.group_idx.push_back(gi);
    ++ost.flow_count;
  }
}

void FluidNetwork::release_resources(Flow& f) {
  Node& n = nodes_[f.node];
  if (f.granted) {
    --granted_count_;
    auto it = std::find(n.granted.begin(), n.granted.end(), f.id);
    EIO_CHECK(it != n.granted.end());
    n.granted.erase(it);
    for (std::size_t i = 0; i < f.osts.size(); ++i) {
      Ost& ost = osts_[f.osts[i]];
      std::uint32_t gi = f.group_idx[i];
      Group& g = ost.groups[gi];
      auto fit = std::find(g.ids.begin(), g.ids.end(), f.id);
      EIO_CHECK(fit != g.ids.end());
      g.ids.erase(fit);
      if (g.ids.empty()) {
        auto oit = std::lower_bound(
            ost.order.begin(), ost.order.end(), g.node,
            [&ost](std::uint32_t o, NodeId nn) { return ost.groups[o].node < nn; });
        EIO_CHECK(oit != ost.order.end() && *oit == gi);
        ost.order.erase(oit);
        g.next_free = ost.free_head;
        ost.free_head = gi;
      }
      --ost.flow_count;
    }
    f.group_idx.clear();
  } else {
    auto it = std::find(n.waiting.begin(), n.waiting.end(), f.id);
    EIO_CHECK(it != n.waiting.end());
    n.waiting.erase(it);
  }
  f.granted = false;
}

void FluidNetwork::pump_waiting(Node& n) {
  while (!n.waiting.empty() && n.granted.size() < n.concurrency) {
    // Random grant order: scheduler luck is redrawn per stream, which
    // averages out over a task's successive calls (LLN, Figure 2).
    std::size_t pick = static_cast<std::size_t>(n.rng.index(n.waiting.size()));
    FlowId id = n.waiting[pick];
    n.waiting.erase(n.waiting.begin() + static_cast<std::ptrdiff_t>(pick));
    grant(resolve(id));
  }
}

void FluidNetwork::settle(Flow& f) {
  Seconds now = engine_.now();
  double dt = now - f.last_update;
  if (dt > 0.0 && f.rate > 0.0) {
    f.remaining = std::max(0.0, f.remaining - f.rate * dt);
  }
  f.last_update = now;
}

Rate FluidNetwork::compute_rate(const Flow& f) const {
  if (!f.granted) return 0.0;
  const Node& n = nodes_[f.node];
  EIO_DCHECK(!n.granted.empty());
  Rate nic_share = n.nic_capacity / static_cast<double>(n.granted.size());

  Rate ost_total = 0.0;
  for (std::size_t i = 0; i < f.osts.size(); ++i) {
    const Ost& ost = osts_[f.osts[i]];
    std::size_t clients = ost.order.size();
    EIO_DCHECK(clients >= 1);
    double eff = contention_.efficiency(static_cast<std::uint32_t>(clients));
    Rate node_slice = ost.capacity * eff / static_cast<double>(clients);
    const Group& g = ost.groups[f.group_idx[i]];
    EIO_DCHECK(!g.ids.empty());
    ost_total += node_slice / static_cast<double>(g.ids.size());
  }
  ost_total *= f.ost_efficiency;

  return std::min({nic_share, ost_total, f.cap});
}

void FluidNetwork::reschedule(Flow& f) {
  ++reschedules_;
  if (f.rate <= 0.0) {  // a flow with no rate is never due
    if (f.heap_pos != kNoIndex) due_erase(f);
    return;
  }
  // The same arithmetic and sequence draw a per-flow
  // schedule_in(remaining / rate) would make, so keys tie identically.
  Seconds eta = f.remaining / f.rate;
  due_set(f, Due{engine_.now() + eta, engine_.reserve_seq(), slot_of(f.id)});
}

void FluidNetwork::refresh(Flow& f) {
  ++refreshes_;
  settle(f);
  Rate rate = compute_rate(f);
  // If the rate is unchanged, the flow's due key is still exact
  // (settle advanced last_update by exactly rate*dt), so it keeps it.
  if (rate == f.rate && f.heap_pos != kNoIndex) return;
  f.rate = rate;
  reschedule(f);
}

void FluidNetwork::due_place(std::uint32_t pos, const Due& d) {
  due_[pos] = d;
  flow_slots_[d.slot].f.heap_pos = pos;
}

void FluidNetwork::sift_up(std::uint32_t pos) {
  const Due d = due_[pos];
  while (pos > 0) {
    std::uint32_t parent = (pos - 1) / 2;
    if (!d.before(due_[parent])) break;
    due_place(pos, due_[parent]);
    pos = parent;
  }
  due_place(pos, d);
}

void FluidNetwork::sift_down(std::uint32_t pos) {
  const Due d = due_[pos];
  const auto n = static_cast<std::uint32_t>(due_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && due_[child + 1].before(due_[child])) ++child;
    if (!due_[child].before(d)) break;
    due_place(pos, due_[child]);
    pos = child;
  }
  due_place(pos, d);
}

void FluidNetwork::due_set(Flow& f, const Due& d) {
  if (f.heap_pos == kNoIndex) {
    due_.push_back(d);
    sift_up(static_cast<std::uint32_t>(due_.size() - 1));
    return;
  }
  std::uint32_t pos = f.heap_pos;
  bool earlier = d.before(due_[pos]);
  due_[pos] = d;
  if (earlier) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void FluidNetwork::due_erase(Flow& f) {
  std::uint32_t pos = f.heap_pos;
  f.heap_pos = kNoIndex;
  const Due last = due_.back();
  due_.pop_back();
  if (pos == due_.size()) return;  // f was the last entry
  due_place(pos, last);
  if (pos > 0 && last.before(due_[(pos - 1) / 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void FluidNetwork::arm_wake() {
  if (engine_.pending(wake_)) {
    if (!due_.empty() && due_.front().seq == wake_seq_) return;
    engine_.cancel(wake_);
  }
  if (due_.empty()) return;
  // Reserved sequence numbers are unique, so the seq alone names the
  // head's key.
  wake_seq_ = due_.front().seq;
  wake_ = engine_.schedule_keyed(due_.front().when, wake_seq_, [this] { wake(); });
}

void FluidNetwork::wake() {
  Flow& f = flow_slots_[due_.front().slot].f;
  due_erase(f);
  complete_flow(f.id);
  arm_wake();
}

void FluidNetwork::recompute_touching(NodeId node, const std::vector<OstId>& osts) {
  // When the touched resources cover most granted flows (typical for
  // full-stripe transfers where every flow uses every OST), a direct
  // scan is cheaper than gathering per-resource lists.
  std::size_t touched = nodes_[node].granted.size();
  for (OstId o : osts) touched += osts_[o].flow_count;
  if (touched >= granted_count_) {
    // Canonical refresh order: flow creation order, i.e. the active
    // list front to back. The order flows are refreshed in fixes the
    // sequence numbers reserved for completions due at equal times, so
    // it is part of the determinism contract — it must be a
    // defined order, not an accident of hash-map iteration.
    for (std::uint32_t s = active_head_; s != kNoIndex; s = flow_slots_[s].next) {
      Flow& f = flow_slots_[s].f;
      if (f.granted) refresh(f);
    }
    return;
  }

  ++epoch_;
  auto visit = [this](FlowId id) {
    Flow& f = resolve(id);
    if (f.visit_epoch == epoch_) return;
    f.visit_epoch = epoch_;
    refresh(f);
  };
  for (FlowId id : nodes_[node].granted) visit(id);
  // Per-OST groups visited in ascending node order (the `order` index
  // is sorted by node) — the same canonical-order argument as the full
  // scan above.
  for (OstId o : osts) {
    const Ost& ost = osts_[o];
    for (std::uint32_t gi : ost.order) {
      for (FlowId id : ost.groups[gi].ids) visit(id);
    }
  }
}

void FluidNetwork::complete_flow(FlowId id) {
  std::uint32_t slot = slot_of(id);
  EIO_CHECK(slot < flow_slots_.size() &&
            flow_slots_[slot].generation == gen_of(id));
  Flow& f = flow_slots_[slot].f;
  settle(f);
  // The wake fires exactly at remaining/rate; any residue is
  // floating-point noise.
  EIO_DCHECK(f.remaining < 1.0);
  EIO_DCHECK(f.heap_pos == kNoIndex);
  bytes_completed_ += f.total_bytes;

  NodeId node = f.node;
  FlowCallback on_complete = std::move(f.on_complete);

  release_resources(f);
  // Off the active list before recomputing, so the full scan no longer
  // sees the completing flow; the slot itself (and f.osts) stays alive
  // until after the recompute, which still needs the OST list.
  unlink_active(slot);

  Node& n = nodes_[node];
  pump_waiting(n);
  recompute_touching(node, f.osts);

  // No start_flow can have happened since unlinking (grant/refresh
  // never re-enter user code), so the slot is still ours to return.
  release_flow_slot(slot);
  if (on_complete) on_complete(id);
}

Rate FluidNetwork::flow_rate(FlowId id) const {
  if (!flow_active(id)) return 0.0;
  return flow_slots_[slot_of(id)].f.rate;
}

std::size_t FluidNetwork::ost_flow_count(OstId ost) const {
  EIO_CHECK(ost < osts_.size());
  return osts_[ost].flow_count;
}

std::size_t FluidNetwork::ost_client_count(OstId ost) const {
  EIO_CHECK(ost < osts_.size());
  return osts_[ost].order.size();
}

std::size_t FluidNetwork::node_granted(NodeId node) const {
  EIO_CHECK(node < nodes_.size());
  return nodes_[node].granted.size();
}

std::size_t FluidNetwork::node_waiting(NodeId node) const {
  EIO_CHECK(node < nodes_.size());
  return nodes_[node].waiting.size();
}

void FluidNetwork::set_ost_capacity(OstId ost, Rate capacity) {
  EIO_CHECK(ost < osts_.size());
  EIO_CHECK(capacity > 0.0);
  osts_[ost].capacity = capacity;
  recompute_touching_ost(ost);
  arm_wake();
}

void FluidNetwork::recompute_touching_ost(OstId ost) {
  // Only flows granted on this OST can see a rate change; a flow
  // appears in exactly one node group, so no visit dedup is needed and
  // no other flow is settled (touching an unrelated flow would perturb
  // its floating-point remaining-bytes trajectory). Groups come out in
  // ascending node order — the canonical order.
  const Ost& o = osts_[ost];
  for (std::uint32_t gi : o.order) {
    for (FlowId id : o.groups[gi].ids) {
      refresh(resolve(id));
    }
  }
}

}  // namespace eio::sim
