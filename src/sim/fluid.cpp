#include "sim/fluid.h"

#include <algorithm>
#include <cmath>
#include <string>

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
  node_rngs_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].nic_capacity = config.nic_capacity[i];
    node_rngs_.push_back(rng::make_stream(factory, rng::StreamKind::kNodeScheduler, i));
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
  OBS_COUNTER_ADD("fluid.recomputes", recomputes_);
  OBS_COUNTER_ADD("fluid.full_scans", full_scans_);
}

void FluidNetwork::dead_flow(FlowId id) {
  detail::check_failed("flow_active(id)", __FILE__, __LINE__,
                       "dead flow id " + std::to_string(id));
}

bool FluidNetwork::GroupIds::erase(FlowId id) {
  if (size_ == 0) return false;
  if (first_ != id) {
    auto it = std::find(rest_.begin(), rest_.end(), id);
    if (it == rest_.end()) return false;
    rest_.erase(it);
  } else if (!rest_.empty()) {
    first_ = rest_.front();
    rest_.erase(rest_.begin());
  }
  --size_;
  return true;
}

std::uint32_t FluidNetwork::acquire_flow_slot() {
  std::uint32_t slot;
  if (flow_free_head_ != kNoIndex) {
    slot = flow_free_head_;
    flow_free_head_ = flow_slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
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
  ++flows_[slot].generation;
  FlowSlot& s = flow_slots_[slot];
  s.next_free = flow_free_head_;
  flow_free_head_ = slot;
}

FlowId FluidNetwork::start_flow(FlowSpec spec) {
  EIO_CHECK_MSG(spec.node < nodes_.size(), "bad node id " << spec.node);
  for (OstId o : spec.osts) EIO_CHECK_MSG(o < osts_.size(), "bad ost id " << o);
  EIO_CHECK_MSG(!spec.osts.empty(), "flow must touch at least one OST");

  // De-duplicate the OST set; shares are summed per unique OST.
  std::sort(spec.osts.begin(), spec.osts.end());
  spec.osts.erase(std::unique(spec.osts.begin(), spec.osts.end()), spec.osts.end());

  std::uint32_t slot = acquire_flow_slot();
  Flow& f = flows_[slot];
  FlowSlot& cell = flow_slots_[slot];
  FlowId id = pack(slot, f.generation);
  f.node = spec.node;
  // Fill the slot's retained buffer (steady state: no growth) rather
  // than adopting the spec's allocation.
  f.legs.clear();
  for (OstId o : spec.osts) f.legs.push_back(Leg{o, kNoIndex});
  cell.total_bytes = spec.bytes;
  f.remaining = static_cast<double>(spec.bytes);
  f.cap = spec.cap;
  f.ost_efficiency = spec.ost_efficiency;
  f.scheduled = spec.scheduled;
  f.granted = false;
  f.rate = 0.0;
  f.last_update = engine_.now();
  f.visit_epoch = 0;
  f.heap_pos = kNoIndex;
  cell.on_complete = std::move(spec.on_complete);

  if (f.remaining <= 0.0) {
    // Zero-byte transfer: complete on the next event boundary so the
    // caller's callback never runs re-entrantly inside start_flow. The
    // slot is returned immediately — the id was only minted so the
    // callback has a (now-dead) handle.
    auto cb = std::move(cell.on_complete);
    unlink_active(slot);
    release_flow_slot(slot);
    engine_.schedule_in(0.0, [cb = std::move(cb), id]() mutable {
      if (cb) cb(id);
    });
    return id;
  }

  maybe_start_burst(f.node);
  Node& n = nodes_[f.node];

  bool can_grant = !f.scheduled || n.granted.size() < n.concurrency;
  if (can_grant) {
    grant(f);
    recompute_touching(f.node, f.legs);
    arm_wake();
  } else {
    n.waiting.push_back(id);
  }
  return id;
}

void FluidNetwork::maybe_start_burst(NodeId node) {
  Node& n = nodes_[node];
  if (n.granted.empty() && n.waiting.empty()) {
    n.concurrency = policy_.sample(node_rngs_[node]);
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
    ost.shares.emplace_back();
  }
  Group& g = ost.groups[gi];
  g.node = node;
  g.ids.clear();  // reused cells keep their capacity
  ost.order.insert(it, gi);
  return gi;
}

void FluidNetwork::update_slice(Ost& ost) {
  std::size_t clients = ost.order.size();
  if (clients == 0) return;
  double eff = contention_.efficiency(static_cast<std::uint32_t>(clients));
  ost.slice = ost.capacity * eff / static_cast<double>(clients);
  for (std::uint32_t gi : ost.order) update_share(ost, gi);
}

void FluidNetwork::update_share(Ost& ost, std::uint32_t gi) {
  // slice / 1.0 == slice exactly, so a one-flow group (the common case
  // on wide jobs) skips the divide without moving a bit.
  std::size_t flows = ost.groups[gi].ids.size();
  ost.shares[gi] = flows == 1 ? ost.slice : ost.slice / static_cast<double>(flows);
}

void FluidNetwork::update_nic_share(Node& n) {
  if (n.granted.empty()) return;
  n.nic_share = n.nic_capacity / static_cast<double>(n.granted.size());
}

void FluidNetwork::grant(Flow& f) {
  EIO_CHECK(!f.granted);
  f.granted = true;
  ++granted_count_;
  const FlowId id = id_of(f);
  Node& n = nodes_[f.node];
  n.granted.push_back(id);
  update_nic_share(n);
  for (Leg& leg : f.legs) {
    Ost& ost = osts_[leg.ost];
    const std::size_t clients = ost.order.size();
    std::uint32_t gi = find_or_make_group(ost, f.node);
    ost.groups[gi].ids.push_back(id);
    leg.group = gi;
    ++ost.flow_count;
    if (ost.order.size() != clients) {
      update_slice(ost);
    } else {
      update_share(ost, gi);
    }
  }
}

void FluidNetwork::release_resources(Flow& f) {
  const FlowId id = id_of(f);
  Node& n = nodes_[f.node];
  if (f.granted) {
    --granted_count_;
    auto it = std::find(n.granted.begin(), n.granted.end(), id);
    EIO_CHECK(it != n.granted.end());
    n.granted.erase(it);
    update_nic_share(n);
    for (const Leg& leg : f.legs) {
      Ost& ost = osts_[leg.ost];
      std::uint32_t gi = leg.group;
      Group& g = ost.groups[gi];
      const bool erased = g.ids.erase(id);
      EIO_CHECK(erased);
      --ost.flow_count;
      if (!g.ids.empty()) {
        update_share(ost, gi);
        continue;
      }
      auto oit = std::lower_bound(
          ost.order.begin(), ost.order.end(), g.node,
          [&ost](std::uint32_t o, NodeId nn) { return ost.groups[o].node < nn; });
      EIO_CHECK(oit != ost.order.end() && *oit == gi);
      ost.order.erase(oit);
      g.next_free = ost.free_head;
      ost.free_head = gi;
      update_slice(ost);
    }
  } else {
    auto it = std::find(n.waiting.begin(), n.waiting.end(), id);
    EIO_CHECK(it != n.waiting.end());
    n.waiting.erase(it);
  }
  f.granted = false;
}

void FluidNetwork::pump_waiting(NodeId node) {
  Node& n = nodes_[node];
  while (!n.waiting.empty() && n.granted.size() < n.concurrency) {
    // Random grant order: scheduler luck is redrawn per stream, which
    // averages out over a task's successive calls (LLN, Figure 2).
    std::size_t pick = static_cast<std::size_t>(node_rngs_[node].index(n.waiting.size()));
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
  // No division: the shares are cached where their inputs change (see
  // the header), and summed in leg order.
  Rate ost_total = 0.0;
  for (const Leg& leg : f.legs) ost_total += osts_[leg.ost].shares[leg.group];
  ost_total *= f.ost_efficiency;
  return std::min({nodes_[f.node].nic_share, ost_total, f.cap});
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
  due_set(f, Due{engine_.now() + eta, engine_.reserve_seq()});
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

void FluidNetwork::due_place(std::uint32_t pos, const Due& d, std::uint32_t slot) {
  due_[pos] = d;
  due_slot_[pos] = slot;
  flows_[slot].heap_pos = pos;
}

void FluidNetwork::sift_up(std::uint32_t pos, const Due d, std::uint32_t slot) {
  while (pos > 0) {
    std::uint32_t parent = (pos - 1) / 2;
    if (!d.before(due_[parent])) break;
    due_place(pos, due_[parent], due_slot_[parent]);
    pos = parent;
  }
  due_place(pos, d, slot);
}

void FluidNetwork::sift_down(std::uint32_t pos, const Due d, std::uint32_t slot) {
  const auto n = static_cast<std::uint32_t>(due_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && due_[child + 1].before(due_[child])) ++child;
    if (!due_[child].before(d)) break;
    due_place(pos, due_[child], due_slot_[child]);
    pos = child;
  }
  due_place(pos, d, slot);
}

void FluidNetwork::due_set(Flow& f, const Due& d) {
  const std::uint32_t slot = slot_index(f);
  if (f.heap_pos == kNoIndex) {
    due_.push_back(d);
    due_slot_.push_back(slot);
    sift_up(static_cast<std::uint32_t>(due_.size() - 1), d, slot);
    return;
  }
  std::uint32_t pos = f.heap_pos;
  if (d.before(due_[pos])) {
    sift_up(pos, d, slot);
  } else {
    sift_down(pos, d, slot);
  }
}

void FluidNetwork::due_erase(Flow& f) {
  std::uint32_t pos = f.heap_pos;
  f.heap_pos = kNoIndex;
  const Due last = due_.back();
  const std::uint32_t last_slot = due_slot_.back();
  due_.pop_back();
  due_slot_.pop_back();
  if (pos == due_.size()) return;  // f was the last entry
  if (pos > 0 && last.before(due_[(pos - 1) / 2])) {
    sift_up(pos, last, last_slot);
  } else {
    sift_down(pos, last, last_slot);
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
  std::uint32_t slot = due_slot_.front();
  due_erase(flows_[slot]);
  complete_flow(slot);
  arm_wake();
}

void FluidNetwork::recompute_touching(NodeId node, const std::vector<Leg>& legs) {
  ++recomputes_;
  // When the touched resources cover most granted flows (typical for
  // full-stripe transfers where every flow uses every OST), a direct
  // scan is cheaper than gathering per-resource lists.
  std::size_t touched = nodes_[node].granted.size();
  for (const Leg& leg : legs) touched += osts_[leg.ost].flow_count;
  if (touched >= granted_count_) {
    ++full_scans_;
    // Canonical refresh order: flow creation order, i.e. the active
    // list front to back. The order flows are refreshed in fixes the
    // sequence numbers reserved for completions due at equal times, so
    // it is part of the determinism contract — it must be a
    // defined order, not an accident of hash-map iteration.
    for (std::uint32_t s = active_head_; s != kNoIndex; s = flow_slots_[s].next) {
      Flow& f = flows_[s];
      if (f.granted) refresh(f);
    }
    return;
  }

  // Two passes. The first fixes the visit list: the node's flows, then
  // each touched OST's groups in ascending node order (the `order`
  // index is sorted by node), each flow once — the same
  // canonical-order argument as the full scan above. The second
  // refreshes in that order. Refreshing never changes grants or
  // groups, so this is exactly the order one interleaved walk takes;
  // gathering first lets the walk's loads overlap, and the refresh
  // loop prefetches a few flows ahead.
  ++epoch_;
  visit_.clear();
  auto gather = [this](FlowId id) {
    Flow& f = resolve(id);
    if (f.visit_epoch == epoch_) return;
    f.visit_epoch = epoch_;
    visit_.push_back(slot_index(f));
  };
  for (FlowId id : nodes_[node].granted) gather(id);
  for (const Leg& leg : legs) {
    const Ost& ost = osts_[leg.ost];
    for (std::uint32_t gi : ost.order) {
      ost.groups[gi].ids.for_each(gather);
    }
  }
  constexpr std::size_t kAhead = 4;
  const std::size_t n = visit_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) {
      const Flow& ahead = flows_[visit_[i + kAhead]];
      __builtin_prefetch(ahead.legs.data());
      if (ahead.heap_pos != kNoIndex) __builtin_prefetch(&due_[ahead.heap_pos]);
    }
    refresh(flows_[visit_[i]]);
  }
}

void FluidNetwork::complete_flow(std::uint32_t slot) {
  Flow& f = flows_[slot];
  const FlowId id = id_of(f);
  settle(f);
  // The wake fires exactly at remaining/rate; any residue is
  // floating-point noise.
  EIO_DCHECK(f.remaining < 1.0);
  EIO_DCHECK(f.heap_pos == kNoIndex);
  FlowSlot& cell = flow_slots_[slot];
  bytes_completed_ += cell.total_bytes;

  NodeId node = f.node;
  FlowCallback on_complete = std::move(cell.on_complete);

  release_resources(f);
  // Off the active list before recomputing, so the full scan no longer
  // sees the completing flow; the slot itself (and f.legs) stays alive
  // until after the recompute, which still needs the OST list.
  unlink_active(slot);

  pump_waiting(node);
  recompute_touching(node, f.legs);

  // No start_flow can have happened since unlinking (grant/refresh
  // never re-enter user code), so the slot is still ours to return.
  release_flow_slot(slot);
  if (on_complete) on_complete(id);
}

Rate FluidNetwork::flow_rate(FlowId id) const {
  if (!flow_active(id)) return 0.0;
  return flows_[slot_of(id)].rate;
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
  update_slice(osts_[ost]);
  recompute_touching_ost(ost);
  arm_wake();
}

void FluidNetwork::recompute_touching_ost(OstId ost) {
  ++recomputes_;
  // Only flows granted on this OST can see a rate change; a flow
  // appears in exactly one node group, so no visit dedup is needed and
  // no other flow is settled (touching an unrelated flow would perturb
  // its floating-point remaining-bytes trajectory). Groups come out in
  // ascending node order — the canonical order.
  const Ost& o = osts_[ost];
  for (std::uint32_t gi : o.order) {
    o.groups[gi].ids.for_each([this](FlowId id) { refresh(resolve(id)); });
  }
}

}  // namespace eio::sim
