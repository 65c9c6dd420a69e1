#include "lustre/filesystem.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/registry.h"

namespace eio::lustre {

sim::FluidNetwork::Config Filesystem::network_config(const MachineConfig& machine,
                                                     std::uint32_t node_count,
                                                     std::uint64_t seed) {
  sim::FluidNetwork::Config cfg;
  // Extra NICs for the phantom client nodes the interference stream
  // issues from (other jobs are many distinct Lustre clients).
  std::uint32_t phantoms =
      std::max<std::uint32_t>(machine.background.phantom_nodes, 1);
  cfg.nic_capacity.assign(node_count + phantoms, machine.nic_bandwidth);
  cfg.ost_capacity.assign(machine.ost_count, machine.ost_bandwidth);
  cfg.node_policy = machine.node_policy;
  cfg.contention = machine.contention;
  cfg.seed = seed;
  return cfg;
}

Filesystem::Filesystem(sim::RunContext& run, const MachineConfig& machine,
                       std::uint32_t node_count, fault::Injector* injector)
    : engine_(run.engine()),
      injector_(injector),
      machine_(machine),
      network_(run.engine(), network_config(machine, node_count, run.seed())),
      mds_(run.engine()) {
  EIO_CHECK(node_count > 0);
  background_rng_ = run.stream(rng::StreamKind::kBackground, 0);
  nodes_.resize(node_count);
  for (std::uint32_t i = 0; i < node_count; ++i) {
    nodes_[i].noise = run.stream(rng::StreamKind::kFlowNoise, i);
    nodes_[i].straggler = run.stream(rng::StreamKind::kStraggler, i);
    nodes_[i].readahead = run.stream(rng::StreamKind::kReadahead, i);
  }
  // Slow-OST windows attach to the network as soon as it exists, so a
  // window starting at t=0 is in force before the first rank issues.
  if (injector_ != nullptr) {
    injector_->arm_storage(network_, machine_.ost_bandwidth);
  }
}

FileId Filesystem::create(std::string name, const FileOptions& options) {
  EIO_CHECK_MSG(names_.find(name) == names_.end(), "file exists: " << name);
  FileId id = next_file_++;
  FileState f;
  f.name = name;
  f.shared = options.shared;
  f.layout.stripe_size = machine_.stripe_size;
  f.layout.stripe_count =
      std::min<std::uint32_t>(std::max<std::uint32_t>(options.stripe_count, 1),
                              machine_.ost_count);
  f.layout.total_osts = machine_.ost_count;
  f.layout.start_ost = next_start_ost_;
  next_start_ost_ = (next_start_ost_ + 1) % machine_.ost_count;
  names_.emplace(std::move(name), id);
  files_.emplace(id, std::move(f));
  return id;
}

const FileLayout& Filesystem::layout(FileId file) const {
  auto it = files_.find(file);
  EIO_CHECK_MSG(it != files_.end(), "unknown file " << file);
  return it->second.layout;
}

FileId Filesystem::lookup(const std::string& name) const {
  auto it = names_.find(name);
  return it == names_.end() ? kInvalidFile : it->second;
}

Bytes Filesystem::size(FileId file) const {
  auto it = files_.find(file);
  EIO_CHECK_MSG(it != files_.end(), "size of unknown file " << file);
  return it->second.size;
}

double Filesystem::draw_slowdown(NodeState& n) {
  double factor = n.noise.noise(machine_.service_noise_sigma);
  if (machine_.straggler_probability > 0.0 &&
      n.straggler.chance(machine_.straggler_probability)) {
    factor *= n.straggler.pareto(machine_.straggler_min, machine_.straggler_alpha);
  }
  return factor;
}


void Filesystem::write(NodeId node, RankId rank, FileId file, Bytes offset,
                       Bytes length, IoCallback done) {
  // Jitter clause of the fault plan: an unlucky op stalls before the
  // storage system even sees it (server hiccup / RPC resend). The stall
  // is part of the call's critical path, so traces and summaries see it.
  if (injector_ != nullptr) {
    Seconds stall = injector_->data_op_stall(rank, /*is_write=*/true);
    if (stall > 0.0) {
      engine_.schedule_in(stall, [this, node, rank, file, offset, length,
                                  done = std::move(done)]() mutable {
        write_impl(node, rank, file, offset, length, std::move(done));
      });
      return;
    }
  }
  write_impl(node, rank, file, offset, length, std::move(done));
}

void Filesystem::write_impl(NodeId node, RankId rank, FileId file, Bytes offset,
                            Bytes length, IoCallback done) {
  (void)rank;  // writes carry no per-stream state today
  EIO_CHECK(node < nodes_.size());
  auto fit = files_.find(file);
  EIO_CHECK_MSG(fit != files_.end(), "write to unknown file " << file);
  FileState& f = fit->second;
  NodeState& n = nodes_[node];

  ++stats_.writes;
  stats_.bytes_written += length;
  OBS_COUNTER_ADD("fs.writes", 1);
  OBS_COUNTER_ADD("fs.bytes_written", length);
  f.size = std::max(f.size, offset + length);

  if (length == 0) {
    engine_.schedule_in(machine_.syscall_latency,
                        [done = std::move(done)]() mutable {
                          if (done) done();
                        });
    return;
  }

  // Sub-threshold transfers take the serialized small-I/O path
  // (metadata traffic: HDF5 headers, attributes, H5Part bookkeeping).
  if (length < machine_.small_io_threshold) {
    small_io(node, f, /*is_write=*/true, length, std::move(done));
    return;
  }

  const bool aligned = f.layout.aligned(offset, length);
  const bool locky = f.shared && !aligned;
  if (locky) f.saw_unaligned = true;

  // Unaligned shared-file writes pay read-modify-write bytes and a lock
  // round trip per stripe boundary crossed.
  double inflation = 1.0;
  Seconds pre_delay = 0.0;
  if (locky) {
    inflation += machine_.rmw_inflation;
    double crossings =
        static_cast<double>(f.layout.boundaries_crossed(offset, length)) + 1.0;
    pre_delay = machine_.lock_latency_per_boundary * crossings *
                n.noise.noise(machine_.service_noise_sigma);
  }
  start_sync_write(node, file, offset, length, pre_delay, inflation,
                   std::move(done));
}

void Filesystem::start_sync_write(NodeId node, FileId file, Bytes offset,
                                  Bytes length, Seconds pre_delay, double inflation,
                                  IoCallback done) {
  NodeState& n = nodes_[node];
  const FileState& f = files_.at(file);
  // Per-event service luck: an unlucky transfer pays a time tax
  // proportional to its own service time (server hiccups, RPC
  // retries), charged after the data movement so it extends the call's
  // critical path. Because the tax is drawn per event and scales with
  // the event, splitting a transfer into k calls averages it away —
  // the Law-of-Large-Numbers effect of Figure 2.
  double slowdown = draw_slowdown(n);
  auto bytes = static_cast<Bytes>(static_cast<double>(length) * inflation);
  bytes = std::max<Bytes>(bytes, 1);

  n.sync_in_flight += length;
  auto launch = [this, node, file, length, bytes, slowdown,
                 done = std::move(done),
                 osts = f.layout.osts_for_extent(offset, length)]() mutable {
    Seconds issued = engine_.now();
    sim::FlowSpec spec;
    spec.node = node;
    spec.bytes = bytes;
    spec.osts = std::move(osts);
    spec.on_complete = [this, node, file, length, slowdown, issued,
                        done = std::move(done)](sim::FlowId) mutable {
      NodeState& ns = nodes_[node];
      EIO_CHECK(ns.sync_in_flight >= length);
      ns.sync_in_flight -= length;
      files_.at(file).last_write_done = engine_.now();
      Seconds tax = std::max(0.0, slowdown - 1.0) * (engine_.now() - issued);
      // The written pages linger in the client cache until reclaim;
      // that residue is what the read-ahead pressure check sees. The
      // reclaim is a passive timer keyed where its event would have
      // been scheduled, so it orders against every other event exactly
      // as that event would, without ever entering the calendar.
      Bytes residue = std::min(length, machine_.dirty_residue_cap);
      expire_residue(ns);
      ns.residue += residue;
      Seconds reclaim_at = engine_.now() + machine_.dirty_residue_ttl;
      ns.reclaims.push_back(
          Reclaim{reclaim_at, engine_.reserve_passive(reclaim_at), residue});
      if (tax > 0.0) {
        engine_.schedule_in(tax, [this, file, done = std::move(done)]() mutable {
          // Write activity extends through the tax (retries are still
          // writing); keep the interleave window anchored to it.
          files_.at(file).last_write_done = engine_.now();
          if (done) done();
        });
      } else if (done) {
        done();
      }
    };
    network_.start_flow(std::move(spec));
  };
  if (pre_delay > 0.0) {
    engine_.schedule_in(pre_delay, std::move(launch));
  } else {
    launch();
  }
}

void Filesystem::start_background() {
  if (!machine_.background.enabled || background_active_) return;
  background_active_ = true;
  background_arrival();
}

void Filesystem::stop_background() {
  background_active_ = false;
  if (background_event_ != sim::kInvalidEvent) {
    engine_.cancel(background_event_);
    background_event_ = sim::kInvalidEvent;
  }
}

void Filesystem::background_arrival() {
  background_event_ = sim::kInvalidEvent;
  if (!background_active_) return;
  const BackgroundLoad& bg = machine_.background;

  // Exponential request size against `spread` random OSTs, issued from
  // the phantom client node (the last NIC).
  auto bytes = static_cast<Bytes>(
      std::max(1.0, background_rng_.exponential(
                        static_cast<double>(bg.mean_request))));
  sim::FlowSpec spec;
  std::uint32_t phantoms = std::max<std::uint32_t>(bg.phantom_nodes, 1);
  spec.node = static_cast<NodeId>(nodes_.size() +
                                  background_rng_.index(phantoms));
  spec.bytes = bytes;
  for (std::uint32_t i = 0; i < std::max<std::uint32_t>(bg.spread, 1); ++i) {
    spec.osts.push_back(
        static_cast<OstId>(background_rng_.index(machine_.ost_count)));
  }
  spec.scheduled = false;
  network_.start_flow(std::move(spec));
  background_bytes_ += bytes;

  // Poisson arrivals tuned so average injected load = intensity x
  // aggregate OST bandwidth.
  double aggregate = machine_.ost_bandwidth * machine_.ost_count;
  double rate = bg.intensity * aggregate /
                static_cast<double>(std::max<Bytes>(bg.mean_request, 1));
  Seconds gap = background_rng_.exponential(1.0 / std::max(rate, 1e-9));
  background_event_ = engine_.schedule_in(gap, [this] { background_arrival(); });
}

void Filesystem::read(NodeId node, RankId rank, FileId file, Bytes offset,
                      Bytes length, IoCallback done) {
  if (injector_ != nullptr) {
    Seconds stall = injector_->data_op_stall(rank, /*is_write=*/false);
    if (stall > 0.0) {
      engine_.schedule_in(stall, [this, node, rank, file, offset, length,
                                  done = std::move(done)]() mutable {
        read_impl(node, rank, file, offset, length, std::move(done));
      });
      return;
    }
  }
  read_impl(node, rank, file, offset, length, std::move(done));
}

void Filesystem::read_impl(NodeId node, RankId rank, FileId file, Bytes offset,
                           Bytes length, IoCallback done) {
  EIO_CHECK(node < nodes_.size());
  auto fit = files_.find(file);
  EIO_CHECK_MSG(fit != files_.end(), "read of unknown file " << file);
  FileState& f = fit->second;
  NodeState& n = nodes_[node];

  ++stats_.reads;
  stats_.bytes_read += length;
  OBS_COUNTER_ADD("fs.reads", 1);
  OBS_COUNTER_ADD("fs.bytes_read", length);

  if (length == 0) {
    engine_.schedule_in(machine_.syscall_latency,
                        [done = std::move(done)]() mutable {
                          if (done) done();
                        });
    return;
  }
  if (length < machine_.small_io_threshold) {
    small_io(node, f, /*is_write=*/false, length, std::move(done));
    return;
  }

  std::uint32_t matches = readahead_.observe(rank, file, offset, length);

  sim::FlowSpec spec;
  spec.node = node;
  spec.osts = f.layout.osts_for_extent(offset, length);
  spec.ost_efficiency = machine_.read_efficiency;
  spec.bytes = std::max<Bytes>(length, 1);

  double slowdown = 1.0;
  // The strided read-ahead defect: on the pattern's 3rd+ appearance,
  // with client memory full of dirty write pages, the enlarged window
  // degenerates into single 4 KiB page reads — and keeps growing.
  if (machine_.strided_readahead_bug && matches >= machine_.strided_trigger &&
      under_pressure(node, file)) {
    ++stats_.degraded_reads;
    OBS_COUNTER_ADD("fs.degraded_reads", 1);
    double pages = static_cast<double>(length) /
                   static_cast<double>(machine_.page_size);
    double severity =
        std::pow(machine_.readahead_growth,
                 static_cast<double>(matches - machine_.strided_trigger)) *
        n.readahead.noise(machine_.readahead_task_sigma);
    Seconds duration = pages * machine_.readahead_page_latency /
                       std::max(machine_.readahead_pipeline, 1.0) * severity;
    duration = std::max(duration, 1e-6);
    spec.cap = static_cast<double>(length) / duration;
  } else {
    slowdown = draw_slowdown(n);
  }
  Seconds issued = engine_.now();
  spec.on_complete = [this, slowdown, issued,
                      done = std::move(done)](sim::FlowId) mutable {
    Seconds tax = std::max(0.0, slowdown - 1.0) * (engine_.now() - issued);
    if (tax > 0.0) {
      if (done) engine_.schedule_in(tax, std::move(done));
    } else if (done) {
      done();
    }
  };
  network_.start_flow(std::move(spec));
}

void Filesystem::small_io(NodeId node, const FileState& f, bool is_write,
                          Bytes length, IoCallback done) {
  NodeState& n = nodes_[node];
  ++stats_.small_ops;
  OBS_COUNTER_ADD("fs.small_ops", 1);
  double meta_factor = 1.0;
  // Metadata regions of unaligned files ping-pong locks with data
  // writes; alignment calms them down (Figure 6(i) vs 6(f)).
  if (f.saw_unaligned) meta_factor = machine_.unaligned_meta_factor;
  Seconds service = machine_.small_io_base_latency * meta_factor *
                        n.noise.noise(machine_.service_noise_sigma * 2.0) +
                    static_cast<double>(length) / machine_.small_io_bandwidth;
  (void)is_write;
  mds_.submit(service, [done = std::move(done)]() mutable {
    if (done) done();
  });
}

Bytes Filesystem::expire_residue(const NodeState& n) const {
  std::vector<Reclaim>& q = n.reclaims;
  while (n.reclaim_head < q.size() &&
         engine_.passed(q[n.reclaim_head].when, q[n.reclaim_head].seq)) {
    EIO_CHECK(n.residue >= q[n.reclaim_head].bytes);
    n.residue -= q[n.reclaim_head].bytes;
    ++n.reclaim_head;
  }
  // Drop the retired prefix once it is at least half the queue, so the
  // queue stays within twice its live length and, once warm, reuses
  // its capacity without allocating.
  if (n.reclaim_head * 2 >= q.size()) {
    q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(n.reclaim_head));
    n.reclaim_head = 0;
  }
  return n.residue;
}

Bytes Filesystem::residue(NodeId node) const {
  EIO_CHECK(node < nodes_.size());
  return expire_residue(nodes_[node]);
}

bool Filesystem::under_pressure(NodeId node, FileId file) const {
  EIO_CHECK(node < nodes_.size());
  const NodeState& n = nodes_[node];
  Bytes load = expire_residue(n) + n.sync_in_flight;
  if (load >= machine_.pressure_threshold) return true;
  auto it = files_.find(file);
  if (it == files_.end()) return false;
  return engine_.now() - it->second.last_write_done <
         machine_.interleave_pressure_window;
}

}  // namespace eio::lustre
