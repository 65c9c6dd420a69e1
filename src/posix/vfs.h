// POSIX-like I/O surface over the simulated file system.
//
// Each MPI rank has its own descriptor table (as separate processes
// would); calls are asynchronous because they advance simulated time.
// Completion callbacks deliver the usual POSIX results (byte counts,
// new offsets, -1 on error). Registered IoObservers see every completed
// call with its duration — the interception point the tracer uses.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "fault/injector.h"
#include "lustre/filesystem.h"
#include "posix/hooks.h"
#include "sim/engine.h"
#include "sim/run_context.h"

namespace eio::posix {

/// Flags for open(); combined with |.
enum OpenFlags : std::uint32_t {
  kRdOnly = 0,
  kWrOnly = 1u << 0,
  kRdWr = 1u << 1,
  kCreate = 1u << 2,
};

/// Seek origin.
enum class Whence : std::uint8_t { kSet, kCur, kEnd };

/// The simulated POSIX layer.
class PosixIo {
 public:
  // Completion callbacks are inline (no heap) and move-only: the MPI
  // runtime and workload drivers capture a handful of words, and a
  // std::function here heap-allocated on every simulated call.
  using SizeCallback = sim::InlineFunction<void(std::int64_t), 40>;  ///< bytes or -1
  using FdCallback = sim::InlineFunction<void(Fd), 40>;              ///< fd or -1
  using StatusCallback = sim::InlineFunction<void(int), 40>;         ///< 0 or -1

  /// `tasks_per_node` maps ranks onto client nodes (rank / tasks_per_node).
  /// `run` must be the same run context the filesystem was built on.
  /// `injector` (optional, not owned, same run) injects transient op
  /// failures: a faulted data op pays its retry timeouts + backoff
  /// before being issued, so the traced call duration includes them.
  PosixIo(sim::RunContext& run, lustre::Filesystem& fs,
          std::uint32_t tasks_per_node, fault::Injector* injector = nullptr);

  PosixIo(const PosixIo&) = delete;
  PosixIo& operator=(const PosixIo&) = delete;

  /// Pre-declare striping/sharing options for a path (the moral
  /// equivalent of `lfs setstripe`). Must be called before the file is
  /// first created.
  void setstripe(const std::string& path, const lustre::FileOptions& options);

  void open(RankId rank, const std::string& path, std::uint32_t flags, FdCallback done);
  void close(RankId rank, Fd fd, StatusCallback done);
  /// Returns the resulting absolute offset (or -1).
  void lseek(RankId rank, Fd fd, std::int64_t offset, Whence whence, SizeCallback done);
  void read(RankId rank, Fd fd, Bytes count, SizeCallback done);
  void write(RankId rank, Fd fd, Bytes count, SizeCallback done);

  /// Register a call observer (not owned). Observers fire on completion.
  void add_observer(IoObserver* observer);
  void remove_observer(IoObserver* observer);

  /// Surface an injected fault to the observers as an OpType::kFault
  /// record (file = component, offset = fault kind, duration = the
  /// injected delay). This is how fault markers enter the IPM pipeline
  /// and every downstream trace format and scan.
  void notify_fault(const fault::Marker& marker);

  /// Node hosting a rank.
  [[nodiscard]] NodeId node_of(RankId rank) const noexcept {
    return rank / tasks_per_node_;
  }

  [[nodiscard]] lustre::Filesystem& filesystem() noexcept { return fs_; }

  /// Number of fds currently open across all ranks.
  [[nodiscard]] std::size_t open_fd_count() const noexcept { return fds_.size(); }

 private:
  struct OpenFile {
    FileId file = kInvalidFile;
    Bytes position = 0;
    std::uint32_t flags = 0;
  };

  [[nodiscard]] static std::uint64_t key(RankId rank, Fd fd) noexcept {
    return (static_cast<std::uint64_t>(rank) << 32) |
           static_cast<std::uint32_t>(fd);
  }
  OpenFile* find(RankId rank, Fd fd);
  void notify(const CallRecord& record);
  void data_op(RankId rank, Fd fd, Bytes count, bool is_write,
               SizeCallback done);

  sim::Engine& engine_;
  lustre::Filesystem& fs_;
  fault::Injector* injector_;  ///< optional, not owned, same run
  std::uint32_t tasks_per_node_;
  std::unordered_map<std::uint64_t, OpenFile> fds_;
  std::unordered_map<RankId, Fd> next_fd_;
  std::unordered_map<std::string, lustre::FileOptions> stripe_options_;
  std::vector<IoObserver*> observers_;
};

}  // namespace eio::posix
