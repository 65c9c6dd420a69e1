// Per-rank I/O programs.
//
// A workload is expressed as one `Program` per rank: a straight-line
// sequence of POSIX calls, barriers, timed compute, phase markers, and
// group-gather collectives. This mirrors how the paper's applications
// behave once computation is stripped away (MADbench is run with
// "all computation and communication effectively turned off").
//
// A job's programs are built once and then frozen into a `ProgramSet`:
// immutable and shared, so every copy of the job (one per ensemble run)
// and every run's runtime read the same ops in place.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace eio::mpi {

/// Rank-local index of an open file handle (programs may hold several).
using FileSlot = std::uint32_t;

namespace op {

/// open(path, flags); the resulting fd is stored in `slot`. `path`
/// indexes the owning Program's path table (Program::path), which keeps
/// every op a few words wide.
struct Open {
  FileSlot slot = 0;
  std::uint32_t path = 0;
  bool create = true;
};

/// close(slot).
struct Close {
  FileSlot slot = 0;
};

/// lseek(slot, offset, SEEK_SET).
struct Seek {
  FileSlot slot = 0;
  Bytes offset = 0;
};

/// read(slot, bytes) at the current position.
struct Read {
  FileSlot slot = 0;
  Bytes bytes = 0;
};

/// write(slot, bytes) at the current position.
struct Write {
  FileSlot slot = 0;
  Bytes bytes = 0;
};

/// MPI_Barrier over all ranks in the job.
struct Barrier {};

/// Spin for a fixed amount of simulated time.
struct Compute {
  Seconds duration = 0.0;
};

/// Tag subsequent trace events with a phase label (IPM region).
struct Phase {
  std::int32_t phase = 0;
};

/// Collective-buffering stage one: ranks in consecutive groups of
/// `group_size` ship `bytes_per_rank` to the group root over the
/// interconnect. Every participant blocks until its group completes.
struct Gather {
  std::uint32_t group_size = 1;
  Bytes bytes_per_rank = 0;
};

}  // namespace op

/// One program step.
using Op = std::variant<op::Open, op::Close, op::Seek, op::Read, op::Write,
                        op::Barrier, op::Compute, op::Phase, op::Gather>;

// A 2,560-rank GCRM job holds about 200k ops: keep them three words.
static_assert(sizeof(Op) <= 24, "mpi::Op grew past 24 bytes");

class ProgramSet;

/// A rank's full instruction sequence.
class Program {
 public:
  Program& open(FileSlot slot, std::string path, bool create = true) {
    auto it = std::find(paths_.begin(), paths_.end(), path);
    auto index = static_cast<std::uint32_t>(it - paths_.begin());
    if (it == paths_.end()) paths_.push_back(std::move(path));
    ops_.emplace_back(op::Open{slot, index, create});
    return *this;
  }
  Program& close(FileSlot slot) {
    ops_.emplace_back(op::Close{slot});
    return *this;
  }
  Program& seek(FileSlot slot, Bytes offset) {
    ops_.emplace_back(op::Seek{slot, offset});
    return *this;
  }
  Program& read(FileSlot slot, Bytes bytes) {
    ops_.emplace_back(op::Read{slot, bytes});
    return *this;
  }
  Program& write(FileSlot slot, Bytes bytes) {
    ops_.emplace_back(op::Write{slot, bytes});
    return *this;
  }
  Program& barrier() {
    ops_.emplace_back(op::Barrier{});
    return *this;
  }
  Program& compute(Seconds duration) {
    ops_.emplace_back(op::Compute{duration});
    return *this;
  }
  Program& phase(std::int32_t phase) {
    ops_.emplace_back(op::Phase{phase});
    return *this;
  }
  Program& gather(std::uint32_t group_size, Bytes bytes_per_rank) {
    ops_.emplace_back(op::Gather{group_size, bytes_per_rank});
    return *this;
  }

  [[nodiscard]] const std::vector<Op>& ops() const noexcept { return ops_; }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  /// The path an Open op names.
  [[nodiscard]] const std::string& path(const op::Open& o) const {
    return paths_.at(o.path);
  }

 private:
  friend class ProgramSet;

  /// Release spare capacity once the program is frozen into a set.
  void shrink_to_fit() {
    ops_.shrink_to_fit();
    paths_.shrink_to_fit();
  }

  std::vector<Op> ops_;
  std::vector<std::string> paths_;  ///< distinct paths, in first-open order
};

/// One program per rank, immutable once built. Copies share the
/// programs (copying a ProgramSet copies a pointer), so a job copied
/// per ensemble run still holds its ops exactly once.
class ProgramSet {
 public:
  ProgramSet() = default;
  /// Freeze `programs` (one per rank), trimming their spare capacity.
  ProgramSet(std::vector<Program> programs) {  // NOLINT(google-explicit-constructor)
    for (Program& p : programs) p.shrink_to_fit();
    programs_ = std::make_shared<const std::vector<Program>>(std::move(programs));
  }
  ProgramSet(std::initializer_list<Program> programs)
      : ProgramSet(std::vector<Program>(programs)) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return programs_ ? programs_->size() : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const Program& operator[](std::size_t rank) const {
    return (*programs_)[rank];
  }
  /// Rank 0's program; equal across copies that share the same set.
  [[nodiscard]] const Program* data() const noexcept {
    return programs_ ? programs_->data() : nullptr;
  }

 private:
  std::shared_ptr<const std::vector<Program>> programs_;
};

}  // namespace eio::mpi
