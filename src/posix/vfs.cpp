#include "posix/vfs.h"

#include <algorithm>

#include "common/check.h"

namespace eio::posix {

const char* op_name(OpType op) noexcept {
  switch (op) {
    case OpType::kOpen: return "open";
    case OpType::kClose: return "close";
    case OpType::kSeek: return "seek";
    case OpType::kRead: return "read";
    case OpType::kWrite: return "write";
    case OpType::kFsync: return "fsync";
    case OpType::kFault: return "fault";
  }
  return "?";
}

std::optional<OpType> op_from_name(std::string_view name) noexcept {
  for (int i = 0; i <= static_cast<int>(OpType::kFault); ++i) {
    const auto op = static_cast<OpType>(i);
    if (name == op_name(op)) return op;
  }
  return std::nullopt;
}

std::string op_names() {
  std::string names;
  for (int i = 0; i <= static_cast<int>(OpType::kFault); ++i) {
    if (i > 0) names += '|';
    names += op_name(static_cast<OpType>(i));
  }
  return names;
}

PosixIo::PosixIo(sim::RunContext& run, lustre::Filesystem& fs,
                 std::uint32_t tasks_per_node, fault::Injector* injector)
    : engine_(run.engine()),
      fs_(fs),
      injector_(injector),
      tasks_per_node_(tasks_per_node) {
  EIO_CHECK(tasks_per_node_ >= 1);
}

void PosixIo::setstripe(const std::string& path, const lustre::FileOptions& options) {
  EIO_CHECK_MSG(fs_.lookup(path) == kInvalidFile,
                "setstripe after creation: " << path);
  stripe_options_[path] = options;
}

void PosixIo::add_observer(IoObserver* observer) {
  EIO_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

void PosixIo::remove_observer(IoObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void PosixIo::notify(const CallRecord& record) {
  for (IoObserver* o : observers_) o->on_call(record);
}

void PosixIo::notify_fault(const fault::Marker& marker) {
  notify({marker.rank, OpType::kFault, -1, marker.component,
          static_cast<Bytes>(marker.kind), 0, marker.time, marker.detail});
}

PosixIo::OpenFile* PosixIo::find(RankId rank, Fd fd) {
  auto it = fds_.find(key(rank, fd));
  return it == fds_.end() ? nullptr : &it->second;
}

void PosixIo::open(RankId rank, const std::string& path, std::uint32_t flags,
                   FdCallback done) {
  Seconds start = engine_.now();
  FileId file = fs_.lookup(path);
  if (file == kInvalidFile) {
    if (!(flags & kCreate)) {
      engine_.schedule_in(fs_.syscall_latency(), [this, rank, start,
                                                  done = std::move(done)]() mutable {
        notify({rank, OpType::kOpen, -1, kInvalidFile, 0, 0, start,
                engine_.now() - start});
        done(-1);
      });
      return;
    }
    auto oit = stripe_options_.find(path);
    lustre::FileOptions options =
        oit != stripe_options_.end() ? oit->second : lustre::FileOptions{};
    file = fs_.create(path, options);
  }

  Fd fd = next_fd_.emplace(rank, 3).first->second;
  next_fd_[rank] = fd + 1;
  fds_[key(rank, fd)] = OpenFile{file, 0, flags};

  engine_.schedule_in(fs_.syscall_latency(),
                      [this, rank, fd, file, start, done = std::move(done)]() mutable {
                        notify({rank, OpType::kOpen, fd, file, 0, 0, start,
                                engine_.now() - start});
                        done(fd);
                      });
}

void PosixIo::close(RankId rank, Fd fd, StatusCallback done) {
  Seconds start = engine_.now();
  OpenFile* of = find(rank, fd);
  if (of == nullptr) {
    engine_.schedule_in(fs_.syscall_latency(), [done = std::move(done)]() mutable { done(-1); });
    return;
  }
  FileId file = of->file;
  fds_.erase(key(rank, fd));
  // Writes are write-through, so close() has nothing to flush: it
  // costs one syscall latency, like open and lseek.
  engine_.schedule_in(fs_.syscall_latency(), [this, rank, fd, file, start,
                                              done = std::move(done)]() mutable {
    notify({rank, OpType::kClose, fd, file, 0, 0, start, engine_.now() - start});
    done(0);
  });
}

void PosixIo::lseek(RankId rank, Fd fd, std::int64_t offset, Whence whence,
                    SizeCallback done) {
  Seconds start = engine_.now();
  OpenFile* of = find(rank, fd);
  if (of == nullptr) {
    engine_.schedule_in(fs_.syscall_latency(), [done = std::move(done)]() mutable { done(-1); });
    return;
  }
  std::int64_t base = 0;
  switch (whence) {
    case Whence::kSet: base = 0; break;
    case Whence::kCur: base = static_cast<std::int64_t>(of->position); break;
    case Whence::kEnd: base = static_cast<std::int64_t>(fs_.size(of->file)); break;
  }
  std::int64_t target = base + offset;
  if (target < 0) {
    engine_.schedule_in(fs_.syscall_latency(), [done = std::move(done)]() mutable { done(-1); });
    return;
  }
  of->position = static_cast<Bytes>(target);
  FileId file = of->file;
  engine_.schedule_in(
      fs_.syscall_latency(),
      [this, rank, fd, file, target, start, done = std::move(done)]() mutable {
        notify({rank, OpType::kSeek, fd, file, static_cast<Bytes>(target), 0, start,
                engine_.now() - start});
        done(target);
      });
}

void PosixIo::data_op(RankId rank, Fd fd, Bytes count, bool is_write,
                      SizeCallback done) {
  Seconds start = engine_.now();
  OpenFile* of = find(rank, fd);
  if (of == nullptr) {
    engine_.schedule_in(fs_.syscall_latency(), [done = std::move(done)]() mutable { done(-1); });
    return;
  }
  FileId file = of->file;
  Bytes offset = of->position;
  Bytes actual = count;
  if (!is_write) {
    Bytes size = fs_.size(file);
    actual = offset >= size ? 0 : std::min(count, size - offset);
  }
  of->position = offset + actual;

  auto finish = [this, rank, fd, file, offset, actual, start, is_write,
                 done = std::move(done)]() mutable {
    notify({rank, is_write ? OpType::kWrite : OpType::kRead, fd, file, offset,
            actual, start, engine_.now() - start});
    done(static_cast<std::int64_t>(actual));
  };
  NodeId node = node_of(rank);
  auto issue = [this, node, rank, file, offset, actual, is_write,
                finish = std::move(finish)]() mutable {
    // Straggler clause: a slow host's call stretches by (slowdown-1) x
    // the op's service time, charged inside the call — the traced
    // duration, the rank's drift, and the barrier order statistic all
    // see the same lag.
    Seconds issued = engine_.now();
    auto complete = [this, rank, issued, finish = std::move(finish)]() mutable {
      Seconds lag = injector_ != nullptr
                        ? injector_->straggler_lag(rank, engine_.now() - issued)
                        : 0.0;
      if (lag > 0.0) {
        engine_.schedule_in(lag, std::move(finish));
      } else {
        finish();
      }
    };
    if (is_write) {
      fs_.write(node, rank, file, offset, actual, std::move(complete));
    } else {
      fs_.read(node, rank, file, offset, actual, std::move(complete));
    }
  };
  // Transient-failure clause of the fault plan: the client retries
  // failed attempts with timeout + exponential backoff before the one
  // that sticks. `start` predates the retries, so the traced duration
  // stretches by exactly the injected delay.
  Seconds retry = injector_ != nullptr ? injector_->retry_delay(rank) : 0.0;
  if (retry > 0.0) {
    engine_.schedule_in(retry, std::move(issue));
  } else {
    issue();
  }
}

void PosixIo::read(RankId rank, Fd fd, Bytes count, SizeCallback done) {
  data_op(rank, fd, count, /*is_write=*/false, std::move(done));
}

void PosixIo::write(RankId rank, Fd fd, Bytes count, SizeCallback done) {
  data_op(rank, fd, count, /*is_write=*/true, std::move(done));
}

}  // namespace eio::posix
