// Interception hooks for the POSIX-like I/O layer.
//
// IPM-I/O on the real machines intercepts libc calls with the GNU
// linker's `-wrap` mechanism. Here the same role is played by an
// observer registry on the simulated POSIX layer: every completed call
// is reported with its arguments and wall-clock duration, which is
// exactly the record IPM-I/O's trace entries carry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/ids.h"
#include "common/units.h"

namespace eio::posix {

/// The POSIX calls the tracer distinguishes.
enum class OpType : std::uint8_t {
  kOpen,
  kClose,
  kSeek,
  kRead,
  kWrite,
  kFsync,
  kFault,  ///< injected-fault marker emitted by fault::Injector, not a call
};

/// Printable name of an op ("write", "read", ...).
[[nodiscard]] const char* op_name(OpType op) noexcept;

/// The op op_name() prints as `name`; nullopt for any other string.
/// The one name-to-op table: trace parsers and the CLI read it.
[[nodiscard]] std::optional<OpType> op_from_name(std::string_view name) noexcept;

/// Every op name in enum order, joined by '|' ("open|close|...").
[[nodiscard]] std::string op_names();

/// One completed POSIX call, as seen by an interposed tracer.
struct CallRecord {
  RankId rank = 0;
  OpType op = OpType::kRead;
  Fd fd = -1;
  FileId file = kInvalidFile;  ///< resolved via the open-fd lookup table
  Bytes offset = 0;            ///< file offset the call acted at
  Bytes bytes = 0;             ///< bytes transferred (0 for non-data calls)
  Seconds start = 0.0;         ///< call entry timestamp
  Seconds duration = 0.0;      ///< wall time inside the call
};

/// Observer interface; implemented by eio::ipm::Monitor.
class IoObserver {
 public:
  virtual ~IoObserver() = default;
  virtual void on_call(const CallRecord& record) = 0;
};

}  // namespace eio::posix
