#include "core/patterns.h"

#include <algorithm>
#include <sstream>

#include "core/kernel.h"
#include "core/parallel_analysis.h"
#include "ipm/trace_source.h"

namespace eio::analysis {

namespace {

/// Streams shorter than this are skipped.
constexpr std::size_t kMinAccesses = 4;
/// Gap agreement a stream needs to count as sequential or strided.
constexpr double kStrideConfidence = 0.6;
/// The stripe transfers are checked against for alignment.
constexpr Bytes kStripe = 1 * MiB;

}  // namespace

static_assert(Kernel<PatternsKernel>);

const char* pattern_name(AccessPattern pattern) noexcept {
  switch (pattern) {
    case AccessPattern::kSequential: return "sequential";
    case AccessPattern::kStrided: return "strided";
    case AccessPattern::kRandom: return "random";
  }
  return "?";
}

void PatternsKernel::add_batch(const ipm::ColumnBatch& b) {
  flush();  // a kernel fed batch after batch groups as it goes
  for (std::size_t i = 0; i < b.size(); ++i) {
    const auto op = static_cast<posix::OpType>(b.op[i]);
    if (op != posix::OpType::kRead && op != posix::OpType::kWrite) continue;
    if (b.bytes[i] == 0) continue;
    pending_.push_back({{b.rank[i], b.file[i], op}, {b.offset[i], b.bytes[i]}});
  }
}

void PatternsKernel::flush() {
  // Traces often hold runs of one stream; look the map up only when
  // the stream changes.
  std::vector<Access>* stream = nullptr;
  StreamKey last{};
  for (const Row& row : pending_) {
    if (stream == nullptr || row.key != last) {
      stream = &streams_[row.key];
      last = row.key;
    }
    stream->push_back(row.access);
  }
  pending_.clear();
}

void PatternsKernel::merge(PatternsKernel&& later) {
  flush();
  // Grouped rows of `later` precede its pending ones.
  for (auto& [key, accesses] : later.streams_) {
    auto [it, fresh] = streams_.try_emplace(key);
    if (fresh) {
      it->second = std::move(accesses);
    } else {
      it->second.insert(it->second.end(), accesses.begin(), accesses.end());
    }
  }
  pending_ = std::move(later.pending_);
  flush();
}

std::vector<StreamPattern> PatternsKernel::finish() {
  flush();
  std::vector<StreamPattern> out;
  for (const auto& [key, accesses] : streams_) {
    if (accesses.size() < kMinAccesses) continue;

    StreamPattern sp;
    sp.rank = key.rank;
    sp.file = key.file;
    sp.op = key.op;
    sp.accesses = accesses.size();

    // Median access size.
    std::vector<Bytes> sizes;
    sizes.reserve(accesses.size());
    for (const Access& a : accesses) sizes.push_back(a.bytes);
    std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2, sizes.end());
    sp.typical_size = sizes[sizes.size() / 2];

    // Alignment of every access against the stripe.
    sp.stripe_aligned = std::all_of(
        accesses.begin(), accesses.end(), [](const Access& a) {
          return a.offset % kStripe == 0 && (a.offset + a.bytes) % kStripe == 0;
        });

    // Start-to-start gaps: find the dominant one.
    std::map<std::int64_t, std::size_t> gap_votes;
    std::size_t sequential_gaps = 0;
    for (std::size_t i = 1; i < accesses.size(); ++i) {
      auto gap = static_cast<std::int64_t>(accesses[i].offset) -
                 static_cast<std::int64_t>(accesses[i - 1].offset);
      ++gap_votes[gap];
      if (gap == static_cast<std::int64_t>(accesses[i - 1].bytes)) {
        ++sequential_gaps;
      }
    }
    auto total_gaps = static_cast<double>(accesses.size() - 1);
    auto dominant = std::max_element(
        gap_votes.begin(), gap_votes.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    double dominant_frac = static_cast<double>(dominant->second) / total_gaps;
    double sequential_frac = static_cast<double>(sequential_gaps) / total_gaps;

    if (sequential_frac >= kStrideConfidence) {
      sp.pattern = AccessPattern::kSequential;
      sp.stride = static_cast<std::int64_t>(sp.typical_size);
      sp.confidence = sequential_frac;
    } else if (dominant_frac >= kStrideConfidence && dominant->first != 0) {
      sp.pattern = AccessPattern::kStrided;
      sp.stride = dominant->first;
      sp.confidence = dominant_frac;
    } else {
      sp.pattern = AccessPattern::kRandom;
      sp.stride = 0;
      sp.confidence = 1.0 - dominant_frac;
    }
    out.push_back(sp);
  }
  return out;
}

std::vector<StreamPattern> detect_patterns(const ipm::TraceSource& source) {
  return run_kernels(source, 1, ipm::ChunkHint{},
                     [](std::size_t) { return PatternsKernel(); })
      .finish();
}

std::vector<FsHint> derive_hints(const std::vector<StreamPattern>& patterns) {
  // Aggregate per (file, op): hints are file-level advice.
  struct Agg {
    std::size_t streams = 0;
    std::size_t coherent = 0;  // sequential or strided
    std::size_t random = 0;
    std::size_t unaligned = 0;
    Bytes typical_size = 0;
    std::int64_t stride = 0;
  };
  std::map<std::pair<FileId, posix::OpType>, Agg> by_file;
  for (const StreamPattern& p : patterns) {
    Agg& a = by_file[{p.file, p.op}];
    ++a.streams;
    if (p.pattern == AccessPattern::kRandom) {
      ++a.random;
    } else {
      ++a.coherent;
      a.stride = p.stride;
    }
    if (!p.stripe_aligned) ++a.unaligned;
    a.typical_size = std::max(a.typical_size, p.typical_size);
  }

  std::vector<FsHint> hints;
  for (const auto& [key, a] : by_file) {
    auto [file, op] = key;
    std::ostringstream why;
    FsHint hint;
    hint.file = file;
    hint.op = op;
    if (op == posix::OpType::kRead) {
      if (a.coherent * 2 >= a.streams) {
        // Coherent readers: prefetch a couple of typical accesses, but
        // never beyond the stride (the Lustre bug was precisely an
        // unbounded strided window).
        Bytes window = 2 * a.typical_size;
        if (a.stride > 0) {
          window = std::min<Bytes>(window, static_cast<Bytes>(a.stride));
        }
        hint.prefetch_bytes = window;
        why << a.coherent << "/" << a.streams
            << " read streams are coherent; bounded prefetch of "
            << window / 1024 << " KiB";
      } else {
        hint.prefetch_bytes = 0;
        why << a.random << "/" << a.streams
            << " read streams are random; disable read-ahead";
      }
    }
    if (a.unaligned * 2 >= a.streams) {
      hint.advise_alignment = true;
      if (why.tellp() > 0) why << "; ";
      why << a.unaligned << "/" << a.streams
          << " streams are not aligned to the "
          << kStripe / (1024 * 1024) << " MiB stripe";
    }
    if (hint.prefetch_bytes == 0 && op == posix::OpType::kWrite &&
        !hint.advise_alignment) {
      continue;  // nothing actionable for this file/op
    }
    hint.rationale = why.str();
    hints.push_back(std::move(hint));
  }
  return hints;
}

}  // namespace eio::analysis
