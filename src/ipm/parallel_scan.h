// Chunk-parallel map-reduce over any trace source.
//
// The paper's premise — ensembles are mergeable statistics, not event
// sequences — makes trace analysis embarrassingly parallel over
// indexed chunks: every chunk folds into a bounded partial (moments,
// histogram bins, reservoir, rate bins), and partials merge. The
// ParallelTraceScanner partitions a source's TraceIndex across a worker
// pool (the same claim-by-index pattern as
// workloads::ParallelEnsembleRunner), decodes chunks concurrently,
// folds each chunk into its own partial, and merges partials in
// ascending chunk order — lane by lane: a KernelSet merges each member
// as its own ordered lane, so the pass is bounded by the slowest
// member's merge chain rather than the sum of all of them.
//
// Decode: the scanner borrows a source and gives each worker a
// ChunkCursor of its own for the source's decode_chunk (for a file,
// one sized read into a buffer the cursor reuses): no locks, nothing
// shared. Folds receive ColumnBatches restricted to a column mask:
// unmasked v3 columns are never decoded.
//
// Determinism contract: the partial built for chunk c depends only on
// chunk c and its index, and every merge lane consumes partials
// strictly in chunk order 0, 1, 2, ... regardless of which worker
// folded what first or which thread runs the merge. A lane is one
// KernelSet member (or the whole partial for any other type), and
// members share no state, so each member sees exactly the merge
// sequence of a serial pass no matter how far the lanes drift apart.
// A scan is therefore byte-identical for every jobs value, including
// jobs=1 — "--jobs 1 == serial" holds by construction, not by
// tolerance. Column order equals event order, so
// a fold sees the identical value sequence as a serial pass over the
// same trace.
//
// Memory contract: workers may run at most merge_window chunks ahead
// of the slowest lane's frontier (a partial leaves the window once
// every lane has consumed it and it is freed), so at most merge_window + 1
// partials — the result included — and one read buffer per worker are
// live: the read buffers hold O(jobs x largest chunk) bytes, and peak
// memory stays O(chunk), never O(events) or O(file size). A file
// truncated under a running scan throws std::runtime_error from the
// read of the first chunk it no longer holds.
#pragma once

#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/jobs.h"
#include "ipm/columns.h"
#include "ipm/trace_source.h"
#include "obs/registry.h"

namespace eio::ipm {

/// A partial that merges as independent lanes: `kLanes` of them, each
/// folded by merge_lane(lane, later) — which consumes only that lane
/// of `later` and touches only that lane of the receiver, so distinct
/// lanes may merge concurrently (analysis::KernelSet: one lane per
/// member). Any other partial type merges as a single lane.
template <typename P>
concept MergeLanes = requires(P& into, P& from, std::size_t lane) {
  { P::kLanes } -> std::convertible_to<std::size_t>;
  into.merge_lane(lane, from);
};

struct ScanOptions {
  /// Worker threads. 0 = default (EIO_JOBS env or hardware concurrency).
  std::size_t jobs = 0;
  /// How many chunks workers may run ahead of the slowest merge lane
  /// before throttling (bounds live partials). 0 = default
  /// (max(2 * jobs, 8)).
  std::size_t merge_window = 0;
};

/// Map-reduce engine over one trace source. Stateless between scans;
/// safe to reuse and cheap to construct: it borrows the source, so a
/// file's index is read once however many scans run over it.
class ParallelTraceScanner {
 public:
  /// Open `path` (TSV or v3) as a FileTraceSource of the scanner's
  /// own. Throws std::runtime_error when the file cannot be opened or
  /// indexed.
  explicit ParallelTraceScanner(std::string path, ScanOptions options = {})
      : owned_(std::make_unique<const FileTraceSource>(std::move(path))),
        source_(owned_.get()),
        jobs_(resolve_jobs(options.jobs)),
        merge_window_(resolve_window(options, jobs_)) {}

  /// Borrow a source; it must outlive the scanner.
  explicit ParallelTraceScanner(const TraceSource& source,
                                ScanOptions options = {})
      : source_(&source),
        jobs_(resolve_jobs(options.jobs)),
        merge_window_(resolve_window(options, jobs_)) {}
  /// A temporary source would not outlive the scanner.
  ParallelTraceScanner(const TraceSource&&, ScanOptions = {}) = delete;

  [[nodiscard]] const TraceIndex& index() const { return source_->index(); }

  /// Wall-clock span of the whole trace (max chunk end time) — free
  /// from the index, no event pass.
  [[nodiscard]] double time_span() const { return source_->time_span(); }

  /// Map-reduce over the chunks `hint` admits (all chunks when null):
  ///
  ///   make(chunk_index)       -> Partial   (fresh)
  ///   fold(partial, batch)                 (one ColumnBatch = one chunk)
  ///   merge(into, std::move(from))         (ascending chunk order)
  ///
  /// The fold's batch holds only the `mask` columns: the rest are
  /// never decoded. Returns the merged Partial; make(0) when no chunk
  /// is admitted. The first worker exception is rethrown after the
  /// pool drains.
  template <typename Make, typename Fold, typename Merge>
  [[nodiscard]] auto scan_columns(const Make& make, const Fold& fold,
                                  const Merge& merge,
                                  const ChunkHint* hint = nullptr,
                                  ColumnMask mask = kColAll) const
      -> std::invoke_result_t<Make, std::size_t> {
    using Partial = std::invoke_result_t<Make, std::size_t>;
    return scan_impl(
        make,
        [this, &fold, mask](ChunkCursor& cursor, Partial& p,
                            std::size_t chunk) {
          OBS_SPAN("scan.fold_chunk");
          fold(p, source_->decode_chunk(chunk, mask, cursor));
        },
        1,
        [&merge](Partial& into, Partial& from, std::size_t) {
          merge(into, std::move(from));
        },
        hint);
  }

  /// Kernel-set fold path: make(chunk_index) builds anything modeling
  /// the analysis::Kernel concept (one kernel or a whole KernelSet);
  /// ONE decode of each admitted chunk — restricted to the union
  /// column mask the set reports — feeds every kernel in it. A
  /// KernelSet merges as one lane per member (see MergeLanes), so the
  /// slowest member's merge chain, not the sum of all of them, bounds
  /// the pass. This is the fused single-pass driver behind every
  /// eiotrace analysis subcommand.
  template <typename Make>
  [[nodiscard]] auto scan_kernels(const Make& make,
                                  const ChunkHint* hint = nullptr) const
      -> std::invoke_result_t<Make, std::size_t> {
    using Set = std::invoke_result_t<Make, std::size_t>;
    const ColumnMask mask = make(std::size_t{0}).required_columns();
    auto produce = [this, mask](ChunkCursor& cursor, Set& set,
                                std::size_t chunk) {
      OBS_SPAN("scan.fold_chunk");
      set.add_batch(source_->decode_chunk(chunk, mask, cursor));
    };
    if constexpr (MergeLanes<Set>) {
      return scan_impl(make, produce, Set::kLanes,
                       [](Set& into, Set& from, std::size_t lane) {
                         into.merge_lane(lane, from);
                       },
                       hint);
    } else {
      return scan_impl(make, produce, 1,
                       [](Set& into, Set& from, std::size_t) {
                         into.merge(std::move(from));
                       },
                       hint);
    }
  }

 private:
  /// The shared pool/merge machinery. produce(cursor, partial, chunk)
  /// decodes + folds one chunk however the public entry point decided;
  /// merge_lane(into, from, lane) folds lane `lane` of a later partial
  /// into the result, consuming only that lane of `from`.
  ///
  /// Every lane keeps its own merge frontier and consumes partials
  /// strictly in slot order 0, 1, 2, ...; a lane is merged by at most
  /// one thread at a time, and distinct lanes by any threads at once.
  /// There is no dedicated merger: the calling thread and the workers
  /// all run one loop (see `participate`), and a partial is freed
  /// outside the lock by whichever thread consumes its last lane.
  template <typename Make, typename Produce, typename MergeLane>
  [[nodiscard]] auto scan_impl(const Make& make, const Produce& produce,
                               std::size_t lanes, const MergeLane& merge_lane,
                               const ChunkHint* hint) const
      -> std::invoke_result_t<Make, std::size_t> {
    using Partial = std::invoke_result_t<Make, std::size_t>;
    OBS_SPAN("scan.scan");
    std::vector<std::size_t> picks = admitted(hint);
    // Hint-pruned chunks are skipped silently on the fast path; the
    // counter pair makes the pruning visible in --obs-summary.
    OBS_COUNTER_ADD("scan.chunks_scanned", picks.size());
    OBS_COUNTER_ADD("scan.chunks_skipped",
                    index().chunks.size() - picks.size());
    if (picks.empty()) return make(std::size_t{0});

    // Each lane's merges also nest one span of their own inside
    // scan.merge_partial, so --obs-summary shows which member bounds
    // the pass.
    const std::vector<obs::MetricId> lane_spans = lane_span_ids(lanes);
    auto merge_one = [&](Partial& into, Partial& from, std::size_t lane) {
      obs::Span span(lane_spans[lane]);
      merge_lane(into, from, lane);
    };

    const std::size_t n = picks.size();
    const std::size_t workers = std::min(jobs_, n);
    if (workers <= 1) {
      // Same per-chunk partial + ordered lane merges as the parallel
      // path, on one thread — the determinism contract's base case.
      ChunkCursor cursor;
      Partial result = make(picks[0]);
      produce(cursor, result, picks[0]);
      for (std::size_t k = 1; k < n; ++k) {
        Partial p = make(picks[k]);
        produce(cursor, p, picks[k]);
        OBS_SPAN("scan.merge_partial");
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          merge_one(result, p, lane);
        }
      }
      return result;
    }

    struct Slot {
      Partial partial;
      std::size_t pending;  ///< lanes that have not consumed it yet
    };
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::size_t, Slot> ready;  // slot -> folded partial
    std::vector<std::size_t> frontier(lanes, 1);  // next slot, per lane
    std::vector<char> busy(lanes, 0);    // a thread is merging the lane
    Partial* result = nullptr;           // slot 0's partial, merged into
    std::size_t claimed = 0;             // slots handed to folders
    std::size_t retired = 0;             // slots out of the window
    std::exception_ptr error;

    // Under mu: the lane a participant should merge next, or `lanes`
    // when it should not merge now. The calling thread takes the
    // runnable lane nearest the fold frontier, so cheap lanes keep up
    // and stay on one thread; a worker helps only the lane furthest
    // behind — the critical path — and only while it is free and
    // runnable. (Growth of the result's members then happens mostly on
    // one thread, which keeps allocator arenas from each holding a
    // copy of it.)
    auto runnable = [&](std::size_t lane) {
      return !busy[lane] && frontier[lane] < n &&
             ready.count(frontier[lane]) > 0;
    };
    auto pick_lane = [&](bool worker) {
      std::size_t best = lanes;
      if (result == nullptr) return best;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (worker) {
          if (frontier[lane] < n &&
              (best == lanes || frontier[lane] < frontier[best])) {
            best = lane;
          }
        } else if (runnable(lane) &&
                   (best == lanes || frontier[lane] > frontier[best])) {
          best = lane;
        }
      }
      return best < lanes && runnable(best) ? best : lanes;
    };

    auto finished = [&] { return result != nullptr && retired == n; };
    // Throttle: stay within merge_window of the slowest lane's frontier
    // (counted once the partials behind it are freed), so live
    // partials stay bounded.
    auto may_fold = [&] {
      return claimed < n && claimed < retired + merge_window_;
    };

    // One participant: a worker folds whenever the throttle admits a
    // chunk and merges only while it cannot (throttled, or no chunks
    // left); the calling thread only merges. A thread keeps merging
    // its lane slot after slot for as long as it would pick that lane
    // again. Sleepers are woken when a fold makes lanes runnable, a
    // freed partial opens the throttle, or a lane is let go with a
    // folded slot still pending.
    auto participate = [&](bool worker) {
      std::unique_lock<std::mutex> lock(mu, std::defer_lock);
      try {
        ChunkCursor cursor;
        lock.lock();
        while (!error && !finished()) {
          if (worker && may_fold()) {
            const std::size_t k = claimed++;
            lock.unlock();
            Partial p = make(picks[k]);
            produce(cursor, p, picks[k]);
            lock.lock();
            auto it = ready.emplace(k, Slot{std::move(p), lanes}).first;
            if (k == 0) {
              result = &it->second.partial;
              ++retired;
            }
            cv.notify_all();
          } else if (const std::size_t lane = pick_lane(worker);
                     lane < lanes) {
            busy[lane] = 1;
            for (;;) {
              const std::size_t k = frontier[lane];
              Slot& slot = ready.find(k)->second;
              lock.unlock();
              {
                OBS_SPAN("scan.merge_partial");
                merge_one(*result, slot.partial, lane);
              }
              lock.lock();
              ++frontier[lane];
              if (--slot.pending == 0) {
                auto node = ready.extract(k);
                lock.unlock();
                node = {};  // free the consumed partial outside the lock
                lock.lock();
                ++retired;
                cv.notify_all();
              }
              busy[lane] = 0;
              if (error || pick_lane(worker) != lane) break;
              busy[lane] = 1;
            }
            if (runnable(lane)) cv.notify_all();
          } else {
            OBS_SPAN("scan.merge_wait");
            cv.wait(lock, [&] {
              return error || finished() || (worker && may_fold()) ||
                     pick_lane(worker) < lanes;
            });
          }
        }
      } catch (...) {
        if (!lock.owns_lock()) lock.lock();
        if (!error) error = std::current_exception();
        cv.notify_all();
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back(participate, true);
    }
    participate(false);
    for (std::thread& t : pool) t.join();
    if (error) std::rethrow_exception(error);
    return std::move(*result);
  }

  /// Interned span names scan.merge.lane0, scan.merge.lane1, ... (one
  /// lookup per lane per scan; nothing when obs is compiled out).
  [[nodiscard]] static std::vector<obs::MetricId> lane_span_ids(
      std::size_t lanes) {
    std::vector<obs::MetricId> ids(lanes, 0);
    if constexpr (obs::kCompiledIn) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        std::string name = "scan.merge.lane";
        name += std::to_string(lane);
        ids[lane] = obs::Registry::instance().span_id(name);
      }
    }
    return ids;
  }

  [[nodiscard]] static std::size_t resolve_window(const ScanOptions& options,
                                                  std::size_t jobs) {
    if (options.merge_window > 0) return options.merge_window;
    return std::max<std::size_t>(2 * jobs, 8);
  }

  [[nodiscard]] std::vector<std::size_t> admitted(const ChunkHint* hint) const {
    std::vector<std::size_t> picks;
    picks.reserve(index().chunks.size());
    for (std::size_t i = 0; i < index().chunks.size(); ++i) {
      if (!hint || hint->admits(index().chunks[i])) picks.push_back(i);
    }
    return picks;
  }

  std::unique_ptr<const FileTraceSource> owned_;  ///< path-opened only
  const TraceSource* source_;
  std::size_t jobs_;
  std::size_t merge_window_;
};

}  // namespace eio::ipm
