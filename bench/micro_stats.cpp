// google-benchmark microbenchmarks for the statistics engine: these
// quantify the cost of the ensemble-analysis primitives themselves
// (the paper's argument for profiling over tracing rests on these
// being cheap).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "core/distribution.h"
#include "core/histogram.h"
#include "core/ks.h"
#include "core/modes.h"
#include "core/order_stats.h"
#include "core/streaming.h"
#include "ipm/profile.h"

namespace {

using namespace eio;

std::vector<double> lognormal_sample(std::size_t n, std::uint64_t seed) {
  rng::Stream r(seed);
  std::vector<double> s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.push_back(r.lognormal(1.0, 0.5));
  return s;
}

void BM_HistogramAdd(benchmark::State& state) {
  auto samples = lognormal_sample(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    stats::Histogram h(stats::BinScale::kLog10, 0.1, 100.0, 64);
    h.add_all(samples);
    benchmark::DoNotOptimize(h.total());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HistogramAdd)->Arg(1024)->Arg(65536);

void BM_ProfileObserve(benchmark::State& state) {
  auto samples = lognormal_sample(4096, 2);
  for (auto _ : state) {
    ipm::Profile p;
    for (double s : samples) {
      p.observe(posix::OpType::kWrite, 1 << 20, s);
    }
    benchmark::DoNotOptimize(p.total());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ProfileObserve);

void BM_EmpiricalDistribution(benchmark::State& state) {
  auto samples = lognormal_sample(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    stats::EmpiricalDistribution d(samples);
    benchmark::DoNotOptimize(d.quantile(0.99));
  }
}
BENCHMARK(BM_EmpiricalDistribution)->Arg(1024)->Arg(65536);

void BM_ModeFinding(benchmark::State& state) {
  auto samples = lognormal_sample(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    auto modes = stats::find_modes(samples);
    benchmark::DoNotOptimize(modes.size());
  }
}
BENCHMARK(BM_ModeFinding)->Arg(1024)->Arg(16384);

void BM_KsTwoSample(benchmark::State& state) {
  auto a = lognormal_sample(static_cast<std::size_t>(state.range(0)), 5);
  auto b = lognormal_sample(static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_two_sample(a, b).statistic);
  }
}
BENCHMARK(BM_KsTwoSample)->Arg(1024)->Arg(16384);

void BM_ExpectedMax(benchmark::State& state) {
  stats::EmpiricalDistribution d(lognormal_sample(8192, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.expected_max_of(1024));
  }
}
BENCHMARK(BM_ExpectedMax);

// ---------------------------------------------------------------------------
// Reservoir sampling: the per-event cost the skip-gap refactor exists
// to remove. BM_ReservoirPerDraw re-implements the historical Algorithm
// R inner loop (one uniform draw per event past capacity) as the
// baseline; the SkipGap pair measures the shipping Algorithm X kernel
// through both the per-event and the batched entry point.

/// The pre-skip-gap per-event update: one rng draw for every element
/// past capacity. Kept here (not in src/) purely as a measurement
/// baseline.
struct PerDrawReservoir {
  std::size_t capacity;
  rng::Stream rng;
  std::vector<double> samples;
  std::uint64_t seen = 0;

  PerDrawReservoir(std::size_t cap, std::uint64_t seed)
      : capacity(cap), rng(seed) {
    samples.reserve(cap);
  }
  void add(double x) {
    ++seen;
    if (samples.size() < capacity) {
      samples.push_back(x);
      return;
    }
    std::uint64_t j = rng.index(seen);
    if (j < capacity) samples[static_cast<std::size_t>(j)] = x;
  }
};

void BM_ReservoirPerDraw(benchmark::State& state) {
  auto samples = lognormal_sample(static_cast<std::size_t>(state.range(0)), 8);
  for (auto _ : state) {
    PerDrawReservoir r(1024, 42);
    for (double x : samples) r.add(x);
    benchmark::DoNotOptimize(r.samples.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReservoirPerDraw)->Arg(65536)->Arg(1 << 20);

void BM_ReservoirSkipGap(benchmark::State& state) {
  auto samples = lognormal_sample(static_cast<std::size_t>(state.range(0)), 8);
  for (auto _ : state) {
    stats::ReservoirSampler r(1024, 42);
    for (double x : samples) r.add(x);
    benchmark::DoNotOptimize(r.samples().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReservoirSkipGap)->Arg(65536)->Arg(1 << 20);

void BM_ReservoirSkipGapBatch(benchmark::State& state) {
  auto samples = lognormal_sample(static_cast<std::size_t>(state.range(0)), 8);
  for (auto _ : state) {
    stats::ReservoirSampler r(1024, 42);
    r.add_batch(samples);
    benchmark::DoNotOptimize(r.samples().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReservoirSkipGapBatch)->Arg(65536)->Arg(1 << 20);

// StreamingHistogram fill: scalar add() vs add_batch() over a dense
// span (the columnar path), both staying in exact mode so the work
// measured is the fill itself.

void BM_StreamingHistogramAddScalar(benchmark::State& state) {
  auto samples = lognormal_sample(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    stats::StreamingHistogram h(
        {.scale = stats::BinScale::kLog10, .bins = 64,
         .exact_capacity = samples.size()});
    for (double x : samples) h.add(x);
    benchmark::DoNotOptimize(h.count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamingHistogramAddScalar)->Arg(65536);

void BM_StreamingHistogramAddBatch(benchmark::State& state) {
  auto samples = lognormal_sample(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    stats::StreamingHistogram h(
        {.scale = stats::BinScale::kLog10, .bins = 64,
         .exact_capacity = samples.size()});
    h.add_batch(samples);
    benchmark::DoNotOptimize(h.count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamingHistogramAddBatch)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
