// Deterministic fork-join helpers for the threaded kernel variants
// (CG / SpMV / stencil with threads > 1).
//
// Parallel fault injection only stays reproducible if the work split is a
// pure function of the thread count: every traced store keeps the global
// dynamic-instruction index it would get under the serial interleaving
// thread 0, thread 1, ..., and every reduction folds its partial sums in
// thread order.  Scheduling can then reorder the *execution* freely without
// ever changing a produced value, an injection site, or a crash site --
// which is what lets a serial-vs-parallel boundary comparison attribute
// differences to the numerics (reduction grouping) instead of to races.
#pragma once

#include <cassert>
#include <cstddef>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "fi/tracer.h"

namespace ftb::kernels {

/// Contiguous near-equal partition of [0, count) into `threads` ranges.
inline std::vector<std::pair<std::size_t, std::size_t>> split_ranges(
    std::size_t count, std::size_t threads) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(threads);
  const std::size_t base = count / threads;
  const std::size_t extra = count % threads;
  std::size_t begin = 0;
  for (std::size_t th = 0; th < threads; ++th) {
    const std::size_t length = base + (th < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + length);
    begin += length;
  }
  return ranges;
}

/// Runs a kernel body once per run: on the stepper compiled for the
/// tracer's mode when the kernel runs serially, and on the Tracer itself
/// when it shards its loops over `threads` > 1 (Tracer::Shard needs the
/// tracer).  `body(stepper)` returns the program output.
template <typename Body>
std::vector<double> run_body(fi::Tracer& tracer, std::size_t threads,
                             Body&& body) {
  if (threads > 1) return body(tracer);
  return tracer.with_stepper(body);
}

/// Runs `body(i, stepper)` for every i in [0, count), where `stepper` is
/// the kernel's stepper (threads <= 1: the plain serial path, byte-identical
/// to an undecorated kernel) or a per-thread Tracer::Shard with a
/// pre-assigned global index range.  `body` must only write per-index
/// state; cross-index dependencies would race.  Only the Tracer itself can
/// shard; run_body() never hands a mode stepper a threaded run.
template <typename Stepper, typename Body>
void traced_parallel_for(Stepper& tracer, std::size_t count,
                         std::size_t threads, Body&& body) {
  if constexpr (std::is_same_v<Stepper, fi::Tracer>) {
    if (threads > 1) {
      const auto ranges = split_ranges(count, threads);
      std::vector<fi::Tracer::Shard> shards;
      shards.reserve(threads);
      for (const auto& range : ranges) {
        shards.push_back(tracer.shard(range.second - range.first));
      }
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (std::size_t th = 0; th < threads; ++th) {
        workers.emplace_back([&ranges, &shards, &body, th] {
          const auto [begin, end] = ranges[th];
          for (std::size_t i = begin; i < end; ++i) body(i, shards[th]);
        });
      }
      for (std::thread& worker : workers) worker.join();
      tracer.join(shards);  // folds shard state; throws the minimum crash site
      return;
    }
  } else {
    assert(threads <= 1 && "mode steppers run serial kernels only");
  }
  for (std::size_t i = 0; i < count; ++i) body(i, tracer);
}

/// Fixed-order parallel reduction: partial sums over the contiguous ranges
/// run concurrently, then fold in thread order, so the grouping -- and
/// therefore the rounding -- depends only on `threads`, never on
/// scheduling.  Returns the *untraced* sum, of the terms' type (double, or
/// fi::Lanes in a lane body); callers trace the final value through one
/// step, exactly like the serial reduction does.
template <typename Term>
auto reduced_parallel_sum(std::size_t count, std::size_t threads,
                          Term&& term) {
  using T = decltype(term(std::size_t{0}));
  if (threads <= 1) {
    T sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) sum += term(i);
    return sum;
  }
  const auto ranges = split_ranges(count, threads);
  std::vector<T> partial(threads, 0.0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t th = 0; th < threads; ++th) {
    workers.emplace_back([&ranges, &partial, &term, th] {
      const auto [begin, end] = ranges[th];
      T sum = 0.0;
      for (std::size_t i = begin; i < end; ++i) sum += term(i);
      partial[th] = sum;
    });
  }
  for (std::thread& worker : workers) worker.join();
  T sum = 0.0;
  for (const T& p : partial) sum += p;
  return sum;
}

}  // namespace ftb::kernels
