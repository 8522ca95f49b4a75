#include "campaign/evidence.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <utility>

#include "fi/fpbits.h"

#if defined(__unix__) || defined(__APPLE__)
#define FTB_EVIDENCE_SHARED 1
#include <sys/mman.h>
#else
#define FTB_EVIDENCE_SHARED 0
#endif

namespace ftb::campaign {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kUnsettled = std::numeric_limits<double>::quiet_NaN();

// Ids a pool task claims at a time: small, because a chunk is only a few
// hundred ids and every task should finish with the others.
constexpr std::size_t kClaim = 4;

// Cache line: the header, the cutoffs and each folder's block start on
// their own, so folders never write to a line another one reads.
constexpr std::size_t kLine = 64;

constexpr std::size_t round_up(std::size_t bytes) {
  return (bytes + kLine - 1) / kLine * kLine;
}

bool is_classic(const fi::Injection& injection) noexcept {
  return injection.target == fi::Injection::Target::kTrace &&
         injection.kind == fi::Injection::Kind::kBitFlip;
}

void max_into(double* into, const double* from, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) into[i] = std::max(into[i], from[i]);
}

}  // namespace

// The published frontier, read by every folder at each fold.
struct FirstPass::Header {
  std::atomic<std::uint64_t> frontier;
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "forked workers read the frontier through shared memory");

// One folder's block: counters, the Compare-mode diff buffer, then the
// partial itself.
struct FirstPass::Partial {
  std::uint64_t* counters;  // folded, values, interval_values
  double* diffs;
  double* best;
  double* raw;
  double* slots;
};

bool FirstPassEvidence::covers(ExperimentId id) const noexcept {
  return is_classic(id) && site_of(id) < covered_.size() &&
         (covered_[site_of(id)] >> bit_of(id) & 1) != 0;
}

bool FirstPassEvidence::resolve(std::span<const double> cutoffs, bool filter,
                                std::vector<double>& values) const {
  const std::size_t sites = raw_.size();
  values.clear();
  if (!fits_ || cutoffs.size() != sites ||
      !std::equal(cutoffs.begin(), cutoffs.end(), cutoffs_.begin())) {
    return false;
  }
  values.resize(sites);
  for (std::size_t j = 0; j < sites; ++j) {
    values[j] = filter && cutoffs[j] < kInf ? best_[j] : raw_[j];
  }
  return true;
}

double FirstPassEvidence::window_max(std::uint64_t begin,
                                     std::uint64_t end) const {
  double best = 0.0;
  for (std::uint64_t j = begin; j < std::min<std::uint64_t>(end, raw_.size());
       ++j) {
    best = std::max(best, raw_[j]);
  }
  return best;
}

FirstPass::FirstPass(const fi::GoldenRun& golden,
                     std::span<const ExperimentRecord> loaded,
                     std::span<const ExperimentId> owed, std::size_t folders)
    : sites_(golden.trace.size()),
      folders_(std::max<std::size_t>(folders, 1)),
      pending_(sites_, 0),
      min_sdc_(sites_, kInf),
      frontier_(sites_) {
  for (const ExperimentRecord& record : loaded) {
    if (!is_classic(record.id) || site_of(record.id) >= sites_) continue;
    if (record.result.outcome == fi::Outcome::kSdc &&
        std::isfinite(record.result.injected_error)) {
      double& min = min_sdc_[site_of(record.id)];
      min = std::min(min, record.result.injected_error);
    }
  }
  for (const ExperimentId id : owed) {
    if (is_classic(id) && site_of(id) < sites_) ++pending_[site_of(id)];
  }

  // Candidate cutoffs of every site still owed experiments: the smallest
  // loaded SDC error there, and each owed flip's injected error below it.
  const auto for_each_candidate = [&](const auto& emit) {
    for (std::uint64_t j = 0; j < sites_; ++j) {
      if (pending_[j] > 0 && min_sdc_[j] < kInf) emit(j, min_sdc_[j]);
    }
    for (const ExperimentId id : owed) {
      if (!is_classic(id) || site_of(id) >= sites_) continue;
      const std::uint64_t j = site_of(id);
      const double error = fi::bit_flip_error(golden.trace[j], bit_of(id));
      if (error < min_sdc_[j]) emit(j, error);
    }
  };
  offsets_.assign(sites_ + 1, 0);
  for_each_candidate([&](std::uint64_t j, double) { ++offsets_[j + 1]; });
  for (std::size_t j = 0; j < sites_; ++j) offsets_[j + 1] += offsets_[j];
  candidates_.resize(offsets_[sites_]);
  std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for_each_candidate([&](std::uint64_t j, double error) {
    candidates_[fill[j]++] = error;
  });
  for (std::size_t j = 0; j < sites_; ++j) {
    // Sorted, with repeats (an id owed twice) replaced by copies of the
    // site's largest candidate at the end: no value falls between copies.
    const auto first = candidates_.begin() + offsets_[j];
    const auto last = candidates_.begin() + offsets_[j + 1];
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    if (unique_end != first) std::fill(unique_end, last, *(unique_end - 1));
  }

  merged_.cutoffs_.assign(sites_, kUnsettled);
  for (std::size_t j = 0; j < sites_; ++j) {
    if (pending_[j] == 0) merged_.cutoffs_[j] = min_sdc_[j];
  }
  while (frontier_ > 0 && pending_[frontier_ - 1] == 0) --frontier_;
  merged_.best_.assign(sites_, 0.0);
  merged_.raw_.assign(sites_, 0.0);
  merged_.covered_.assign(sites_, 0);

#if FTB_EVIDENCE_SHARED
  folder_stride_ =
      kLine + round_up(sizeof(double) * (3 * sites_ + candidates_.size()));
  bytes_ = kLine + round_up(sizeof(double) * sites_) + folders_ * folder_stride_;
  void* base = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) return;  // ok() is false: nothing folds
  base_ = base;
  header_ = new (base_) Header{};
  header_->frontier.store(frontier_, std::memory_order_release);
  cutoffs_ = reinterpret_cast<double*>(static_cast<char*>(base_) + kLine);
  std::memcpy(cutoffs_, merged_.cutoffs_.data(), sizeof(double) * sites_);
#endif
}

FirstPass::~FirstPass() {
#if FTB_EVIDENCE_SHARED
  if (base_ != nullptr) ::munmap(base_, bytes_);
#endif
}

FirstPass::Partial FirstPass::partial(std::size_t folder) const noexcept {
  char* block = static_cast<char*>(base_) + kLine +
                round_up(sizeof(double) * sites_) + folder * folder_stride_;
  auto* values = reinterpret_cast<double*>(block + kLine);
  return {reinterpret_cast<std::uint64_t*>(block), values, values + sites_,
          values + 2 * sites_, values + 3 * sites_};
}

void FirstPass::fold(std::uint64_t site, Partial& part) const noexcept {
  const double* diffs = part.diffs;
  const std::uint64_t published =
      header_->frontier.load(std::memory_order_acquire);
  const std::uint64_t frontier = std::max(site, published);
  const double* candidates = candidates_.data();
  const std::uint32_t* offsets = offsets_.data();
  // Slots count down from the frontier's first candidate, so the sites of
  // the chunk in flight, just below it, use the first pages of the array.
  const std::ptrdiff_t top = offsets[published] - 1;
  std::uint64_t interval = 0;
  // Below the frontier a site may still be unsettled.  `v < kInf` also
  // rejects NaN; diffs are absolute values, so never negative.
  for (std::uint64_t j = site; j < frontier; ++j) {
    const double v = diffs[j];
    const double cutoff = cutoffs_[j];
    interval += std::isnan(cutoff);
    if (!(v > 0.0 && v < kInf)) continue;
    if (v > part.raw[j]) part.raw[j] = v;
    if (!std::isnan(cutoff)) {
      if (v < cutoff && v > part.best[j]) part.best[j] = v;
      continue;
    }
    const double* first = candidates + offsets[j];
    const double* last = candidates + offsets[j + 1];
    const double* above = std::upper_bound(first, last, v);
    if (above != last) {
      double& slot = part.slots[top - (above - candidates)];
      if (v > slot) slot = v;
    }
  }
  for (std::uint64_t j = frontier; j < sites_; ++j) {
    const double v = diffs[j];
    part.raw[j] = v < kInf && v > part.raw[j] ? v : part.raw[j];
    part.best[j] = v < cutoffs_[j] && v > part.best[j] ? v : part.best[j];
  }
  part.counters[0] += 1;
  part.counters[1] += sites_ - site;
  part.counters[2] += interval;
}

fi::ExperimentResult FirstPass::run(const fi::Program& program,
                                    const fi::GoldenRun& golden,
                                    const fi::Injection& injection,
                                    std::size_t folder) {
  if (base_ == nullptr || !is_classic(injection)) {
    return fi::run_injected(program, golden, injection);
  }
  Partial part = partial(folder);
  const fi::ExperimentResult result = fi::run_injected_compare(
      program, golden, injection, std::span<double>(part.diffs, sites_));
  if (result.outcome == fi::Outcome::kMasked) fold(injection.site, part);
  return result;
}

std::vector<ExperimentRecord> FirstPass::run_chunk(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, util::ThreadPool& pool) {
  std::vector<ExperimentRecord> records(ids.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&](std::size_t folder) {
    for (;;) {
      const std::size_t begin = next.fetch_add(kClaim);
      if (begin >= ids.size()) break;
      const std::size_t end = std::min(begin + kClaim, ids.size());
      for (std::size_t i = begin; i < end; ++i) {
        records[i].id = ids[i];
        records[i].result =
            run(program, golden, injection_of(ids[i]), folder);
      }
    }
  };
  const std::size_t tasks = std::min(
      {folders_, pool.thread_count(), (ids.size() + kClaim - 1) / kClaim});
  if (tasks <= 1) {
    work(0);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) {
      pool.submit([&work, t] { work(t); });
    }
    pool.wait_idle();
  }
  return records;
}

void FirstPass::settle(std::span<const ExperimentRecord> chunk, bool keep) {
  keep = keep && base_ != nullptr;
  std::uint64_t lo = sites_;
  for (const ExperimentRecord& record : chunk) {
    if (is_classic(record.id)) lo = std::min(lo, site_of(record.id));
  }
  if (base_ != nullptr) {
    // A chunk's runs folded values at sites >= lo only, and interval slots
    // only at sites below the frontier it ran under.
    const std::size_t from = std::min<std::size_t>(lo, sites_);
    const std::size_t slot_begin = offsets_[from];
    const std::size_t slot_end =
        std::max<std::size_t>(slot_begin, offsets_[frontier_]);
    for (std::size_t f = 0; f < folders_; ++f) {
      Partial part = partial(f);
      if (keep) {
        max_into(merged_.best_.data() + from, part.best + from, sites_ - from);
        max_into(merged_.raw_.data() + from, part.raw + from, sites_ - from);
        std::fill_n(part.best + from, sites_ - from, 0.0);
        std::fill_n(part.raw + from, sites_ - from, 0.0);
        if (part.counters[2] > 0) {
          for (std::size_t k = slot_begin; k < slot_end; ++k) {
            double& folded = part.slots[slot_end - 1 - k];
            if (folded == 0.0) continue;
            double& slot = slots_[static_cast<std::uint32_t>(k)];
            slot = std::max(slot, folded);
            folded = 0.0;
          }
        }
        merged_.stats_.folded += part.counters[0];
        merged_.stats_.values += part.counters[1];
        merged_.stats_.interval_values += part.counters[2];
      } else {
        // A dying worker may have written anywhere in the mapping.
        std::fill_n(part.best, 2 * sites_ + candidates_.size(), 0.0);
      }
      std::fill_n(part.counters, 3, std::uint64_t{0});
    }
  }
  if (keep) {
    for (const ExperimentRecord& record : chunk) {
      if (!is_classic(record.id) || site_of(record.id) >= sites_) continue;
      std::uint64_t& bits = merged_.covered_[site_of(record.id)];
      const std::uint64_t bit = std::uint64_t{1} << bit_of(record.id);
      merged_.covered_count_ += (bits & bit) == 0;
      bits |= bit;
    }
  } else {
    ++merged_.stats_.discarded_chunks;
  }

  for (const ExperimentRecord& record : chunk) {
    if (!is_classic(record.id) || site_of(record.id) >= sites_) continue;
    const std::uint64_t j = site_of(record.id);
    if (record.result.outcome == fi::Outcome::kSdc &&
        std::isfinite(record.result.injected_error)) {
      min_sdc_[j] = std::min(min_sdc_[j], record.result.injected_error);
    }
    if (pending_[j] > 0 && --pending_[j] == 0) resolve_site(j);
  }
  while (frontier_ > 0 && pending_[frontier_ - 1] == 0) --frontier_;
  if (base_ == nullptr) return;
  if (!keep) {
    std::memcpy(cutoffs_, merged_.cutoffs_.data(), sizeof(double) * sites_);
  }
  header_->frontier.store(frontier_, std::memory_order_release);
}

void FirstPass::resolve_site(std::uint64_t site) {
  const double cutoff = min_sdc_[site];
  merged_.cutoffs_[site] = cutoff;
  if (base_ != nullptr) cutoffs_[site] = cutoff;
  // The slots up to and including the cutoff's own hold exactly the values
  // below it.  Without a finite cutoff every value counts, and raw_
  // already has them all.
  const auto first = candidates_.begin() + offsets_[site];
  const auto last = candidates_.begin() + offsets_[site + 1];
  const auto own = std::lower_bound(first, last, cutoff);
  const bool found = own != last && *own == cutoff;
  for (auto c = first; c != last; ++c) {
    const auto slot =
        slots_.find(static_cast<std::uint32_t>(c - candidates_.begin()));
    if (slot == slots_.end()) continue;
    if (cutoff < kInf && !found) merged_.fits_ = false;
    if (cutoff < kInf && found && c <= own) {
      merged_.best_[site] = std::max(merged_.best_[site], slot->second);
    }
    slots_.erase(slot);
  }
}

FirstPassEvidence FirstPass::finish() {
  for (std::uint64_t j = 0; j < sites_; ++j) {
    if (pending_[j] > 0) resolve_site(j);
  }
  return std::move(merged_);
}

}  // namespace ftb::campaign
