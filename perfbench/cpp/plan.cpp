#include "plan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "boundary/predictor.h"
#include "fi/fpbits.h"
#include "service/protocol.h"
#include "util/rng.h"

namespace perfbench {

namespace service = ftb::service;

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t job_seed(std::uint64_t workload_seed,
                       std::uint64_t index) noexcept {
  const std::uint64_t mask = kDerivedSeedBit - 1;
  return kDerivedSeedBit | ((mix64(workload_seed) + index) & mask);
}

std::string section_batches(const std::vector<std::string>& sections,
                            const std::vector<std::uint64_t>& budgets,
                            std::uint64_t default_budget) {
  if (sections.size() != budgets.size()) {
    throw std::invalid_argument("section_batches: one budget per section");
  }
  std::string out;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (budgets[i] == default_budget) continue;
    if (!out.empty()) out += ',';
    out += sections[i] + "=" + std::to_string(budgets[i]);
  }
  return out;
}

EditSchedule::EditSchedule(std::vector<std::string> sections,
                           std::uint64_t default_budget)
    : sections_(std::move(sections)),
      budgets_(sections_.size(), default_budget),
      default_budget_(default_budget) {
  if (sections_.empty()) {
    throw std::invalid_argument("EditSchedule: no sections");
  }
}

Edit EditSchedule::next() {
  const std::size_t slot = next_ % sections_.size();
  if (budgets_[slot] <= 1) {
    throw std::runtime_error("EditSchedule: section '" + sections_[slot] +
                             "' has no budget left to lower");
  }
  --budgets_[slot];
  Edit edit;
  edit.index = next_++;
  edit.section = sections_[slot];
  edit.budget = budgets_[slot];
  edit.overrides = section_batches(sections_, budgets_, default_budget_);
  return edit;
}

std::uint64_t EditSchedule::capacity() const noexcept {
  return sections_.size() * (default_budget_ - 1);
}

std::vector<QueryDraw> query_draws(std::uint64_t seed,
                                   const std::vector<std::uint64_t>& key_sites,
                                   std::size_t n) {
  if (key_sites.empty() ||
      std::any_of(key_sites.begin(), key_sites.end(),
                  [](std::uint64_t s) { return s == 0; })) {
    throw std::invalid_argument("query_draws: every key needs sites");
  }
  ftb::util::Rng rng(seed);
  std::vector<QueryDraw> draws(n);
  for (QueryDraw& draw : draws) {
    draw.key = static_cast<std::uint32_t>(rng.next_below(key_sites.size()));
    draw.site = rng.next_below(key_sites[draw.key]);
    draw.bit = static_cast<std::uint32_t>(rng.next_below(64));
    draw.site_query = rng.next_below(2) == 1;
  }
  return draws;
}

ftb::net::Frame request_frame(const QueryDraw& draw, const std::string& key) {
  if (draw.site_query) {
    return service::make_predict_site({key, draw.site});
  }
  return service::make_predict_flip({key, draw.site, draw.bit});
}

namespace {

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

std::string check_reply(const QueryDraw& draw, const ftb::net::Frame& reply,
                        const ftb::boundary::FaultToleranceBoundary& boundary,
                        const std::vector<double>& trace) {
  if (draw.site >= trace.size() || draw.site >= boundary.sites()) {
    return "site " + std::to_string(draw.site) + " is outside the artifact";
  }
  const double golden = trace[draw.site];
  const double threshold = boundary.threshold(draw.site);
  std::string error;
  if (draw.site_query) {
    const auto ok = service::parse_predict_site_ok(reply, &error);
    if (!ok) return "not a PredictSiteOk: " + error;
    const ftb::boundary::SitePrediction want =
        ftb::boundary::predict_site(boundary, draw.site, golden);
    if (ok->masked != want.masked || ok->sdc != want.sdc ||
        ok->crash != want.crash || !same_bits(ok->sdc_ratio, want.sdc_ratio()) ||
        !same_bits(ok->threshold, threshold) ||
        !same_bits(ok->golden_value, golden)) {
      return "PredictSite reply differs from predict_site at site " +
             std::to_string(draw.site);
    }
    return {};
  }
  const auto ok = service::parse_predict_flip_ok(reply, &error);
  if (!ok) return "not a PredictFlipOk: " + error;
  const int bit = static_cast<int>(draw.bit);
  const auto want = static_cast<std::uint32_t>(
      ftb::boundary::predict_flip(boundary, draw.site, golden, bit));
  const double injected = ftb::fi::flip_is_nonfinite(golden, bit)
                              ? std::numeric_limits<double>::infinity()
                              : ftb::fi::bit_flip_error(golden, bit);
  if (ok->outcome != want || !same_bits(ok->threshold, threshold) ||
      !same_bits(ok->injected_error, injected)) {
    return "PredictFlip reply differs from predict_flip at site " +
           std::to_string(draw.site) + " bit " + std::to_string(draw.bit);
  }
  return {};
}

std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t min_beyond) {
  if (samples.empty() || !(p > 0.0) || p > 100.0) return std::nullopt;
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  const std::size_t clamped = std::clamp<std::size_t>(rank, 1, n);
  if (n - clamped < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (clamped - 1),
                   samples.end());
  return samples[clamped - 1];
}

std::uint64_t fnv1a64(const std::string& bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
