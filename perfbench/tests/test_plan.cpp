// Unit tests for the benchmark's own logic: seeded schedules, the
// --section-batches builder, tail-percentile refusal and the reply check.
#include <gtest/gtest.h>

#include <set>

#include "boundary/predictor.h"
#include "fi/executor.h"
#include "fi/fpbits.h"
#include "kernels/registry.h"
#include "plan.h"
#include "sections/section.h"
#include "service/protocol.h"

namespace perfbench {
namespace {

TEST(Percentile, RefusesATailWithFewerThanTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  EXPECT_EQ(*percentile(samples, 90.0, kTailSupport), 90.0);  // 10 beyond
  EXPECT_FALSE(percentile(samples, 91.0, kTailSupport).has_value());
  EXPECT_FALSE(percentile(samples, 99.0, kTailSupport).has_value());
  samples.pop_back();
  EXPECT_FALSE(percentile(samples, 90.0, kTailSupport).has_value());  // 9 beyond
  EXPECT_EQ(*percentile(samples, 50.0, 0), 50.0);
  EXPECT_EQ(*percentile({3.0}, 50.0, 0), 3.0);
  EXPECT_FALSE(percentile({}, 50.0, 0).has_value());
}

TEST(JobSeeds, AreDistinctDerivedAndRepeatable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t k = 0; k < 5000; ++k) {
    const std::uint64_t seed = job_seed(42, k);
    EXPECT_TRUE(seen.insert(seed).second) << "op " << k;
    EXPECT_NE(seed & kDerivedSeedBit, 0u);
    EXPECT_EQ(seed, job_seed(42, k));
  }
  EXPECT_NE(job_seed(42, 0), job_seed(43, 0));
}

TEST(SectionBatches, ListsOnlyOverriddenSectionsInPlanOrder) {
  const std::vector<std::string> names = {"input", "twiddle", "out"};
  EXPECT_EQ(section_batches(names, {1000, 1000, 1000}, 1000), "");
  EXPECT_EQ(section_batches(names, {999, 1000, 998}, 1000), "input=999,out=998");
  EXPECT_THROW(section_batches(names, {1}, 1000), std::invalid_argument);
}

TEST(EditSchedule, BudgetsStrictlyDecreasePerSection) {
  EditSchedule schedule({"a", "b", "c"}, 10);
  std::map<std::string, std::uint64_t> last;
  for (int i = 0; i < 21; ++i) {
    const Edit edit = schedule.next();
    EXPECT_EQ(edit.index, static_cast<std::uint64_t>(i));
    EXPECT_EQ(edit.section, std::string(1, static_cast<char>('a' + i % 3)));
    if (last.count(edit.section)) {
      EXPECT_LT(edit.budget, last[edit.section]);
    }
    last[edit.section] = edit.budget;
  }
  EXPECT_EQ(schedule.next().overrides, "a=2,b=3,c=3");
}

TEST(EditSchedule, RunsOutAfterItsCapacity) {
  EditSchedule schedule({"a", "b", "c"}, 4);
  ASSERT_EQ(schedule.capacity(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_GE(schedule.next().budget, 1u);
  EXPECT_THROW(schedule.next(), std::runtime_error);
}

TEST(EditSchedule, EveryEditDirtiesExactlyOneFftSection) {
  const auto program =
      ftb::kernels::make_program("fft", ftb::kernels::Preset::kDefault);
  const ftb::fi::GoldenRun golden = ftb::fi::run_golden(*program);
  ftb::sections::CarveOptions carve;
  carve.seed = job_seed(5, 0);
  carve.batch_per_section = 1000;
  ftb::sections::SectionPlan plan =
      ftb::sections::carve_sections(program->config_key(), golden, carve);
  ASSERT_EQ(plan.sections.size(), 8u);
  std::vector<std::string> names;
  for (const auto& spec : plan.sections) names.push_back(spec.name);
  EditSchedule schedule(names, 1000);
  for (int i = 0; i < 24; ++i) {
    const Edit edit = schedule.next();
    carve.batch_overrides = edit.overrides;
    const ftb::sections::SectionPlan next =
        ftb::sections::carve_sections(program->config_key(), golden, carve);
    std::vector<std::string> dirty;
    for (std::size_t s = 0; s < next.sections.size(); ++s) {
      if (next.sections[s].fingerprint != plan.sections[s].fingerprint) {
        dirty.push_back(next.sections[s].name);
      }
    }
    EXPECT_EQ(dirty, std::vector<std::string>{edit.section}) << "edit " << i;
    EXPECT_EQ(next.find(edit.section)->batch, edit.budget);
    plan = next;
  }
}

TEST(QueryDraws, AreSeededAndInRange) {
  const std::vector<QueryDraw> a = query_draws(9, {10, 3}, 500);
  const std::vector<QueryDraw> b = query_draws(9, {10, 3}, 500);
  std::size_t sites = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].site, b[i].site);
    EXPECT_LT(a[i].site, a[i].key == 0 ? 10u : 3u);
    EXPECT_LT(a[i].bit, 64u);
    sites += a[i].site_query;
  }
  EXPECT_GT(sites, 150u);
  EXPECT_LT(sites, 350u);
}

// Self-test of the reply check: a right reply passes, a wrong one fails.
TEST(CheckReply, CatchesAWrongReply) {
  const ftb::boundary::FaultToleranceBoundary boundary({0.0, 0.0, 1e-3, 0.0});
  const std::vector<double> trace = {1.0, 2.0, 3.0, 4.0};
  QueryDraw flip{0, 2, 40, false};
  const auto outcome = static_cast<std::uint32_t>(
      ftb::boundary::predict_flip(boundary, 2, 3.0, 40));
  ftb::service::PredictFlipOk ok{outcome, boundary.threshold(2),
                                 ftb::fi::bit_flip_error(3.0, 40)};
  EXPECT_EQ(check_reply(flip, ftb::service::make_predict_flip_ok(ok), boundary,
                        trace), "");
  ok.outcome ^= 1;
  EXPECT_NE(check_reply(flip, ftb::service::make_predict_flip_ok(ok), boundary,
                        trace), "");

  QueryDraw site{0, 2, 0, true};
  const ftb::boundary::SitePrediction p =
      ftb::boundary::predict_site(boundary, 2, 3.0);
  ftb::service::PredictSiteOk site_ok{p.masked, p.sdc, p.crash, p.sdc_ratio(),
                                      boundary.threshold(2), 3.0};
  EXPECT_EQ(check_reply(site, ftb::service::make_predict_site_ok(site_ok),
                        boundary, trace), "");
  site_ok.golden_value = 3.0000000000000004;
  EXPECT_NE(check_reply(site, ftb::service::make_predict_site_ok(site_ok),
                        boundary, trace), "");
  EXPECT_NE(check_reply(site, ftb::service::make_busy("later", 5), boundary,
                        trace), "");
}

}  // namespace
}  // namespace perfbench
