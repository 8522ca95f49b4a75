// BoundaryStore: directory loading with per-file rejection diagnostics,
// key parsing, publication, and snapshot semantics.
#include "service/store.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boundary/predictor.h"
#include "boundary/serialize.h"
#include "campaign/campaign.h"
#include "campaign/log.h"
#include "campaign/sampler.h"
#include "kernels/registry.h"
#include "util/cache.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftb::service {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ftb_store_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The boundary of a real (tiny) daxpy campaign with `seed`.
  static boundary::FaultToleranceBoundary real_boundary(std::uint64_t seed) {
    const fi::ProgramPtr program =
        kernels::make_program("daxpy", kernels::Preset::kTiny);
    const fi::GoldenRun golden = fi::run_golden(*program);
    util::Rng rng(seed);
    const auto ids =
        campaign::sample_uniform(rng, golden.sample_space_size(), 200);
    const auto records =
        campaign::run_experiments(*program, golden, ids, util::default_pool());
    campaign::CampaignLog log(program->config_key());
    log.append(records);
    return campaign::boundary_from_log(*program, golden, log, {true, 32},
                                       util::default_pool());
  }

  /// Writes a genuine artifact for daxpy@tiny@<seed> built from a real
  /// (tiny) campaign, so config keys and site counts line up.
  void write_real_artifact(std::uint64_t seed) {
    const fi::ProgramPtr program =
        kernels::make_program("daxpy", kernels::Preset::kTiny);
    const std::string path =
        (dir_ / ("daxpy@tiny@" + std::to_string(seed) + ".boundary")).string();
    ASSERT_TRUE(boundary::save_to_file(real_boundary(seed),
                                       program->config_key(), path));
  }

  fs::path dir_;
};

TEST_F(StoreTest, ParseKey) {
  const auto key = parse_store_key("cg@tiny@7");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->kernel, "cg");
  EXPECT_EQ(key->preset, "tiny");
  EXPECT_EQ(key->seed, 7u);
  EXPECT_EQ(key->str(), "cg@tiny@7");

  std::string error;
  EXPECT_FALSE(parse_store_key("cg", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_store_key("cg@tiny", &error).has_value());
  EXPECT_FALSE(parse_store_key("cg@tiny@x", &error).has_value());
  EXPECT_FALSE(parse_store_key("@tiny@1", &error).has_value());
  EXPECT_FALSE(parse_store_key("cg@tiny@1extra@2", &error).has_value());
}

TEST_F(StoreTest, LoadsRealArtifact) {
  write_real_artifact(1);
  BoundaryStore store;
  std::vector<std::string> diagnostics;
  EXPECT_EQ(store.load_directory(dir_.string(), &diagnostics), 1u);
  EXPECT_TRUE(diagnostics.empty()) << diagnostics.front();
  const auto entry = store.find("daxpy@tiny@1");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->boundary.sites(),
            entry->golden->run.dynamic_instructions());
  EXPECT_FALSE(entry->config_key.empty());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.list().size(), 1u);
}

TEST_F(StoreTest, RejectsCorruptArtifactWithDiagnostic) {
  write_real_artifact(1);
  // Flip one byte in the middle of the artifact: the CRC frame must
  // reject it at load and the store must say why.
  const fs::path path = dir_ / "daxpy@tiny@1.boundary";
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(40);
  file.put('\x5a');
  file.close();

  BoundaryStore store;
  std::vector<std::string> diagnostics;
  EXPECT_EQ(store.load_directory(dir_.string(), &diagnostics), 0u);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].find("daxpy@tiny@1.boundary"), std::string::npos)
      << diagnostics[0];
  EXPECT_EQ(store.find("daxpy@tiny@1"), nullptr);
}

// A forged element count in one artifact must cost that artifact only:
// the store rejects it with a diagnostic and serves the rest (a daemon
// booting on this directory used to abort on std::length_error).
TEST_F(StoreTest, ForgedSiteCountRejectsOneArtifactAndServesTheRest) {
  write_real_artifact(2);
  {
    util::BinaryWriter writer;
    writer.put_u64(0x4654422d424e4452ull);  // "FTB-BNDR"
    writer.put_u64(1);                      // v1: no CRC to get past
    writer.put_string("");
    writer.put_u64(std::uint64_t{1} << 61);  // sites
    writer.put_u64(0);
    std::ofstream out(dir_ / "daxpy@tiny@1.boundary", std::ios::binary);
    out.write(reinterpret_cast<const char*>(writer.buffer().data()),
              static_cast<std::streamsize>(writer.buffer().size()));
  }
  BoundaryStore store;
  std::vector<std::string> diagnostics;
  EXPECT_EQ(store.load_directory(dir_.string(), &diagnostics), 1u);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].find("daxpy@tiny@1.boundary"), std::string::npos)
      << diagnostics[0];
  EXPECT_NE(diagnostics[0].find("sites"), std::string::npos)
      << diagnostics[0];
  EXPECT_EQ(store.find("daxpy@tiny@1"), nullptr);
  EXPECT_NE(store.find("daxpy@tiny@2"), nullptr);
}

TEST_F(StoreTest, RejectsUnparsableStemAndUnknownKernel) {
  {
    std::ofstream out(dir_ / "notakey.boundary", std::ios::binary);
    out << "junk";
  }
  {
    std::ofstream out(dir_ / "nosuchkernel@tiny@1.boundary", std::ios::binary);
    out << "junk";
  }
  BoundaryStore store;
  std::vector<std::string> diagnostics;
  EXPECT_EQ(store.load_directory(dir_.string(), &diagnostics), 0u);
  EXPECT_EQ(diagnostics.size(), 2u);
}

TEST_F(StoreTest, MissingDirectoryIsEmptyNotFatal) {
  BoundaryStore store;
  std::vector<std::string> diagnostics;
  EXPECT_EQ(store.load_directory((dir_ / "nope").string(), &diagnostics), 0u);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].find("does not exist"), std::string::npos);
}

TEST_F(StoreTest, PublishMakesEntryVisibleAndSnapshotsSurviveReplace) {
  BoundaryStore store;
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  const boundary::FaultToleranceBoundary built(
      std::vector<double>(golden.dynamic_instructions(), 1.0));
  StoreKey key{"daxpy", "tiny", 5};
  std::string error;
  ASSERT_TRUE(store.publish(key, built, &error)) << error;

  const auto snapshot = store.find("daxpy@tiny@5");
  ASSERT_NE(snapshot, nullptr);

  // Re-publishing replaces the entry but the old snapshot stays valid --
  // that is the query plane's no-blocking guarantee.
  ASSERT_TRUE(store.publish(key, built, &error)) << error;
  EXPECT_EQ(snapshot->key.str(), "daxpy@tiny@5");
  EXPECT_NE(store.find("daxpy@tiny@5"), snapshot);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(StoreTest, PublishRejectsSiteCountMismatch) {
  BoundaryStore store;
  const boundary::FaultToleranceBoundary wrong(std::vector<double>(3, 1.0));
  std::string error;
  EXPECT_FALSE(store.publish({"daxpy", "tiny", 1}, wrong, &error));
  EXPECT_NE(error.find("sites"), std::string::npos) << error;
  EXPECT_FALSE(store.publish({"nosuchkernel", "tiny", 1}, wrong, &error));
  EXPECT_FALSE(error.empty());
}

// Every key of one kernel@preset has the same golden run, so the store
// keeps one per config key; another preset is another configuration.
TEST_F(StoreTest, KeysOfOneConfigShareOneGoldenRun) {
  BoundaryStore store;
  std::string error;
  ASSERT_TRUE(store.publish({"daxpy", "tiny", 1}, real_boundary(1), &error))
      << error;
  ASSERT_TRUE(store.publish({"daxpy", "tiny", 2}, real_boundary(2), &error))
      << error;
  const fi::ProgramPtr wide =
      kernels::make_program("daxpy", kernels::Preset::kDefault);
  const boundary::FaultToleranceBoundary unit(
      std::vector<double>(fi::run_golden(*wide).dynamic_instructions(), 1.0));
  ASSERT_TRUE(store.publish({"daxpy", "default", 1}, unit, &error)) << error;

  const auto first = store.find("daxpy@tiny@1");
  const auto second = store.find("daxpy@tiny@2");
  const auto other = store.find("daxpy@default@1");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(first->golden, second->golden);
  EXPECT_NE(first->golden, other->golden);
  EXPECT_EQ(other->golden->run.dynamic_instructions(), unit.sites());
  EXPECT_EQ(first->golden->phases.segments().size(),
            second->golden->phases.segments().size());

  // Re-publishing a key keeps serving the configuration's one golden run.
  ASSERT_TRUE(store.publish({"daxpy", "tiny", 1}, real_boundary(1), &error))
      << error;
  EXPECT_EQ(store.find("daxpy@tiny@1")->golden, second->golden);
}

// A store reloaded from the artifacts on disk serves the same predictions
// as the one the campaign plane published into.
TEST_F(StoreTest, ReloadedStoreServesIdenticalPredictions) {
  BoundaryStore published;
  std::string error;
  for (std::uint64_t seed : {1, 2}) {
    ASSERT_TRUE(published.publish({"daxpy", "tiny", seed}, real_boundary(seed),
                                  &error))
        << error;
    write_real_artifact(seed);
  }
  BoundaryStore reloaded;
  ASSERT_EQ(reloaded.load_directory(dir_.string()), 2u);
  EXPECT_EQ(reloaded.find("daxpy@tiny@1")->golden,
            reloaded.find("daxpy@tiny@2")->golden);

  for (const char* key : {"daxpy@tiny@1", "daxpy@tiny@2"}) {
    const auto a = published.find(key);
    const auto b = reloaded.find(key);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->golden->run.trace, b->golden->run.trace);
    for (std::size_t site = 0; site < a->boundary.sites(); ++site) {
      const double golden = b->golden->run.trace[site];
      EXPECT_EQ(a->boundary.threshold(site), b->boundary.threshold(site));
      for (int bit = 0; bit < fi::kBitsPerValue; ++bit) {
        EXPECT_EQ(boundary::predict_flip(a->boundary, site, golden, bit),
                  boundary::predict_flip(b->boundary, site, golden, bit))
            << key << " site " << site << " bit " << bit;
      }
      const boundary::SitePrediction pa =
          boundary::predict_site(a->boundary, site, golden);
      const boundary::SitePrediction pb =
          boundary::predict_site(b->boundary, site, golden);
      EXPECT_EQ(pa.masked, pb.masked);
      EXPECT_EQ(pa.sdc, pb.sdc);
      EXPECT_EQ(pa.crash, pb.crash);
    }
  }
}

}  // namespace
}  // namespace ftb::service
