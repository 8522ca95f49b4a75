// BoundaryStore: directory loading with per-file rejection diagnostics,
// key parsing, publication, and snapshot semantics.
#include "service/store.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

  /// Writes a genuine artifact for daxpy@tiny@<seed> built from a real
  /// (tiny) campaign, so config keys and site counts line up.
  void write_real_artifact(std::uint64_t seed) {
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
    const auto built = campaign::boundary_from_log(
        *program, golden, log, {true, 32}, util::default_pool());
    const std::string path =
        (dir_ / ("daxpy@tiny@" + std::to_string(seed) + ".boundary")).string();
    ASSERT_TRUE(boundary::save_to_file(built, program->config_key(), path));
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
  EXPECT_EQ(entry->boundary.sites(), entry->golden.dynamic_instructions());
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

}  // namespace
}  // namespace ftb::service
