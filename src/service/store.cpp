#include "service/store.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "boundary/serialize.h"
#include "kernels/registry.h"

namespace ftb::service {

namespace {

namespace fs = std::filesystem;

}  // namespace

std::string StoreKey::str() const {
  return kernel + "@" + preset + "@" + std::to_string(seed);
}

std::optional<StoreKey> parse_store_key(const std::string& text,
                                        std::string* error) {
  const auto fail = [&](const std::string& what) -> std::optional<StoreKey> {
    if (error != nullptr) {
      *error = "bad store key '" + text + "': " + what +
               " (want <kernel>@<preset>@<seed>)";
    }
    return std::nullopt;
  };
  const std::size_t first = text.find('@');
  if (first == std::string::npos) return fail("no '@' separator");
  const std::size_t second = text.find('@', first + 1);
  if (second == std::string::npos) return fail("only one '@' separator");
  StoreKey key;
  key.kernel = text.substr(0, first);
  key.preset = text.substr(first + 1, second - first - 1);
  const std::string seed = text.substr(second + 1);
  if (key.kernel.empty() || key.preset.empty() || seed.empty()) {
    return fail("empty component");
  }
  try {
    std::size_t used = 0;
    key.seed = std::stoull(seed, &used);
    if (used != seed.size()) return fail("seed is not a number");
  } catch (const std::exception&) {
    return fail("seed is not a number");
  }
  return key;
}

std::size_t BoundaryStore::load_directory(
    const std::string& dir, std::vector<std::string>* diagnostics) {
  const auto diagnose = [&](const std::string& line) {
    if (diagnostics != nullptr) diagnostics->push_back(line);
    if (telemetry::active(telemetry_)) {
      telemetry_->metrics().counter("store.load_rejects").add();
      telemetry_->instant("store.load_reject", "service");
    }
  };
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    diagnose("store directory '" + dir + "' does not exist; starting empty");
    return 0;
  }
  std::size_t loaded = 0;
  std::vector<fs::path> files;
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    if (dirent.path().extension() == ".boundary") files.push_back(dirent.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    const std::string name = path.filename().string();
    std::string error;
    const auto key = parse_store_key(path.stem().string(), &error);
    if (!key.has_value()) {
      diagnose("rejected " + name + ": " + error);
      continue;
    }
    auto artifact = boundary::load_artifact_from_file(path.string(), {}, &error);
    if (!artifact.has_value()) {
      diagnose("rejected " + name + ": " + error);
      continue;
    }
    try {
      auto entry = build_entry(*key, std::move(artifact->boundary),
                               artifact->config_key, &error);
      if (entry == nullptr) {
        diagnose("rejected " + name + ": " + error);
        continue;
      }
      insert(std::move(entry));
      ++loaded;
    } catch (const std::invalid_argument& e) {
      diagnose("rejected " + name + ": " + std::string(e.what()));
    }
  }
  if (telemetry::active(telemetry_)) {
    telemetry_->metrics().counter("store.loads").add(loaded);
  }
  return loaded;
}

std::shared_ptr<StoreEntry> BoundaryStore::build_entry(
    const StoreKey& key, boundary::FaultToleranceBoundary boundary,
    const std::string& expect_config, std::string* error) {
  const fi::ProgramPtr program =
      kernels::make_program(key.kernel, kernels::preset_from_string(key.preset));
  if (!expect_config.empty() && program->config_key() != expect_config) {
    if (error != nullptr) {
      *error = "artifact was built for config '" + expect_config +
               "' but " + key.kernel + "@" + key.preset + " is '" +
               program->config_key() + "'";
    }
    return nullptr;
  }
  auto entry = std::make_shared<StoreEntry>();
  entry->key = key;
  entry->config_key = program->config_key();
  entry->boundary = std::move(boundary);
  entry->golden = golden_for(*program);
  if (entry->boundary.sites() != entry->golden->run.dynamic_instructions()) {
    if (error != nullptr) {
      *error = "artifact has " + std::to_string(entry->boundary.sites()) +
               " sites but " + key.str() + " executes " +
               std::to_string(entry->golden->run.dynamic_instructions()) +
               " dynamic instructions";
    }
    return nullptr;
  }
  return entry;
}

std::shared_ptr<const GoldenReference> BoundaryStore::golden_for(
    const fi::Program& program) {
  const std::string config = program.config_key();
  std::lock_guard<std::mutex> lock(golden_mutex_);
  const auto it = goldens_.find(config);
  if (it != goldens_.end()) return it->second;
  fi::GoldenRun run = fi::run_golden(program);
  fi::PhaseMap phases(run.phases, run.dynamic_instructions());
  auto golden = std::make_shared<const GoldenReference>(
      GoldenReference{std::move(run), std::move(phases)});
  goldens_.emplace(config, golden);
  return golden;
}

bool BoundaryStore::publish(const StoreKey& key,
                            const boundary::FaultToleranceBoundary& boundary,
                            std::string* error,
                            std::vector<double> coverage_profile) {
  try {
    auto entry = build_entry(key, boundary, {}, error);
    if (entry == nullptr) return false;
    if (coverage_profile.size() == entry->boundary.sites()) {
      entry->coverage_profile = std::move(coverage_profile);
    }
    insert(std::move(entry));
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  if (telemetry::active(telemetry_)) {
    telemetry_->metrics().counter("store.publishes").add();
    telemetry_->instant("store.publish", "service");
  }
  return true;
}

std::shared_ptr<const StoreEntry> BoundaryStore::find(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<const StoreEntry>> BoundaryStore::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const StoreEntry>> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(entry);
  return out;
}

std::size_t BoundaryStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void BoundaryStore::insert(std::shared_ptr<const StoreEntry> entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[entry->key.str()] = std::move(entry);
  if (telemetry::active(telemetry_)) {
    telemetry_->metrics().gauge("store.entries").set(
        static_cast<double>(entries_.size()));
  }
}

}  // namespace ftb::service
