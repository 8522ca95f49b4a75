#include "sections/driver.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "campaign/campaign.h"

namespace ftb::sections {

namespace {

std::string journal_path(const SectionCampaignOptions& options,
                         const std::string& section) {
  return options.store_dir + "/" + options.stem + "." + section + ".clog";
}

/// A dirty section's journal is resumable only when it was written by this
/// exact configuration *and* contains no experiment outside the section's
/// current id set -- extra records would survive dedupe and make a resumed
/// journal diverge from a fresh one.  Anything else is stale and removed.
void discard_stale_journal(const std::string& path,
                           const std::string& config_key,
                           std::span<const campaign::ExperimentId> ids,
                           telemetry::Telemetry* telemetry) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return;
  bool stale = false;
  std::string error;
  auto journal = campaign::CampaignLog::load(path, &error);
  if (!journal || journal->config_key() != config_key) {
    stale = true;
  } else {
    const std::vector<campaign::ExperimentId> logged = journal->ids();
    stale = !std::includes(ids.begin(), ids.end(), logged.begin(),
                           logged.end());
  }
  if (!stale) return;
  std::filesystem::remove(path, ec);
  if (telemetry::active(telemetry)) {
    telemetry->metrics().counter("sections.journal_discarded").add();
  }
}

}  // namespace

SectionRecord build_section_record(
    const fi::Program& program, const fi::GoldenRun& golden,
    const SectionSpec& spec, const campaign::CampaignLog& log,
    const std::string& journal_stem, const SectionCampaignOptions& options,
    const campaign::FirstPassEvidence* first) {
  SectionRecord record;
  record.spec = spec;
  record.executed = log.size();
  record.journal = journal_stem;

  const campaign::OutcomeCounts counts = campaign::count_outcomes(log.records());
  record.masked = counts.masked;
  record.sdc = counts.sdc;
  record.crash = counts.crash;
  record.hang = counts.hang;
  record.detected = counts.detected;

  // One shared fold (campaign::fold_log_evidence) feeds the boundary slice
  // and, from the same fold's unfiltered maxima over the exit window, the
  // section's outgoing error bound.
  const std::uint64_t window = std::max<std::uint64_t>(1, options.edge_window);
  const std::uint64_t exit_begin =
      spec.end - std::min<std::uint64_t>(window, spec.size());
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::default_pool();
  const campaign::LogEvidence evidence = campaign::fold_log_evidence(
      program, golden, log, {options.filter, options.prop_buffer_cap}, pool,
      options.telemetry, {exit_begin, spec.end}, first);
  record.exit_bound = evidence.window_max;

  const boundary::FaultToleranceBoundary whole =
      evidence.accumulator.finalize();
  record.thresholds.reserve(spec.size());
  record.exact.reserve(spec.size());
  for (std::uint64_t s = spec.begin; s < spec.end; ++s) {
    record.thresholds.push_back(whole.threshold(s));
    record.exact.push_back(whole.is_exact(s) ? 1 : 0);
  }

  const std::uint64_t entry_end =
      spec.begin + std::min<std::uint64_t>(window, spec.size());
  double entry_tolerance = boundary::FaultToleranceBoundary::kUnbounded;
  bool informed = false;
  for (std::uint64_t s = spec.begin; s < entry_end; ++s) {
    const double threshold = whole.threshold(s);
    if (threshold > 0.0) {
      informed = true;
      entry_tolerance = std::min(entry_tolerance, threshold);
    }
  }
  record.entry_tolerance = informed ? entry_tolerance : 0.0;
  return record;
}

SectionCampaignResult run_section_campaigns(
    const fi::Program& program, const fi::GoldenRun& golden,
    const ComposedArtifact* previous, const SectionCampaignOptions& options) {
  if (options.stem.empty()) {
    throw std::invalid_argument("run_section_campaigns: stem is empty");
  }
  const std::string config_key = program.config_key();
  const SectionPlan plan = carve_sections(config_key, golden, options.carve);

  SectionCampaignResult result;
  result.artifact.config_key = config_key;
  result.artifact.kernel = options.kernel;
  result.artifact.preset = options.preset;
  result.artifact.seed = plan.seed;
  result.artifact.total_sites = plan.total_sites;

  for (const SectionSpec& spec : plan.sections) {
    if (options.should_stop && options.should_stop()) {
      result.stopped = true;
      break;
    }

    const SectionRecord* prev =
        previous != nullptr ? previous->find(spec.name) : nullptr;
    if (!options.force && prev != nullptr &&
        prev->spec.fingerprint == spec.fingerprint) {
      result.artifact.sections.push_back(*prev);
      result.reused.push_back(spec.name);
      if (telemetry::active(options.telemetry)) {
        options.telemetry->metrics().counter("sections.reused").add();
      }
      continue;
    }

    const std::vector<campaign::ExperimentId> ids =
        section_sample_ids(spec, plan.seed);
    const std::string path = journal_path(options, spec.name);
    discard_stale_journal(path, config_key, ids, options.telemetry);

    SectionRunOutcome outcome;
    if (options.section_runner) {
      outcome = options.section_runner(spec, ids, path);
    } else {
      campaign::CheckpointOptions checkpoint;
      checkpoint.path = path;
      checkpoint.flush_every = options.flush_every;
      checkpoint.use_supervisor = options.use_supervisor;
      checkpoint.supervisor = options.supervisor;
      checkpoint.pool = options.pool;
      checkpoint.telemetry = options.telemetry;
      checkpoint.should_stop = options.should_stop;
      if (options.on_progress) {
        checkpoint.on_progress =
            [&](const campaign::CheckpointProgress& progress) {
              options.on_progress(spec.name, progress);
            };
      }
      campaign::CheckpointRunResult run =
          campaign::run_campaign_checkpointed(program, golden, ids, checkpoint);
      outcome.log = std::move(run.log);
      outcome.executed = run.executed;
      outcome.stopped = run.stopped;
      outcome.evidence = std::move(run.evidence);
    }
    result.executed += outcome.executed;
    if (outcome.stopped) {
      result.stopped = true;
      break;
    }

    result.artifact.sections.push_back(build_section_record(
        program, golden, spec, outcome.log, options.stem + "." + spec.name,
        options, &outcome.evidence));
    result.dirty.push_back(spec.name);
    if (telemetry::active(options.telemetry)) {
      options.telemetry->metrics().counter("sections.recomputed").add();
    }
  }
  return result;
}

CompositionCheck compare_boundaries(
    const boundary::FaultToleranceBoundary& composed,
    const boundary::FaultToleranceBoundary& monolithic,
    std::span<const campaign::ExperimentRecord> probe) {
  CompositionCheck check;
  const std::size_t sites =
      std::min(composed.sites(), monolithic.sites());
  double delta_sum = 0.0;
  for (std::size_t s = 0; s < sites; ++s) {
    const double a = composed.threshold(s);
    const double b = monolithic.threshold(s);
    const bool ia = a > 0.0;
    const bool ib = b > 0.0;
    if (a > b) ++check.composed_optimistic;
    if (ia && !ib) ++check.composed_only;
    if (ib && !ia) ++check.monolithic_only;
    if (!ia || !ib) continue;
    ++check.common_informed;
    double delta = 0.0;
    if (std::isfinite(a) != std::isfinite(b)) {
      delta = 1.0;  // one side claims an unbounded site, the other a value
    } else if (std::isfinite(a)) {
      delta = std::abs(a - b) / std::max(a, b);
    }
    check.max_rel_delta = std::max(check.max_rel_delta, delta);
    delta_sum += delta;
  }
  if (check.common_informed > 0) {
    check.mean_rel_delta =
        delta_sum / static_cast<double>(check.common_informed);
  }
  for (const campaign::ExperimentRecord& record : probe) {
    if (!campaign::is_classic(record.id)) continue;
    const std::uint64_t site = campaign::site_of(record.id);
    if (site >= sites) continue;
    ++check.probes;
    const double error = record.result.injected_error;
    if (composed.predict_masked(site, error) ==
        monolithic.predict_masked(site, error)) {
      ++check.predictions_agree;
    }
  }
  return check;
}

}  // namespace ftb::sections
