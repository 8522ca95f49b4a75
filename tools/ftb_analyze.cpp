// ftb_analyze: the command-line driver for the whole library -- run
// campaigns, build/save/load boundaries, print reports and protection
// plans without writing C++.
//
// Subcommands (first positional argument):
//   list                          known kernels and presets
//   golden   --kernel K           golden-run statistics and phase table
//   infer    --kernel K           build a boundary (uniform or adaptive
//            [--strategy uniform|adaptive] [--fraction F] [--filter 0|1]
//            [--save FILE]        sampling) and report self-verified stats
//   exhaustive --kernel K         ground-truth campaign + exact boundary
//            [--save FILE]        (slow; honours FTB_CACHE_DIR)
//   report   --kernel K --load FILE   per-phase vulnerability report
//   protect  --kernel K --load FILE   selective-protection plan
//            [--budget F | --target R]
//
// Common flags: --preset tiny|default|paper, --seed S.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>

#include "boundary/exhaustive.h"
#include "boundary/predictor.h"
#include "boundary/protection.h"
#include "boundary/report.h"
#include "boundary/serialize.h"
#include "campaign/adaptive.h"
#include "campaign/checkpoint.h"
#include "campaign/ground_truth.h"
#include "campaign/inference.h"
#include "campaign/log.h"
#include "campaign/sampler.h"
#include "campaign/supervisor.h"
#include "sections/compose.h"
#include "sections/driver.h"
#include "sections/section.h"
#include "telemetry/events.h"
#include "telemetry/export.h"
#include "util/rng.h"
#include "fi/executor.h"
#include "fi/phase_map.h"
#include "kernels/registry.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace ftb;

int cmd_list() {
  std::printf("kernels:\n");
  for (const std::string& name : kernels::program_names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("presets: tiny, default, paper\n");
  return 0;
}

struct Loaded {
  fi::ProgramPtr program;
  fi::GoldenRun golden;
};

// One process-wide telemetry sink, enabled only when an export flag asks
// for it (off = null sink, zero work in the instrumented layers).
telemetry::Telemetry& global_telemetry() {
  static telemetry::Telemetry instance;
  return instance;
}

/// Enables telemetry iff --metrics-out / --trace-out / --events-out was
/// passed; returns the sink to thread through options, or nullptr.
telemetry::Telemetry* setup_telemetry(const util::Cli& cli) {
  if (!cli.has("metrics-out") && !cli.has("trace-out") &&
      !cli.has("events-out")) {
    return nullptr;
  }
  telemetry::Telemetry& telemetry = global_telemetry();
  telemetry.set_enabled(true);
  return &telemetry;
}

/// Writes whichever exports were requested.  Returns nonzero on I/O error.
int export_telemetry(const util::Cli& cli) {
  const telemetry::Telemetry& telemetry = global_telemetry();
  if (!telemetry.enabled()) return 0;
  struct Export {
    const char* flag;
    bool (*write)(const telemetry::Telemetry&, const std::string&);
  };
  static constexpr Export kExports[] = {
      {"metrics-out", &telemetry::write_metrics_json},
      {"trace-out", &telemetry::write_chrome_trace},
      {"events-out", &telemetry::write_events_jsonl},
  };
  for (const Export& exp : kExports) {
    const std::string path = cli.get(exp.flag);
    if (path.empty()) continue;
    if (!exp.write(telemetry, path)) {
      std::fprintf(stderr, "error: could not write --%s %s\n", exp.flag,
                   path.c_str());
      return 1;
    }
    std::printf("telemetry         : --%s -> %s\n", exp.flag, path.c_str());
  }
  return 0;
}

Loaded load_kernel(const util::Cli& cli,
                   telemetry::Telemetry* telemetry = nullptr) {
  const std::string name = cli.get("kernel", "cg");
  const kernels::Preset preset =
      kernels::preset_from_string(cli.get("preset", "default"));
  Loaded loaded;
  loaded.program = kernels::make_program(name, preset);
  {
    telemetry::SpanScope span(telemetry, "golden_run", "campaign");
    loaded.golden = fi::run_golden(*loaded.program);
    span.arg("dynamic_instructions",
             static_cast<double>(loaded.golden.dynamic_instructions()));
  }
  return loaded;
}

int cmd_golden(const util::Cli& cli) {
  const Loaded k = load_kernel(cli);
  std::printf("kernel        : %s\n", k.program->name().c_str());
  std::printf("config        : %s\n", k.program->config_key().c_str());
  std::printf("dyn. instrs   : %llu\n",
              static_cast<unsigned long long>(k.golden.dynamic_instructions()));
  std::printf("sample space  : %llu experiments\n",
              static_cast<unsigned long long>(k.golden.sample_space_size()));
  std::printf("output size   : %zu values, tolerance %.3g\n",
              k.golden.output.size(), k.golden.tolerance);
  const fi::PhaseMap phases(k.golden.phases, k.golden.trace.size());
  util::Table table({"phase", "instructions", "share"});
  for (const auto& segment : phases.segments()) {
    table.add_row(
        {segment.name,
         util::format("[%llu, %llu)",
                      static_cast<unsigned long long>(segment.begin),
                      static_cast<unsigned long long>(segment.end)),
         util::percent(static_cast<double>(segment.size()) /
                       static_cast<double>(k.golden.trace.size()))});
  }
  std::fputs(table.render("\nphases").c_str(), stdout);
  return 0;
}

void describe_boundary(const boundary::FaultToleranceBoundary& built,
                       const Loaded& k) {
  std::printf("informed sites    : %zu of %zu\n", built.informed_sites(),
              built.sites());
  std::printf("predicted SDC     : %s\n",
              util::percent(
                  boundary::predicted_overall_sdc(built, k.golden.trace))
                  .c_str());
}

int save_if_requested(const util::Cli& cli,
                      const boundary::FaultToleranceBoundary& built,
                      const Loaded& k) {
  const std::string path = cli.get("save");
  if (path.empty()) return 0;
  if (!boundary::save_to_file(built, k.program->config_key(), path)) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    return 1;
  }
  std::printf("boundary saved to %s\n", path.c_str());
  return 0;
}

int cmd_infer(const util::Cli& cli) {
  telemetry::Telemetry* const tele = setup_telemetry(cli);
  const Loaded k = load_kernel(cli, tele);
  const std::string strategy = cli.get("strategy", "uniform");
  util::ThreadPool& pool = util::default_pool();

  boundary::FaultToleranceBoundary built;
  if (strategy == "adaptive") {
    campaign::AdaptiveOptions options;
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    options.filter = cli.get_bool("filter", true);
    // --workers N routes every round through the persistent worker-pool
    // supervisor -- the only safe way to run adaptive inference on the
    // hazard kernels, whose lethal flips would kill this process.
    options.use_supervisor =
        cli.has("workers") || cli.has("quarantine-after");
    options.supervisor.pool.workers = cli.get_int("workers", 4);
    options.supervisor.quarantine_after = cli.get_int("quarantine-after", 3);
    // --snapshot serves each refinement round from the copy-on-write
    // fork-server inside the pool workers (fi/snapshot.h), so late-site
    // rounds stop replaying the whole prefix.  It needs the supervisor, so
    // it forces one on; the records and boundary stay byte-identical to
    // the classic supervisor path (tests/test_adaptive.cpp pins this).
    if (cli.get_bool("snapshot", cli.has("snapshot-every"))) {
      options.use_supervisor = true;
      options.supervisor.pool.use_snapshots = true;
      options.supervisor.pool.snapshot.interval =
          static_cast<std::uint64_t>(cli.get_int("snapshot-every", 4096));
    }
    options.telemetry = tele;
    const campaign::AdaptiveResult result =
        campaign::infer_adaptive(*k.program, k.golden, options, pool);
    std::printf("adaptive sampling : %zu experiments (%.2f%% of space), "
                "%zu rounds\n",
                result.sampled_ids.size(), 100.0 * result.sample_fraction(),
                result.rounds.size());
    if (options.use_supervisor) {
      std::printf("supervisor        : %llu workers spawned, %llu deaths, "
                  "%llu hangs, %llu quarantined\n",
                  static_cast<unsigned long long>(
                      result.supervisor_stats.pool.workers_spawned),
                  static_cast<unsigned long long>(
                      result.supervisor_stats.worker_deaths),
                  static_cast<unsigned long long>(
                      result.supervisor_stats.worker_hangs),
                  static_cast<unsigned long long>(
                      result.supervisor_stats.quarantined));
    }
    std::fputs(boundary::render_build_health(result.nonfinite_skipped).c_str(),
               stdout);
    built = result.boundary;
  } else if (strategy == "uniform") {
    campaign::InferenceOptions options;
    options.sample_fraction = cli.get_double("fraction", 0.01);
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    options.filter = cli.get_bool("filter", true);
    options.telemetry = tele;
    const campaign::InferenceResult result =
        campaign::infer_uniform(*k.program, k.golden, options, pool);
    const util::Confusion self = campaign::confusion_on_records(
        result.boundary, k.golden.trace, result.records);
    std::printf("uniform sampling  : %zu experiments (%.2f%% of space)\n",
                result.sampled_ids.size(), 100.0 * options.sample_fraction);
    std::printf("outcomes          : masked %llu / sdc %llu / detected %llu / "
                "crash %llu / hang %llu\n",
                static_cast<unsigned long long>(result.counts.masked),
                static_cast<unsigned long long>(result.counts.sdc),
                static_cast<unsigned long long>(result.counts.detected),
                static_cast<unsigned long long>(result.counts.crash),
                static_cast<unsigned long long>(result.counts.hang));
    std::printf("uncertainty       : %s (self-verified precision)\n",
                util::percent(self.precision()).c_str());
    std::fputs(boundary::render_build_health(result.nonfinite_skipped).c_str(),
               stdout);
    built = result.boundary;
  } else {
    std::fprintf(stderr, "error: unknown --strategy %s\n", strategy.c_str());
    return 1;
  }
  describe_boundary(built, k);
  const int saved = save_if_requested(cli, built, k);
  const int exported = export_telemetry(cli);
  return saved != 0 ? saved : exported;
}

void print_outcomes(std::span<const campaign::ExperimentRecord> records) {
  const campaign::OutcomeCounts counts = campaign::count_outcomes(records);
  std::printf("outcomes          : masked %llu / sdc %llu / detected %llu / "
              "crash %llu / hang %llu\n",
              static_cast<unsigned long long>(counts.masked),
              static_cast<unsigned long long>(counts.sdc),
              static_cast<unsigned long long>(counts.detected),
              static_cast<unsigned long long>(counts.crash),
              static_cast<unsigned long long>(counts.hang));
  if (counts.detected > 0) {
    std::printf("detector coverage : %s (%llu of %llu corruptions caught)\n",
                util::percent(counts.detected_coverage()).c_str(),
                static_cast<unsigned long long>(counts.detected),
                static_cast<unsigned long long>(counts.detected +
                                                counts.sdc));
  }
  const std::string reasons =
      campaign::describe_crash_reasons(campaign::count_crash_reasons(records));
  if (!reasons.empty()) {
    std::printf("crash reasons     : %s\n", reasons.c_str());
  }
}

/// Samples --batch experiment ids in the fault model selected by --fault
/// bitflip|burst|mem|memburst (default bitflip, the paper's single-bit
/// trace flip).  Burst models flip --burst-width contiguous bits (default
/// 2); memory-resident models draw from the live-state spans the kernel
/// announces via Tracer::touch().  The id set is a pure function of
/// (--seed + seed_offset, --fault, --burst-width), so resumed invocations
/// re-aim at the interrupted experiment set.
std::vector<campaign::ExperimentId> sample_fault_ids(
    const util::Cli& cli, const Loaded& k, std::uint64_t seed_offset) {
  const auto batch = static_cast<std::uint64_t>(cli.get_int("batch", 1000));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)) +
                seed_offset);
  const std::string fault = cli.get("fault", "bitflip");
  const int width = static_cast<int>(cli.get_int("burst-width", 2));
  if (fault == "bitflip") {
    return campaign::sample_uniform(rng, k.golden.sample_space_size(), batch);
  }
  if (fault == "burst") {
    // Same (site, start_bit) space as bitflip; re-tag each id with the
    // burst width.  encode_burst is monotonic in (site, bit), so the
    // sorted-distinct property of sample_uniform survives.
    std::vector<campaign::ExperimentId> ids = campaign::sample_uniform(
        rng, k.golden.sample_space_size(), batch);
    for (campaign::ExperimentId& id : ids) {
      id = campaign::encode_burst(campaign::site_of(id), campaign::bit_of(id),
                                  width);
    }
    return ids;
  }
  if (fault == "mem" || fault == "memburst") {
    const std::uint64_t space = fi::mem_sample_space(k.golden.touch_sizes);
    if (space == 0) {
      throw std::invalid_argument(
          "kernel '" + k.program->name() +
          "' announces no live spans (Tracer::touch), so it has no "
          "memory-resident fault space");
    }
    const int mem_width = fault == "mem" ? 1 : width;
    std::vector<campaign::ExperimentId> ids;
    ids.reserve(batch);
    for (const std::uint64_t flat :
         campaign::sample_uniform(rng, space, batch)) {
      ids.push_back(campaign::encode_mem(
          fi::mem_fault_at(k.golden.touch_sizes, flat, mem_width)));
    }
    return ids;
  }
  throw std::invalid_argument("unknown --fault '" + fault +
                              "' (expected bitflip, burst, mem or memburst)");
}

/// Checkpointed campaign: run the sampled experiment set through the
/// journalled runner, flushing every --flush-every experiments so an
/// interrupted invocation resumes from the last flush.  --timeout-ms (or
/// --sandbox 1) routes experiments through the fork-based isolation layer;
/// --workers N upgrades that to the persistent worker-pool supervisor
/// (heartbeats, respawn with backoff, --quarantine-after K site
/// quarantine), which is the cheapest way to campaign hazard kernels.
int cmd_campaign_resume(const util::Cli& cli, const Loaded& k,
                        const std::string& path,
                        telemetry::Telemetry* tele) {
  campaign::CheckpointOptions options;
  options.telemetry = tele;
  options.path = path;
  options.flush_every =
      static_cast<std::size_t>(cli.get_int("flush-every", 512));
  options.use_sandbox = cli.get_bool("sandbox", cli.has("timeout-ms"));
  options.sandbox.timeout_ms =
      static_cast<std::uint32_t>(cli.get_int("timeout-ms", 2000));
  options.use_supervisor = cli.has("workers") || cli.has("quarantine-after");
  options.supervisor.pool.workers = cli.get_int("workers", 4);
  options.supervisor.pool.heartbeat_timeout_ms = options.sandbox.timeout_ms;
  options.supervisor.quarantine_after = cli.get_int("quarantine-after", 3);
  // --snapshot serves experiments from the copy-on-write fork-server
  // (fi/snapshot.h) instead of replaying each one from instruction 0.  It
  // lives inside the pool workers, so it forces the supervisor on; journals
  // stay byte-identical to the classic path either way.
  if (cli.get_bool("snapshot", cli.has("snapshot-every"))) {
    options.use_supervisor = true;
    options.supervisor.pool.use_snapshots = true;
    options.supervisor.pool.snapshot.interval =
        static_cast<std::uint64_t>(cli.get_int("snapshot-every", 4096));
    options.supervisor.pool.snapshot.timeout_ms = options.sandbox.timeout_ms;
  }

  // The id set must be a pure function of the seed (and fault flags): a
  // resumed invocation has to aim at the same experiments as the
  // interrupted one.
  const std::vector<campaign::ExperimentId> ids = sample_fault_ids(cli, k, 0);

  const campaign::CheckpointRunResult run =
      campaign::run_campaign_checkpointed(*k.program, k.golden, ids, options);
  if (run.resumed) {
    std::printf("resumed           : %llu of %llu experiments from %s\n",
                static_cast<unsigned long long>(run.skipped),
                static_cast<unsigned long long>(ids.size()), path.c_str());
  }
  std::printf("executed          : %llu experiments, %llu journal flushes\n",
              static_cast<unsigned long long>(run.executed),
              static_cast<unsigned long long>(run.flushes));
  if (options.use_supervisor) {
    const campaign::SupervisorStats& sup = run.supervisor_stats;
    std::printf("supervisor        : %llu workers spawned, %llu deaths, "
                "%llu hangs, %llu respawns\n",
                static_cast<unsigned long long>(sup.pool.workers_spawned),
                static_cast<unsigned long long>(sup.worker_deaths),
                static_cast<unsigned long long>(sup.worker_hangs),
                static_cast<unsigned long long>(sup.pool.respawns));
    std::printf("work accounting   : %llu chunks, %llu requeued, "
                "%llu quarantined, %llu fallback\n",
                static_cast<unsigned long long>(sup.chunks_dispatched),
                static_cast<unsigned long long>(sup.experiments_requeued),
                static_cast<unsigned long long>(sup.quarantined),
                static_cast<unsigned long long>(sup.fallback_experiments));
  } else if (options.use_sandbox) {
    std::printf("sandbox           : %llu children, %llu signal deaths, "
                "%llu watchdog kills, %llu fallback\n",
                static_cast<unsigned long long>(run.sandbox_stats.children_spawned),
                static_cast<unsigned long long>(run.sandbox_stats.signal_deaths),
                static_cast<unsigned long long>(run.sandbox_stats.watchdog_kills),
                static_cast<unsigned long long>(
                    run.sandbox_stats.fallback_experiments));
  }
  std::printf("logged %zu distinct experiments -> %s\n", run.log.size(),
              path.c_str());
  print_outcomes(run.log.records());
  return export_telemetry(cli);
}

/// Journal-less one-shot campaign: sample --batch experiments and classify
/// them in chunks, through the persistent worker-pool supervisor
/// (--workers N), the per-batch sandbox (--sandbox / --timeout-ms), or
/// in-process.  Nothing is written except the telemetry exports -- this is
/// the quickest way to profile a campaign configuration.
int cmd_campaign_oneshot(const util::Cli& cli, const Loaded& k,
                         telemetry::Telemetry* tele) {
  util::ThreadPool& pool = util::default_pool();
  const std::vector<campaign::ExperimentId> ids = sample_fault_ids(cli, k, 0);

  const auto chunk_size = static_cast<std::size_t>(cli.get_int("chunk", 256));
  const auto timeout_ms =
      static_cast<std::uint32_t>(cli.get_int("timeout-ms", 2000));
  const bool use_sandbox = cli.get_bool("sandbox", cli.has("timeout-ms"));

  // --snapshot requires the worker-pool supervisor (the fork-server lives
  // inside its workers), so it forces one on even without --workers.
  const bool use_snapshots =
      cli.get_bool("snapshot", cli.has("snapshot-every"));
  std::optional<campaign::CampaignSupervisor> supervisor;
  if (cli.has("workers") || use_snapshots) {
    campaign::SupervisorOptions options;
    options.pool.workers = static_cast<int>(cli.get_int("workers", 4));
    options.pool.heartbeat_timeout_ms = timeout_ms;
    options.pool.use_snapshots = use_snapshots;
    options.pool.snapshot.interval =
        static_cast<std::uint64_t>(cli.get_int("snapshot-every", 4096));
    options.pool.snapshot.timeout_ms = timeout_ms;
    options.quarantine_after =
        static_cast<int>(cli.get_int("quarantine-after", 3));
    options.telemetry = tele;
    supervisor.emplace(*k.program, k.golden, options);
  }
  fi::SandboxOptions sandbox_options;
  sandbox_options.timeout_ms = timeout_ms;

  std::vector<campaign::ExperimentRecord> records;
  records.reserve(ids.size());
  std::size_t chunks = 0;
  for (std::size_t begin = 0; begin < ids.size(); begin += chunk_size) {
    const std::size_t end = std::min(begin + chunk_size, ids.size());
    const std::span<const campaign::ExperimentId> chunk(ids.data() + begin,
                                                        end - begin);
    telemetry::SpanScope span(tele, "campaign.chunk", "campaign");
    span.arg("experiments", static_cast<double>(chunk.size()));
    std::vector<campaign::ExperimentRecord> chunk_records;
    if (supervisor) {
      chunk_records = supervisor->run(chunk);
    } else if (use_sandbox) {
      chunk_records = campaign::run_experiments_sandboxed(
          *k.program, k.golden, chunk, sandbox_options);
    } else {
      chunk_records =
          campaign::run_experiments(*k.program, k.golden, chunk, pool);
    }
    records.insert(records.end(), chunk_records.begin(), chunk_records.end());
    ++chunks;
  }

  std::printf("executed          : %zu experiments in %zu chunks\n",
              records.size(), chunks);
  if (supervisor) {
    const campaign::SupervisorStats sup = supervisor->stats();
    std::printf("supervisor        : %llu workers spawned, %llu deaths, "
                "%llu hangs, %llu quarantined\n",
                static_cast<unsigned long long>(sup.pool.workers_spawned),
                static_cast<unsigned long long>(sup.worker_deaths),
                static_cast<unsigned long long>(sup.worker_hangs),
                static_cast<unsigned long long>(sup.quarantined));
  }
  print_outcomes(records);
  return export_telemetry(cli);
}

/// Runs (or extends) a persistent campaign log, then rebuilds the boundary
/// from everything logged so far -- the resumable-campaign workflow.
int cmd_campaign(const util::Cli& cli) {
  telemetry::Telemetry* const tele = setup_telemetry(cli);
  const Loaded k = load_kernel(cli, tele);
  const std::string resume = cli.get("resume");
  if (!resume.empty()) return cmd_campaign_resume(cli, k, resume, tele);

  const std::string path = cli.get("log");
  if (path.empty()) {
    // No journal requested: run the one-shot (ephemeral) campaign.
    return cmd_campaign_oneshot(cli, k, tele);
  }
  util::ThreadPool& pool = util::default_pool();

  campaign::CampaignLog log(k.program->config_key());
  std::string load_error;
  if (auto existing = campaign::CampaignLog::load(path, &load_error)) {
    if (existing->config_key() != k.program->config_key()) {
      std::fprintf(stderr, "error: %s holds a different configuration\n",
                   path.c_str());
      return 1;
    }
    log = std::move(*existing);
    std::printf("resuming: %zu experiments already logged\n", log.size());
  } else if (load_error.find("cannot open") == std::string::npos) {
    // Missing file = fresh campaign; anything else is real corruption.
    std::fprintf(stderr, "error: %s\n", load_error.c_str());
    return 1;
  }

  const std::vector<campaign::ExperimentId> ids =
      sample_fault_ids(cli, k, log.size());
  log.append(campaign::run_experiments(*k.program, k.golden, ids, pool));
  log.dedupe();
  if (!log.save(path)) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    return 1;
  }
  std::printf("logged %zu distinct experiments -> %s\n", log.size(),
              path.c_str());
  print_outcomes(log.records());

  const boundary::FaultToleranceBoundary built = campaign::boundary_from_log(
      *k.program, k.golden, log,
      {cli.get_bool("filter", true), 32}, pool, tele);
  describe_boundary(built, k);
  const int saved = save_if_requested(cli, built, k);
  const int exported = export_telemetry(cli);
  return saved != 0 ? saved : exported;
}

sections::CarveOptions carve_options(const util::Cli& cli) {
  sections::CarveOptions carve;
  carve.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  carve.batch_per_section =
      static_cast<std::uint64_t>(cli.get_int("section-batch", 256));
  carve.batch_overrides = cli.get("section-batches");
  return carve;
}

/// Journal/artifact stem for a compositional campaign: pure function of
/// (kernel, preset, seed), so a re-invocation resumes the same files.
std::string compose_stem(const util::Cli& cli) {
  return sections::sanitize_section_name(cli.get("kernel", "cg")) + "-" +
         cli.get("preset", "default") + "-s" +
         std::to_string(cli.get_int("seed", 1));
}

/// Shows the section carve: ranges, signatures, fingerprints, budgets --
/// and, against an existing composed artifact (--artifact FILE), which
/// sections an incremental recompute would treat as dirty.
int cmd_sections(const util::Cli& cli) {
  const Loaded k = load_kernel(cli);
  const sections::SectionPlan plan = sections::carve_sections(
      k.program->config_key(), k.golden, carve_options(cli));

  std::optional<sections::ComposedArtifact> previous;
  const std::string artifact_path = cli.get("artifact");
  if (!artifact_path.empty()) {
    std::string error;
    previous = sections::load_composed(artifact_path, "", &error);
    if (!previous) {
      std::printf("previous artifact : none usable (%s)\n", error.c_str());
    }
  }

  std::printf("kernel            : %s (%s)\n", k.program->name().c_str(),
              k.program->config_key().c_str());
  std::printf("sections          : %zu over %llu dynamic instructions\n",
              plan.sections.size(),
              static_cast<unsigned long long>(plan.total_sites));
  util::Table table({"section", "range", "batch", "fingerprint", "status"});
  for (const sections::SectionSpec& spec : plan.sections) {
    std::string status = "new";
    if (previous) {
      const sections::SectionRecord* record = previous->find(spec.name);
      if (record == nullptr) {
        status = "new";
      } else if (record->spec.fingerprint == spec.fingerprint) {
        status = "clean";
      } else {
        status = "dirty";
      }
    }
    table.add_row({spec.name,
                   util::format("[%llu, %llu)",
                                static_cast<unsigned long long>(spec.begin),
                                static_cast<unsigned long long>(spec.end)),
                   std::to_string(spec.batch),
                   util::format("%016llx",
                                static_cast<unsigned long long>(
                                    spec.fingerprint)),
                   status});
  }
  std::fputs(table.render("section plan").c_str(), stdout);
  return 0;
}

volatile std::sig_atomic_t g_compose_stop = 0;
void compose_stop_handler(int) { g_compose_stop = 1; }

/// Compositional campaign: per-section checkpointed campaigns, error-bound
/// composition, incremental recompute against --artifact.  SIGTERM/SIGINT
/// drain between chunks, leaving every per-section journal resumable.
int cmd_compose(const util::Cli& cli) {
  telemetry::Telemetry* const tele = setup_telemetry(cli);
  const Loaded k = load_kernel(cli, tele);
  const std::string artifact_path = cli.get("artifact");
  if (artifact_path.empty()) {
    std::fprintf(stderr, "error: compose requires --artifact FILE\n");
    return 1;
  }

  sections::SectionCampaignOptions options;
  options.store_dir = cli.get("store-dir", ".");
  {
    std::error_code ec;
    std::filesystem::create_directories(options.store_dir, ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create store dir %s: %s\n",
                   options.store_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }
  options.stem = compose_stem(cli);
  options.kernel = cli.get("kernel", "cg");
  options.preset = cli.get("preset", "default");
  options.carve = carve_options(cli);
  options.flush_every =
      static_cast<std::size_t>(cli.get_int("flush-every", 256));
  options.force = cli.get_bool("force", false);
  options.filter = cli.get_bool("filter", true);
  options.edge_window =
      static_cast<std::uint64_t>(cli.get_int("edge-window", 16));
  options.telemetry = tele;
  options.use_supervisor = cli.has("workers") || cli.has("quarantine-after");
  options.supervisor.pool.workers = cli.get_int("workers", 4);
  options.supervisor.quarantine_after = cli.get_int("quarantine-after", 3);
  if (cli.get_bool("snapshot", cli.has("snapshot-every"))) {
    options.use_supervisor = true;
    options.supervisor.pool.use_snapshots = true;
    options.supervisor.pool.snapshot.interval =
        static_cast<std::uint64_t>(cli.get_int("snapshot-every", 4096));
  }

  g_compose_stop = 0;
  std::signal(SIGTERM, compose_stop_handler);
  std::signal(SIGINT, compose_stop_handler);
  options.should_stop = [] { return g_compose_stop != 0; };
  options.on_progress = [](const std::string& section,
                           const campaign::CheckpointProgress& progress) {
    if (progress.chunk.empty()) return;
    std::printf("  [%s] %llu/%llu experiments journaled\n", section.c_str(),
                static_cast<unsigned long long>(progress.executed),
                static_cast<unsigned long long>(progress.total));
  };

  // Incremental by default: a previous artifact at --artifact seeds the
  // fingerprint diff.  A file that exists but does not parse for this
  // config is an error (--force recomputes everything from scratch).
  std::optional<sections::ComposedArtifact> previous;
  {
    std::string error;
    previous =
        sections::load_composed(artifact_path, k.program->config_key(), &error);
    if (!previous && error.find("cannot open") == std::string::npos &&
        !options.force) {
      std::fprintf(stderr,
                   "error: %s (pass --force to rebuild from scratch)\n",
                   error.c_str());
      return 1;
    }
  }

  const sections::SectionCampaignResult result = sections::run_section_campaigns(
      *k.program, k.golden, previous ? &*previous : nullptr, options);
  if (result.stopped) {
    std::printf("drained           : %llu experiments journaled; re-run to "
                "resume\n",
                static_cast<unsigned long long>(result.executed));
    return 2;
  }

  if (!sections::save_composed(result.artifact, artifact_path)) {
    std::fprintf(stderr, "error: could not write %s\n", artifact_path.c_str());
    return 1;
  }
  std::printf("sections          : %zu recomputed, %zu reused, %llu "
              "experiments run\n",
              result.dirty.size(), result.reused.size(),
              static_cast<unsigned long long>(result.executed));

  util::Table table(
      {"section", "range", "exit bound", "entry tol", "scale", "outcomes"});
  for (std::size_t i = 0; i < result.artifact.sections.size(); ++i) {
    const sections::SectionRecord& record = result.artifact.sections[i];
    table.add_row(
        {record.spec.name,
         util::format("[%llu, %llu)",
                      static_cast<unsigned long long>(record.spec.begin),
                      static_cast<unsigned long long>(record.spec.end)),
         util::format("%.3g", record.exit_bound),
         util::format("%.3g", record.entry_tolerance),
         util::format("%.3g", result.artifact.edge_scale(i)),
         util::format("m%llu/s%llu/c%llu/h%llu/d%llu",
                      static_cast<unsigned long long>(record.masked),
                      static_cast<unsigned long long>(record.sdc),
                      static_cast<unsigned long long>(record.crash),
                      static_cast<unsigned long long>(record.hang),
                      static_cast<unsigned long long>(record.detected))});
  }
  std::fputs(table.render("composed sections").c_str(), stdout);

  const boundary::FaultToleranceBoundary composed = result.artifact.compose();
  describe_boundary(composed, k);
  std::printf("artifact saved to %s\n", artifact_path.c_str());

  // --verify: one monolithic campaign over the union of the per-section id
  // sets -- same experiments, one accumulator -- then the agreement
  // statistics EXPERIMENTS.md's recipe reads.  Per-section accumulators see
  // a subset of the monolithic evidence, so the composed boundary must be
  // pointwise conservative: `optimistic sites` is 0 on a correct splice.
  if (cli.get_bool("verify", false)) {
    util::ThreadPool& pool = util::default_pool();
    const sections::SectionPlan plan = sections::carve_sections(
        k.program->config_key(), k.golden, options.carve);
    std::vector<campaign::ExperimentId> ids;
    for (const sections::SectionSpec& spec : plan.sections) {
      const auto batch = sections::section_sample_ids(spec, plan.seed);
      ids.insert(ids.end(), batch.begin(), batch.end());
    }
    campaign::CampaignLog log(k.program->config_key());
    log.append(campaign::run_experiments(*k.program, k.golden, ids, pool));
    log.dedupe();
    const boundary::FaultToleranceBoundary monolithic =
        campaign::boundary_from_log(*k.program, k.golden, log,
                                    {options.filter, 32}, pool, tele);
    const sections::CompositionCheck check =
        sections::compare_boundaries(composed, monolithic, log.records());
    std::printf("verify            : %llu probes, %s prediction agreement\n",
                static_cast<unsigned long long>(check.probes),
                util::percent(check.agreement()).c_str());
    std::printf("informed overlap  : %llu common, %llu composed-only, %llu "
                "monolithic-only\n",
                static_cast<unsigned long long>(check.common_informed),
                static_cast<unsigned long long>(check.composed_only),
                static_cast<unsigned long long>(check.monolithic_only));
    std::printf("threshold deltas  : mean %.3g, max %.3g (relative, common "
                "informed sites); %llu optimistic sites (must be 0)\n",
                check.mean_rel_delta, check.max_rel_delta,
                static_cast<unsigned long long>(check.composed_optimistic));
    print_outcomes(log.records());
  }

  const int saved = save_if_requested(cli, composed, k);
  const int exported = export_telemetry(cli);
  return saved != 0 ? saved : exported;
}

int cmd_exhaustive(const util::Cli& cli) {
  const Loaded k = load_kernel(cli);
  util::ThreadPool& pool = util::default_pool();
  const campaign::GroundTruth truth = campaign::GroundTruth::compute(
      *k.program, k.golden, pool, !cli.get_bool("no-cache", false));
  const boundary::FaultToleranceBoundary built =
      boundary::exhaustive_boundary(truth.outcomes(), k.golden.trace);
  std::printf("experiments       : %llu\n",
              static_cast<unsigned long long>(truth.experiments()));
  std::printf("golden SDC ratio  : %s\n",
              util::percent(truth.overall_sdc_ratio()).c_str());
  describe_boundary(built, k);
  return save_if_requested(cli, built, k);
}

boundary::FaultToleranceBoundary load_boundary(const util::Cli& cli,
                                               const Loaded& k, int& status) {
  const std::string path = cli.get("load");
  status = 0;
  if (path.empty()) {
    std::fprintf(stderr, "error: --load FILE is required\n");
    status = 1;
    return {};
  }
  auto loaded = boundary::load_from_file(path, k.program->config_key());
  if (!loaded) {
    std::fprintf(stderr,
                 "error: %s does not hold a boundary for config '%s'\n",
                 path.c_str(), k.program->config_key().c_str());
    status = 1;
    return {};
  }
  return std::move(*loaded);
}

int cmd_report(const util::Cli& cli) {
  const Loaded k = load_kernel(cli);
  int status = 0;
  const boundary::FaultToleranceBoundary built = load_boundary(cli, k, status);
  if (status != 0) return status;
  const fi::PhaseMap phases(k.golden.phases, k.golden.trace.size());
  const auto rows = boundary::phase_report(phases, built, k.golden.trace);
  std::fputs(boundary::render_phase_report(rows).c_str(), stdout);
  describe_boundary(built, k);
  return 0;
}

int cmd_protect(const util::Cli& cli) {
  const Loaded k = load_kernel(cli);
  int status = 0;
  const boundary::FaultToleranceBoundary built = load_boundary(cli, k, status);
  if (status != 0) return status;

  boundary::ProtectionPlan plan;
  if (cli.has("target")) {
    plan = boundary::plan_to_target(built, k.golden.trace,
                                    cli.get_double("target", 0.01));
  } else {
    plan = boundary::plan_with_budget(built, k.golden.trace,
                                      cli.get_double("budget", 0.05));
  }
  std::printf("predicted SDC     : %s -> %s\n",
              util::percent(plan.sdc_before).c_str(),
              util::percent(plan.sdc_after).c_str());
  std::printf("coverage          : %s of predicted SDC removed\n",
              util::percent(plan.coverage()).c_str());
  std::printf("cost              : protect %zu of %zu dynamic instructions "
              "(%s)\n",
              plan.sites.size(), built.sites(),
              util::percent(plan.cost_fraction).c_str());
  const fi::PhaseMap phases(k.golden.phases, k.golden.trace.size());
  std::printf("first sites to protect:");
  for (std::size_t i = 0; i < plan.sites.size() && i < 10; ++i) {
    std::printf(" %llu(%.*s)",
                static_cast<unsigned long long>(plan.sites[i]), 24,
                std::string(phases.phase_of(plan.sites[i])).c_str());
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string command =
      cli.positional().empty() ? "help" : cli.positional().front();
  try {
    if (command == "list") return cmd_list();
    if (command == "golden") return cmd_golden(cli);
    if (command == "infer") return cmd_infer(cli);
    if (command == "exhaustive") return cmd_exhaustive(cli);
    if (command == "campaign") return cmd_campaign(cli);
    if (command == "sections") return cmd_sections(cli);
    if (command == "compose") return cmd_compose(cli);
    if (command == "report") return cmd_report(cli);
    if (command == "protect") return cmd_protect(cli);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  if (command != "help") {
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  }
  std::printf(
      "ftb_analyze -- fault tolerance boundary toolbox\n\n"
      "usage: ftb_analyze <command> [flags]\n\n"
      "commands:\n"
      "  list        known kernels and presets\n"
      "  golden      golden-run statistics and phase table\n"
      "  infer       build a boundary by sampling (--strategy uniform|adaptive,\n"
      "              --fraction F, --filter 0|1, --save FILE; with adaptive,\n"
      "              --workers N / --quarantine-after K run rounds through the\n"
      "              crash-safe supervisor -- required for hazard kernels)\n"
      "  exhaustive  ground-truth campaign and exact boundary (--save FILE)\n"
      "  campaign    resumable logged campaign: run --batch more experiments,\n"
      "              append to --log FILE, rebuild the boundary; or\n"
      "              --resume FILE for the checkpointed runner (--flush-every N,\n"
      "              --sandbox 0|1, --timeout-ms MS watchdog; sandboxing is\n"
      "              required for hazard kernels).  --workers N runs the\n"
      "              persistent worker-pool supervisor instead (heartbeats,\n"
      "              respawn, --quarantine-after K site quarantine).\n"
      "              --snapshot serves experiments from copy-on-write\n"
      "              fork-server checkpoints (--snapshot-every I dynamic\n"
      "              instructions, default 4096); implies the supervisor.\n"
      "              Without --log/--resume: one-shot campaign, nothing\n"
      "              persisted (--batch N, --chunk N, same isolation flags).\n"
      "              --fault bitflip|burst|mem|memburst picks the fault\n"
      "              model (--burst-width K, default 2): burst = K\n"
      "              contiguous bits of a traced value, mem/memburst =\n"
      "              bits of live matrix/vector state between phases\n"
      "  sections    show the section carve (ranges, signatures,\n"
      "              fingerprints, --section-batch N budgets,\n"
      "              --section-batches name=N,... overrides); with\n"
      "              --artifact FILE, mark which sections an incremental\n"
      "              recompute would treat as dirty\n"
      "  compose     compositional campaign: per-section checkpointed\n"
      "              campaigns -> error-bound composition -> whole-program\n"
      "              boundary.  Incremental against --artifact FILE\n"
      "              (fingerprint diff; only dirty sections re-run, --force\n"
      "              recomputes all).  --store-dir DIR holds per-section\n"
      "              journals; SIGTERM/SIGINT drains to resumable journals.\n"
      "              Same isolation flags as campaign (--workers,\n"
      "              --quarantine-after, --snapshot, --snapshot-every);\n"
      "              --verify re-runs the union of the section id sets as\n"
      "              one monolithic campaign and reports agreement (the\n"
      "              composed boundary must be pointwise conservative);\n"
      "              --save FILE writes the composed boundary artifact\n"
      "  report      per-phase vulnerability report (--load FILE)\n"
      "  protect     selective-protection plan (--load FILE, --budget F or\n"
      "              --target R)\n\n"
      "common flags: --kernel K  --preset tiny|default|paper  --seed S\n"
      "              kernel names accept decorations K[+tN][+det]: \"+tN\"\n"
      "              = deterministic N-thread variant (cg, spmv,\n"
      "              stencil2d), \"+det\" = ABFT detector (cg, spmv,\n"
      "              stencil2d, gemm), e.g. --kernel spmv+t2+det\n"
      "telemetry   : --metrics-out FILE (metrics JSON)  --trace-out FILE\n"
      "              (Chrome trace_event JSON for chrome://tracing/Perfetto)\n"
      "              --events-out FILE (JSONL event log); any of these flags\n"
      "              enables the otherwise-null telemetry sink on infer and\n"
      "              campaign runs\n");
  return command == "help" ? 0 : 1;
}
