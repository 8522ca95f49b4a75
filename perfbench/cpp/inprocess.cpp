#include "inprocess.h"

#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>

#include "boundary/predictor.h"
#include "boundary/serialize.h"
#include "campaign/checkpoint.h"
#include "campaign/log.h"
#include "campaign/sampler.h"
#include "kernels/registry.h"
#include "net/frame.h"
#include "proc.h"
#include "sections/compose.h"
#include "sections/driver.h"
#include "sections/section.h"
#include "service/protocol.h"
#include "service/store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

namespace campaign = ftb::campaign;
namespace sections = ftb::sections;
namespace service = ftb::service;
using ftb::telemetry::Telemetry;

/// Times one call as a telemetry span tagged with the op id and adds its
/// duration to `sample["<name>_ms"]`.  The span's category is the layer,
/// the part of the name before the dot.
class Span {
 public:
  Span(Telemetry& telemetry, LayerSample& sample, std::string name,
       std::uint64_t op)
      : telemetry_(telemetry),
        sample_(sample),
        name_(std::move(name)),
        op_(op),
        start_ns_(telemetry.now_ns()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    const std::uint64_t duration = telemetry_.now_ns() - start_ns_;
    const std::string layer = name_.substr(0, name_.find('.'));
    telemetry_.record_span(name_, layer, start_ns_, duration,
                           {{"op", static_cast<double>(op_)}});
    sample_[name_ + "_ms"] += static_cast<double>(duration) / 1e6;
  }

 private:
  Telemetry& telemetry_;
  LayerSample& sample_;
  std::string name_;
  std::uint64_t op_;
  std::uint64_t start_ns_;
};

ftb::fi::ProgramPtr make_program(const std::string& kernel) {
  return ftb::kernels::make_program(kernel,
                                    ftb::kernels::preset_from_string(kPreset));
}

/// The checkpoint options ftb_served's job runner builds for `req`, a
/// request with default fields (service/jobs.cpp): supervised, and never
/// running injected experiments on the runner's own thread.
template <class Request>
campaign::CheckpointOptions daemon_options(const Request& req) {
  campaign::CheckpointOptions options;
  options.flush_every = req.flush_every;
  options.use_supervisor = true;
  options.supervisor.pool.workers = static_cast<int>(req.workers);
  options.supervisor.pool.heartbeat_timeout_ms = req.timeout_ms;
  options.supervisor.pool.snapshot.timeout_ms = req.timeout_ms;
  options.supervisor.quarantine_after = static_cast<int>(req.quarantine_after);
  options.supervisor.allow_in_process_fallback = false;
  return options;
}

std::uint64_t masked_classic(const campaign::CampaignLog& log) {
  std::uint64_t masked = 0;
  for (const campaign::ExperimentRecord& record : log.records()) {
    if (campaign::is_classic(record.id) &&
        record.result.outcome == ftb::fi::Outcome::kMasked) {
      ++masked;
    }
  }
  return masked;
}

/// Layer metric of each span run_campaign_checkpointed records.  The
/// checkpoint.chunk span is left out: it holds a supervisor.run and a
/// checkpoint.flush.
const std::map<std::string, std::string> kLibrarySpans = {
    {"worker.spawn", "fi.pool_spawn_ms"},
    {"supervisor.run", "campaign.exec_ms"},
    {"checkpoint.flush", "campaign.journal_flush_ms"},
    {"fi.pool_teardown", "fi.pool_teardown_ms"},
};

/// Runs a fresh journal at `path` through run_campaign_checkpointed with
/// `options`, recording the library's own spans.  They are copied into
/// `telemetry` tagged with `op`, next to an fi.pool_teardown span from the
/// last journal flush to the call's return, and summed into `sample`.
campaign::CampaignLog run_journaled(const ftb::fi::Program& program,
                                    const ftb::fi::GoldenRun& golden,
                                    std::span<const campaign::ExperimentId> ids,
                                    campaign::CheckpointOptions options,
                                    Telemetry& telemetry, LayerSample& sample,
                                    std::uint64_t op) {
  std::filesystem::remove(options.path);
  Telemetry library;
  library.set_enabled(true);
  options.telemetry = &library;
  std::uint64_t last_flush_ns = library.now_ns();
  options.on_progress = [&](const campaign::CheckpointProgress&) {
    sample["campaign.journal_bytes"] +=
        static_cast<double>(std::filesystem::file_size(options.path));
    last_flush_ns = library.now_ns();
  };
  campaign::CheckpointRunResult run =
      campaign::run_campaign_checkpointed(program, golden, ids, options);
  library.record_span("fi.pool_teardown", "fi", last_flush_ns,
                      library.now_ns() - last_flush_ns);
  for (ftb::telemetry::TraceEvent& event : library.events()) {
    if (event.kind != ftb::telemetry::TraceEvent::Kind::kSpan) continue;
    const auto metric = kLibrarySpans.find(event.name);
    if (metric != kLibrarySpans.end()) {
      sample[metric->second] += static_cast<double>(event.duration_ns) / 1e6;
    }
    event.args.emplace_back("op", static_cast<double>(op));
    telemetry.record_span(std::move(event.name), std::move(event.category),
                          event.start_ns, event.duration_ns,
                          std::move(event.args));
  }
  sample["campaign.experiments"] += static_cast<double>(run.executed);
  sample["campaign.journal_flushes"] += static_cast<double>(run.flushes);
  sample["campaign.masked"] +=
      static_cast<double>(campaign::count_outcomes(run.log.records()).masked);
  return std::move(run.log);
}

void publish(const std::string& kernel, std::uint64_t seed,
             const ftb::boundary::FaultToleranceBoundary& built) {
  service::BoundaryStore store;
  std::string error;
  if (!store.publish({kernel, kPreset, seed}, built, &error)) {
    throw std::runtime_error("publish failed: " + error);
  }
}

void finish_sample(LayerSample& sample, std::uint64_t cpu_start_ns) {
  double traced = 0.0;
  for (const auto& [name, value] : sample) {
    if (name != "op_ms" && name.ends_with("_ms")) traced += value;
  }
  sample["traced_ms"] = traced;
  sample["cpu_ms"] =
      static_cast<double>(process_tree_cpu_ns() - cpu_start_ns) / 1e6;
}

}  // namespace

std::string store_key(const std::string& kernel, std::uint64_t seed) {
  return service::StoreKey{kernel, kPreset, seed}.str();
}

void reference_campaign(const CampaignOp& op, const std::string& dir) {
  const ftb::fi::ProgramPtr program = make_program(op.kernel);
  const ftb::fi::GoldenRun golden = ftb::fi::run_golden(*program);
  ftb::util::Rng rng(op.seed);
  const std::vector<campaign::ExperimentId> ids =
      campaign::sample_uniform(rng, golden.sample_space_size(), op.batch);
  const std::string stem = dir + "/" + store_key(op.kernel, op.seed);
  campaign::CheckpointOptions options;
  options.path = stem + ".clog";
  options.flush_every = 512;
  std::filesystem::remove(options.path);
  const campaign::CheckpointRunResult run =
      campaign::run_campaign_checkpointed(*program, golden, ids, options);
  const ftb::boundary::FaultToleranceBoundary built = campaign::boundary_from_log(
      *program, golden, run.log, {true, 32}, ftb::util::default_pool());
  if (!ftb::boundary::save_to_file(built, program->config_key(),
                                   stem + ".boundary")) {
    throw std::runtime_error("cannot write " + stem + ".boundary");
  }
}

void reference_compose(const ComposeOp& op, const std::string& dir) {
  const ftb::fi::ProgramPtr program = make_program(op.kernel);
  const ftb::fi::GoldenRun golden = ftb::fi::run_golden(*program);
  const std::string key = store_key(op.kernel, op.seed);
  sections::SectionCampaignOptions options;
  options.store_dir = dir;
  options.stem = key;
  options.kernel = op.kernel;
  options.preset = kPreset;
  options.carve.seed = op.seed;
  options.carve.batch_per_section = op.section_batch;
  options.carve.batch_overrides = op.overrides;
  options.flush_every = 256;
  const sections::SectionCampaignResult run =
      sections::run_section_campaigns(*program, golden, nullptr, options);
  if (run.stopped) throw std::runtime_error("reference compose stopped");
  const std::string stem = dir + "/" + key;
  if (!sections::save_composed(run.artifact, stem + ".compose") ||
      !ftb::boundary::save_to_file(run.artifact.compose(),
                                   program->config_key(), stem + ".boundary")) {
    throw std::runtime_error("cannot write " + stem + " artifacts");
  }
}

LayerSample traced_campaign(const CampaignOp& op, const std::string& dir,
                            Telemetry& telemetry, std::uint64_t op_id) {
  LayerSample sample;
  const std::uint64_t cpu_start = process_tree_cpu_ns();
  {
    Span whole(telemetry, sample, "op", op_id);
    const ftb::fi::ProgramPtr program = make_program(op.kernel);
    ftb::fi::GoldenRun golden;
    {
      Span span(telemetry, sample, "fi.golden", op_id);
      golden = ftb::fi::run_golden(*program);
    }
    sample["fi.golden_instructions"] = static_cast<double>(golden.trace.size());
    ftb::util::Rng rng(op.seed);
    const std::vector<campaign::ExperimentId> ids =
        campaign::sample_uniform(rng, golden.sample_space_size(), op.batch);
    const std::string stem = dir + "/" + store_key(op.kernel, op.seed);
    campaign::CheckpointOptions options =
        daemon_options(service::SubmitCampaignReq{});
    options.path = stem + ".clog";
    const campaign::CampaignLog log =
        run_journaled(*program, golden, ids, options, telemetry, sample, op_id);
    ftb::boundary::FaultToleranceBoundary built;
    {
      Span span(telemetry, sample, "boundary.replay", op_id);
      built = campaign::boundary_from_log(*program, golden, log, {true, 32},
                                          ftb::util::default_pool());
    }
    sample["boundary.replayed_experiments"] =
        static_cast<double>(masked_classic(log));
    {
      Span span(telemetry, sample, "boundary.save", op_id);
      if (!ftb::boundary::save_to_file(built, program->config_key(),
                                       stem + ".boundary")) {
        throw std::runtime_error("cannot write " + stem + ".boundary");
      }
    }
    sample["boundary.artifact_bytes"] =
        static_cast<double>(std::filesystem::file_size(stem + ".boundary"));
    Span span(telemetry, sample, "service.publish", op_id);
    publish(op.kernel, op.seed, built);
  }
  finish_sample(sample, cpu_start);
  return sample;
}

LayerSample traced_recompose(const ComposeOp& op,
                             const std::string& previous_path,
                             const std::string& dir, Telemetry& telemetry,
                             std::uint64_t op_id,
                             std::vector<std::string>* dirty,
                             std::vector<std::string>* reused) {
  LayerSample sample;
  const std::uint64_t cpu_start = process_tree_cpu_ns();
  {
    Span whole(telemetry, sample, "op", op_id);
    const ftb::fi::ProgramPtr program = make_program(op.kernel);
    ftb::fi::GoldenRun golden;
    {
      Span span(telemetry, sample, "fi.golden", op_id);
      golden = ftb::fi::run_golden(*program);
    }
    sample["fi.golden_instructions"] = static_cast<double>(golden.trace.size());
    const std::string config_key = program->config_key();
    std::string error;
    const std::optional<sections::ComposedArtifact> previous =
        sections::load_composed(previous_path, config_key, &error);
    if (!previous) throw std::runtime_error(error);

    sections::CarveOptions carve;
    carve.seed = op.seed;
    carve.batch_per_section = op.section_batch;
    carve.batch_overrides = op.overrides;
    sections::SectionPlan plan;
    {
      Span span(telemetry, sample, "sections.carve", op_id);
      plan = sections::carve_sections(config_key, golden, carve);
    }
    const std::string key = store_key(op.kernel, op.seed);
    sections::SectionCampaignOptions options;  // the evidence-pass defaults
    sections::ComposedArtifact artifact;
    artifact.config_key = config_key;
    artifact.kernel = op.kernel;
    artifact.preset = kPreset;
    artifact.seed = plan.seed;
    artifact.total_sites = plan.total_sites;
    for (const sections::SectionSpec& spec : plan.sections) {
      const sections::SectionRecord* prev = previous->find(spec.name);
      if (prev != nullptr && prev->spec.fingerprint == spec.fingerprint) {
        artifact.sections.push_back(*prev);
        reused->push_back(spec.name);
        continue;
      }
      const std::vector<campaign::ExperimentId> ids =
          sections::section_sample_ids(spec, plan.seed);
      campaign::CheckpointOptions checkpoint =
          daemon_options(service::SubmitRecomputeReq{});
      checkpoint.path = dir + "/" + key + "." + spec.name + ".clog";
      const campaign::CampaignLog log = run_journaled(
          *program, golden, ids, checkpoint, telemetry, sample, op_id);
      {
        Span span(telemetry, sample, "sections.record", op_id);
        artifact.sections.push_back(sections::build_section_record(
            *program, golden, spec, log, key + "." + spec.name, options));
      }
      sample["sections.replayed_experiments"] +=
          static_cast<double>(masked_classic(log));
      dirty->push_back(spec.name);
    }
    const std::string stem = dir + "/" + key;
    {
      Span span(telemetry, sample, "sections.save", op_id);
      if (!sections::save_composed(artifact, stem + ".compose")) {
        throw std::runtime_error("cannot write " + stem + ".compose");
      }
    }
    sample["sections.artifact_bytes"] =
        static_cast<double>(std::filesystem::file_size(stem + ".compose"));
    ftb::boundary::FaultToleranceBoundary built;
    {
      Span span(telemetry, sample, "sections.compose", op_id);
      built = artifact.compose();
    }
    {
      Span span(telemetry, sample, "boundary.save", op_id);
      if (!ftb::boundary::save_to_file(built, config_key, stem + ".boundary")) {
        throw std::runtime_error("cannot write " + stem + ".boundary");
      }
    }
    sample["boundary.artifact_bytes"] =
        static_cast<double>(std::filesystem::file_size(stem + ".boundary"));
    Span span(telemetry, sample, "service.publish", op_id);
    publish(op.kernel, op.seed, built);
  }
  finish_sample(sample, cpu_start);
  return sample;
}

LoadedKey load_key(const std::string& dir, const std::string& key) {
  std::string error;
  const std::optional<service::StoreKey> parsed =
      service::parse_store_key(key, &error);
  if (!parsed) throw std::runtime_error(error);
  const ftb::fi::ProgramPtr program = ftb::kernels::make_program(
      parsed->kernel, ftb::kernels::preset_from_string(parsed->preset));
  LoadedKey loaded;
  loaded.key = key;
  auto boundary = ftb::boundary::load_from_file(
      dir + "/" + key + ".boundary", program->config_key(), &error);
  if (!boundary) throw std::runtime_error(error);
  loaded.boundary = std::move(*boundary);
  loaded.trace = ftb::fi::run_golden(*program).trace;
  return loaded;
}

QueryCosts time_query_stream(const std::vector<QueryDraw>& draws,
                             const std::vector<LoadedKey>& keys,
                             Telemetry& telemetry, std::uint64_t op_id) {
  QueryCosts costs;
  for (const QueryDraw& draw : draws) {
    ++(draw.site_query ? costs.sites : costs.flips);
  }
  if (draws.empty()) return costs;
  struct Prediction {
    std::uint32_t outcome = 0;
    ftb::boundary::SitePrediction site;
  };
  std::vector<Prediction> predictions(draws.size());
  std::vector<double> predict_ns;
  std::vector<double> codec_us;
  // Three passes; the median pass is reported.
  for (int pass = 0; pass < 3; ++pass) {
    LayerSample sample;
    {
      Span span(telemetry, sample, "boundary.predict", op_id);
      for (std::size_t i = 0; i < draws.size(); ++i) {
        const QueryDraw& draw = draws[i];
        const LoadedKey& key = keys[draw.key];
        const double golden = key.trace[draw.site];
        if (draw.site_query) {
          predictions[i].site =
              ftb::boundary::predict_site(key.boundary, draw.site, golden);
        } else {
          predictions[i].outcome = static_cast<std::uint32_t>(
              ftb::boundary::predict_flip(key.boundary, draw.site, golden,
                                          static_cast<int>(draw.bit)));
        }
      }
    }
    std::uint64_t parsed = 0;
    {
      Span span(telemetry, sample, "service.codec", op_id);
      ftb::net::FrameDecoder server_side;
      ftb::net::FrameDecoder client_side;
      ftb::net::Frame frame;
      for (std::size_t i = 0; i < draws.size(); ++i) {
        const QueryDraw& draw = draws[i];
        const LoadedKey& key = keys[draw.key];
        const std::vector<std::uint8_t> request =
            ftb::net::encode_frame(request_frame(draw, key.key));
        server_side.feed(request.data(), request.size());
        server_side.pop(&frame);
        ftb::net::Frame reply;
        if (draw.site_query) {
          parsed += service::parse_predict_site(frame).has_value();
          const ftb::boundary::SitePrediction& p = predictions[i].site;
          reply = service::make_predict_site_ok(
              {p.masked, p.sdc, p.crash, p.sdc_ratio(),
               key.boundary.threshold(draw.site), key.trace[draw.site]});
        } else {
          parsed += service::parse_predict_flip(frame).has_value();
          reply = service::make_predict_flip_ok(
              {predictions[i].outcome, key.boundary.threshold(draw.site), 0.0});
        }
        const std::vector<std::uint8_t> bytes = ftb::net::encode_frame(reply);
        client_side.feed(bytes.data(), bytes.size());
        client_side.pop(&frame);
        parsed += draw.site_query
                      ? service::parse_predict_site_ok(frame).has_value()
                      : service::parse_predict_flip_ok(frame).has_value();
      }
    }
    if (parsed != 2 * draws.size()) {
      throw std::runtime_error("codec pass failed to round-trip a query");
    }
    const auto n = static_cast<double>(draws.size());
    predict_ns.push_back(sample["boundary.predict_ms"] * 1e6 / n);
    codec_us.push_back(sample["service.codec_ms"] * 1e3 / n);
  }
  costs.predict_ns = *percentile(predict_ns, 50, 0);
  costs.codec_us = *percentile(codec_us, 50, 0);
  return costs;
}

}  // namespace perfbench
