// Serial vs parallel resiliency maps.  The paper analyses serial kernels;
// related work (Wu et al., "Silent data corruption resilient serial and
// parallel algorithms") asks how resiliency changes when the same
// computation runs across threads.  This bench answers with our machinery:
// for each kernel it infers the fault tolerance boundary of the serial run
// and of the deterministic 2- and 4-thread variants ("+tN" decorations,
// identical arithmetic, fixed reduction order), all with the ABFT detector
// armed ("+det"), and emits
//
//   * side-by-side boundary maps (grouped predicted per-site SDC ratio,
//     one series per thread count),
//   * an outcome table (masked/sdc/detected/crash per variant), and
//   * a per-phase detector-coverage table (coverage = detected / (detected
//     + sdc) among direct injections landing in that phase).
//
// Everything printed is a pure function of (--seed, --fraction, --preset,
// --kernels, --threads): no wall-clock, no sampling outside util::Rng --
// reruns are byte-identical, which is itself the determinism check for the
// threaded tracer shards.
//
// Flags beyond the common set: --threads 1,2,4  --fraction F (default 0.05)
// --group N (profile bucket size, default trace/60).
#include "common/bench_common.h"

#include <cstdio>
#include <string>
#include <vector>

#include "boundary/predictor.h"
#include "campaign/inference.h"
#include "fi/phase_map.h"
#include "util/ascii_plot.h"
#include "util/stats.h"

namespace {

using namespace ftb;

std::vector<std::size_t> parse_threads(const std::string& text) {
  std::vector<std::size_t> threads;
  std::size_t value = 0;
  bool have = false;
  for (const char c : text + ",") {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<std::size_t>(c - '0');
      have = true;
    } else if (have) {
      threads.push_back(value == 0 ? 1 : value);
      value = 0;
      have = false;
    }
  }
  return threads.empty() ? std::vector<std::size_t>{1, 2, 4} : threads;
}

/// One campaign over a decorated variant: boundary profile + per-phase
/// detector evidence, everything derived from the same uniform sample.
struct VariantResult {
  std::string label;                    // "serial" or "t2", "t4", ...
  campaign::OutcomeCounts counts;
  std::vector<double> profile;          // grouped predicted SDC ratio
  std::vector<std::uint64_t> detected;  // per phase segment
  std::vector<std::uint64_t> sdc;       // per phase segment
};

VariantResult run_variant(const std::string& kernel, std::size_t threads,
                          const bench::BenchContext& context, double fraction,
                          std::size_t group, util::ThreadPool& pool) {
  std::string decorated = kernel;
  if (threads > 1) decorated += "+t" + std::to_string(threads);
  decorated += "+det";
  const bench::PreparedKernel prepared =
      bench::prepare_kernel(decorated, context.preset);

  campaign::InferenceOptions options;
  options.sample_fraction = fraction;
  options.seed = context.seed;
  options.filter = true;
  const campaign::InferenceResult result =
      campaign::infer_uniform(*prepared.program, prepared.golden, options,
                              pool);

  VariantResult variant;
  variant.label = threads > 1 ? util::format("t%zu", threads) : "serial";
  variant.counts = result.counts;
  const std::size_t group_size =
      group ? group
            : std::max<std::size_t>(1, prepared.golden.trace.size() / 60);
  variant.profile = util::group_means(
      boundary::predicted_sdc_profile(result.boundary, prepared.golden.trace),
      group_size);

  const fi::PhaseMap phases(prepared.golden.phases,
                            prepared.golden.trace.size());
  variant.detected.assign(phases.segments().size(), 0);
  variant.sdc.assign(phases.segments().size(), 0);
  for (const campaign::ExperimentRecord& record : result.records) {
    if (!campaign::is_classic(record.id)) continue;
    if (record.result.outcome != fi::Outcome::kSdc &&
        record.result.outcome != fi::Outcome::kDetected) {
      continue;
    }
    const std::uint64_t site = campaign::site_of(record.id);
    for (std::size_t seg = 0; seg < phases.segments().size(); ++seg) {
      const auto& segment = phases.segments()[seg];
      if (site >= segment.begin && site < segment.end) {
        (record.result.outcome == fi::Outcome::kDetected ? variant.detected
                                                  : variant.sdc)[seg]++;
        break;
      }
    }
  }
  return variant;
}

std::string coverage_cell(std::uint64_t detected, std::uint64_t sdc) {
  const std::uint64_t wrong = detected + sdc;
  if (wrong == 0) return "-";
  return util::format(
      "%s (%llu/%llu)",
      util::percent(static_cast<double>(detected) /
                    static_cast<double>(wrong))
          .c_str(),
      static_cast<unsigned long long>(detected),
      static_cast<unsigned long long>(wrong));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftb;
  const util::Cli cli(argc, argv);
  bench::BenchContext context = bench::BenchContext::from_cli(cli);
  if (!cli.has("kernels")) {
    // Default to the kernels that actually have threaded variants.
    context.kernel_names = {"cg", "spmv", "stencil2d"};
  }
  const double fraction = cli.get_double("fraction", 0.05);
  const auto group = static_cast<std::size_t>(cli.get_int("group", 0));
  const std::vector<std::size_t> thread_counts =
      parse_threads(cli.get("threads", "1,2,4"));
  bench::print_banner(
      "Serial vs parallel boundary maps",
      "grouped predicted SDC ratio and ABFT detector coverage for the same\n"
      "kernel run serially and on deterministic 2-/4-thread shards (+det\n"
      "variants); identical arithmetic, fixed reduction order.",
      context);

  util::ThreadPool& pool = util::default_pool();

  for (const std::string& kernel : context.kernel_names) {
    std::vector<VariantResult> variants;
    for (const std::size_t threads : thread_counts) {
      variants.push_back(
          run_variant(kernel, threads, context, fraction, group, pool));
    }

    std::printf("--- %s (fraction %.2f%%, threads", kernel.c_str(),
                100.0 * fraction);
    for (const std::size_t threads : thread_counts) {
      std::printf(" %zu", threads);
    }
    std::printf(") ---\n");

    // Boundary maps, one series per thread count on one set of axes.
    static constexpr char kMarkers[] = {'o', '*', '#', '+', 'x', '@'};
    std::vector<util::Series> series;
    for (std::size_t i = 0; i < variants.size(); ++i) {
      series.push_back({variants[i].label, variants[i].profile,
                        kMarkers[i % sizeof(kMarkers)]});
    }
    util::PlotOptions plot_options;
    plot_options.fix_y_range = true;
    plot_options.y_min = 0.0;
    plot_options.y_max = 1.0;
    plot_options.x_label = "dynamic instruction group";
    std::printf("[boundary map] predicted SDC ratio per instruction group\n%s",
                util::plot(series, plot_options).c_str());

    // Outcome table.
    {
      util::Table table(
          {"variant", "masked", "sdc", "detected", "crash", "coverage"});
      for (const VariantResult& variant : variants) {
        const auto cell = [](std::uint64_t count) {
          return util::format("%llu",
                              static_cast<unsigned long long>(count));
        };
        table.add_row({variant.label, cell(variant.counts.masked),
                       cell(variant.counts.sdc),
                       cell(variant.counts.detected),
                       cell(variant.counts.crash),
                       util::percent(variant.counts.detected_coverage())});
      }
      bench::print_table(table, context, kernel + ": campaign outcomes");
    }

    // Per-phase detector coverage, side by side.  All variants trace the
    // same phase sequence (threads never change the phase structure).
    {
      const bench::PreparedKernel serial =
          bench::prepare_kernel(kernel, context.preset);
      const fi::PhaseMap phases(serial.golden.phases,
                                serial.golden.trace.size());
      std::vector<std::string> header = {"phase"};
      for (const VariantResult& variant : variants) {
        header.push_back(variant.label + " coverage");
      }
      util::Table table(header);
      for (std::size_t seg = 0; seg < phases.segments().size(); ++seg) {
        std::vector<std::string> row = {phases.segments()[seg].name};
        for (const VariantResult& variant : variants) {
          row.push_back(seg < variant.detected.size()
                            ? coverage_cell(variant.detected[seg],
                                            variant.sdc[seg])
                            : "-");
        }
        table.add_row(row);
      }
      bench::print_table(table, context,
                         kernel + ": detector coverage by phase");
    }
    std::fflush(stdout);
  }
  return 0;
}
