// ftb_perf: the benchmark's client process and its in-process references.
//
//   ftb_perf drive --workload W --seed N --seconds T --served PATH
//                  --work DIR --fixtures DIR --cpus L,C,P,Q [--trace]
//                  --out FILE
//   ftb_perf fixtures --out DIR
//   ftb_perf reference --workload campaign --seed N --out DIR
//   ftb_perf reference --workload recompose --seed N [--overrides S] --out DIR
//
// run.py calls these; see README.md.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>

#include "drive.h"
#include "inprocess.h"
#include "util/cli.h"

namespace {

std::vector<int> parse_cpus(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) cpus.push_back(std::stoi(token));
  return cpus;
}

std::uint64_t seed_of(const ftb::util::Cli& cli) {
  return std::stoull(cli.get("seed", "1"));
}

int run(const ftb::util::Cli& cli) {
  const std::string command =
      cli.positional().empty() ? std::string{} : cli.positional().front();
  const std::string out = cli.get("out");
  if (out.empty()) throw std::runtime_error("--out is required");
  if (command == "drive") {
    perfbench::DriveOptions options;
    options.workload = cli.get("workload");
    options.seed = seed_of(cli);
    options.seconds = cli.get_double("seconds", 10.0);
    options.trace = cli.get_bool("trace");
    options.served = cli.get("served");
    options.work = cli.get("work");
    options.fixtures = cli.get("fixtures");
    options.cpus = parse_cpus(cli.get("cpus", "0,1,2,3"));
    options.out = out;
    perfbench::drive(options);
    return 0;
  }
  if (command == "fixtures") {
    perfbench::build_fixtures(out);
    return 0;
  }
  if (command == "reference") {
    std::filesystem::create_directories(out);
    const std::string workload = cli.get("workload");
    if (workload == "campaign") {
      perfbench::CampaignOp op;
      op.seed = seed_of(cli);
      perfbench::reference_campaign(op, out);
      return 0;
    }
    if (workload == "recompose") {
      perfbench::ComposeOp op;
      op.seed = seed_of(cli);
      op.overrides = cli.get("overrides");
      perfbench::reference_compose(op, out);
      return 0;
    }
  }
  std::fprintf(stderr,
               "usage: ftb_perf drive|fixtures|reference [options] --out PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(ftb::util::Cli(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftb_perf: %s\n", e.what());
    return 1;
  }
}
