// In-process paths of the benchmark's ops.
//
//   * references: the library paths `ftb_analyze campaign --log --save` and
//     `ftb_analyze compose` take (thread-pool execution).  A daemon op's
//     published artifact must equal its reference byte for byte;
//   * traced replicas: one daemon op broken into the public calls the
//     job runner makes, in its order and with its options, each timed as a
//     telemetry span.  A replica writes the same journal and artifact bytes
//     as the daemon op it mirrors.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "plan.h"
#include "telemetry/events.h"

namespace perfbench {

/// The preset every workload runs.
inline constexpr char kPreset[] = "default";

/// A SubmitCampaign op; the request's other fields keep their defaults (2
/// workers, flush every 512 experiments, 2 s heartbeat, quarantine after 3
/// kills), and the traced replica reads them from service::SubmitCampaignReq.
struct CampaignOp {
  std::string kernel = "cg";
  std::uint64_t seed = 1;
  std::uint64_t batch = 20000;
};

/// A SubmitRecompute op in one override state; the request's other fields
/// keep their defaults (2 workers, flush every 256 experiments), read by the
/// traced replica from service::SubmitRecomputeReq.
struct ComposeOp {
  std::string kernel = "fft";
  std::uint64_t seed = 1;
  std::uint64_t section_batch = 1000;
  std::string overrides;  ///< section_batches() of the state
};

/// "<kernel>@default@<seed>", the store key and file stem of an op.
std::string store_key(const std::string& kernel, std::uint64_t seed);

/// Writes dir/<key>.clog and dir/<key>.boundary.
void reference_campaign(const CampaignOp& op, const std::string& dir);

/// Full compose of the override state: dir/<key>.compose, dir/<key>.boundary.
void reference_compose(const ComposeOp& op, const std::string& dir);

/// Layer metric -> value for one replicated op.  Times are in ms; the
/// "op_ms" entry is the replica's whole span and "traced_ms" the sum of
/// its layer spans.
using LayerSample = std::map<std::string, double>;

/// Replays one campaign op into dir (journal, boundary) with spans tagged
/// `op_id`.
LayerSample traced_campaign(const CampaignOp& op, const std::string& dir,
                            ftb::telemetry::Telemetry& telemetry,
                            std::uint64_t op_id);

/// Replays one recompose op into dir, diffing against the composed
/// artifact at `previous_path`; `dirty`/`reused` receive section names.
LayerSample traced_recompose(const ComposeOp& op,
                             const std::string& previous_path,
                             const std::string& dir,
                             ftb::telemetry::Telemetry& telemetry,
                             std::uint64_t op_id,
                             std::vector<std::string>* dirty,
                             std::vector<std::string>* reused);

/// A store key with its artifact and golden values, as the daemon's store
/// holds them.
struct LoadedKey {
  std::string key;
  ftb::boundary::FaultToleranceBoundary boundary;
  std::vector<double> trace;
};

/// Loads <dir>/<key>.boundary and recomputes the key's golden run.
LoadedKey load_key(const std::string& dir, const std::string& key);

/// Per-query costs of the in-process halves of a query, over `draws`.
struct QueryCosts {
  double codec_us = 0.0;    ///< request + reply encode/decode/parse
  double predict_ns = 0.0;  ///< predict_flip / predict_site
  std::uint64_t flips = 0;  ///< PredictFlip draws in the stream
  std::uint64_t sites = 0;  ///< PredictSite draws in the stream
};

QueryCosts time_query_stream(const std::vector<QueryDraw>& draws,
                             const std::vector<LoadedKey>& keys,
                             ftb::telemetry::Telemetry& telemetry,
                             std::uint64_t op_id);

}  // namespace perfbench
