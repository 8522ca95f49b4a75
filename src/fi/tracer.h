// The dynamic-instruction tracer: this library's stand-in for the paper's
// compiler-level instrumentation.  Kernels thread a Tracer through their
// computation and pass every produced floating-point *data element* through
// Tracer::step(), which
//
//   * numbers dynamic instructions 0, 1, 2, ... (the paper's injection
//     sites),
//   * in Record mode captures the golden trace,
//   * in Inject mode applies a fault (bit flip or additive perturbation) at
//     one chosen site,
//   * in Compare mode additionally streams |x_i' - x_i| against a golden
//     trace (the error-propagation data of paper Section 2.2),
//   * simulates a "crash" by throwing CrashSignal the moment any produced
//     value is non-finite (the NaN-exception termination of Section 2.1).
//
// Kernels must be deterministic and free of data-dependent control flow so
// fault-free and faulty runs execute identical dynamic-instruction
// sequences; the executor verifies the step counts match.
//
// A kernel written as a template over its *stepper* (anything with step(),
// phase() and touch(), Tracer included) can run on a stepper compiled for
// one mode: Tracer::with_stepper() hands an Inject or Compare run a
// LaneStepper that inlines that mode's rules, with no per-step mode switch
// and no checkpoint-hook check, and runs every other tracer as itself.
// Both paths execute the same FaultState rules, so they produce the same
// values, crashes and diffs.
//
// Lane groups: a body written over its stepper's *value type* (double, or
// fi::Lanes; fi/lanes.h) also runs up to four trace-target experiments in
// one pass.  A LaneGroup hands it a LaneStepper over Lanes, which applies
// the same FaultState rules to each lane: each lane fires at its own site,
// traps on its own, and writes its own Compare diffs.  The one-experiment
// stepper is the same template over double.
//
// Golden fast-forward: such a body may also split itself into *stages*
// (stage()), naming at the start of each the live values later stages
// read.  The golden run records them (GoldenState), and a trace-target
// Inject or Compare run on a mode stepper starts at the last recorded state
// at or before its site: it restores the values and skips the stages
// before.  Kernels are deterministic with fixed control flow, so that
// prefix *is* the golden prefix and the run's results are unchanged.  The
// generic Tracer never fast-forwards.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fi/fpbits.h"
#include "fi/lanes.h"

namespace ftb::fi {

/// A named program phase starting at a dynamic-instruction index.  Kernels
/// announce phases through Tracer::phase(); the golden run records them so
/// reports can aggregate per source-level region ("setup", "iterations",
/// ...) -- the paper's Figure 4 discussion is phrased entirely in these
/// terms.
struct PhaseMark {
  std::uint64_t begin = 0;
  std::string name;

  friend bool operator==(const PhaseMark&, const PhaseMark&) = default;
};

/// A kernel's live state at the start of one of its stages, recorded by
/// the golden run (Tracer::stage): the values the stages from here on read
/// that the stages before computed, concatenated in the order the kernel
/// named them.  Values that copy constructor constants are not stored; a
/// kernel takes those from the constants when it skips the stage that
/// copied them.
struct GoldenState {
  std::uint64_t index = 0;        // dynamic instructions before the stage
  std::uint32_t touch_index = 0;  // touch() calls before the stage
  std::uint32_t stage = 0;        // the stage's number, in program order
  std::vector<double> values;

  /// Copies `values` back into `live`, the spans the stage named; a lane
  /// group's spans get each value in every lane.
  template <typename V>
  void restore(std::initializer_list<std::span<V>> live) const noexcept {
    auto from = values.begin();
    for (const std::span<V> span : live) {
      assert(values.end() - from >= static_cast<std::ptrdiff_t>(span.size()));
      std::copy_n(from, span.size(), span.begin());
      from += static_cast<std::ptrdiff_t>(span.size());
    }
    assert(from == values.end());
  }

  friend bool operator==(const GoldenState&, const GoldenState&) = default;
};

/// Thrown by Tracer::step to abort an experiment run that produced a
/// non-finite value, simulating an abnormal termination.  Executors catch
/// it; it never escapes the library.
struct CrashSignal {
  std::uint64_t site = 0;  // dynamic instruction where the run "trapped"
};

/// Describes the fault applied at one dynamic instruction (Target::kTrace)
/// or one word of live program state (Target::kMemory; see Tracer::touch).
struct Injection {
  enum class Kind : std::uint8_t {
    kBitFlip,   // flip `bit` of the produced value (the paper's fault model)
    kAddDelta,  // add `operand` (used by the Section 5 monotonicity studies)
    kSetValue,  // replace with `operand` (tests)
    kXorMask,   // XOR the bit pattern with `mask` (multi-bit fault models)
  };

  enum class Target : std::uint8_t {
    kTrace,   // fault the value produced at dynamic instruction `site`
    kMemory,  // fault word `site` of the `touch_point`-th Tracer::touch()
              // span: a memory-resident fault between program phases
  };

  std::uint64_t site = 0;
  Kind kind = Kind::kBitFlip;
  int bit = 0;
  double operand = 0.0;
  std::uint64_t mask = 0;
  Target target = Target::kTrace;
  std::uint32_t touch_point = 0;  // kMemory only: which touch() call

  static Injection bit_flip(std::uint64_t site, int bit) noexcept {
    return {site, Kind::kBitFlip, bit, 0.0, 0};
  }
  static Injection add_delta(std::uint64_t site, double delta) noexcept {
    return {site, Kind::kAddDelta, 0, delta, 0};
  }
  static Injection set_value(std::uint64_t site, double value) noexcept {
    return {site, Kind::kSetValue, 0, value, 0};
  }
  /// Generalised bit fault: flips every set bit of `mask` at once.  A
  /// single-bit mask is identical to bit_flip; two set bits model the
  /// double-bit upsets that ECC scrubbing can miss.
  static Injection xor_mask(std::uint64_t site, std::uint64_t mask) noexcept {
    return {site, Kind::kXorMask, 0, 0.0, mask};
  }
  static Injection double_bit_flip(std::uint64_t site, int bit_a,
                                   int bit_b) noexcept {
    return xor_mask(site, (std::uint64_t{1} << bit_a) |
                              (std::uint64_t{1} << bit_b));
  }
  /// Memory-resident fault: XOR every set bit of `mask` into word `word` of
  /// the span passed to the `touch_point`-th Tracer::touch() call.  A
  /// single-bit mask models a DRAM flip the kernel reads back later; a
  /// contiguous multi-bit mask models a burst upset (fi/memfault.h).
  static Injection mem_xor(std::uint32_t touch_point, std::uint64_t word,
                           std::uint64_t mask) noexcept {
    Injection injection{word, Kind::kXorMask, 0, 0.0, mask};
    injection.target = Target::kMemory;
    injection.touch_point = touch_point;
    return injection;
  }

  bool is_memory_fault() const noexcept { return target == Target::kMemory; }

  double apply(double v) const noexcept {
    switch (kind) {
      case Kind::kBitFlip:
        return flip_bit(v, bit);
      case Kind::kAddDelta:
        return v + operand;
      case Kind::kSetValue:
        return operand;
      case Kind::kXorMask:
        return from_bits(to_bits(v) ^ mask);
    }
    return v;
  }
};

/// One run's position and fault state -- or one lane's, in a lane group --
/// and the Inject/Compare rules each of its steps obeys.  Tracer::step,
/// Tracer::touch and LaneStepper all call these functions: the rules are
/// written once.
struct FaultState {
  /// fire_site of a memory-target fault: no step index reaches it.
  static constexpr std::uint64_t kNoSite = ~std::uint64_t{0};

  std::uint64_t index = 0;            // next dynamic-instruction index
  std::uint64_t fire_site = kNoSite;  // trace-target site, else kNoSite
  std::uint32_t touch_index = 0;      // next touch() call
  bool fired = false;
  double injected_error = 0.0;
  double original_value = 0.0;
  Injection injection{};

  void arm(const Injection& next) noexcept {
    injection = next;
    fire_site = next.is_memory_fault() ? kNoSite : next.site;
    fired = false;
    injected_error = 0.0;
    original_value = 0.0;
  }

  /// Inject rule for the value produced at `idx`: a trace-target fault
  /// fires at its site; once any fault has fired, a non-finite value
  /// traps.
  double inject(double v, std::uint64_t idx) {
    if (idx == fire_site) [[unlikely]] {
      v = fire(v);
      if (traps(v)) throw CrashSignal{idx};
      return v;
    }
    if (traps(v)) [[unlikely]] throw CrashSignal{idx};
    return v;
  }

  /// Trap rule: after the firing, a non-finite value traps.
  bool traps(double v) const noexcept { return fired && !std::isfinite(v); }

  /// Corrupts the value at the trace-target site.  A non-finite corrupted
  /// value has injected error +inf, and traps.
  double fire(double v) noexcept {
    fired = true;
    original_value = v;
    const double corrupted = injection.apply(v);
    injected_error = std::isfinite(corrupted)
                         ? std::fabs(corrupted - v)
                         : std::numeric_limits<double>::infinity();
    return corrupted;
  }

  /// Compare rule: from the firing on, diffs[idx] = |v - golden[idx]|.
  void compare(double v, std::uint64_t idx, std::span<const double> golden,
               std::span<double> diffs) const noexcept {
    if (fired && idx < diffs.size()) diffs[idx] = std::fabs(v - golden[idx]);
  }

  /// Memory-target rule: corrupts the injection's word of the matching
  /// touch() span in place.
  void touch(std::span<double> data) noexcept {
    const std::uint32_t point = touch_index++;
    if (injection.is_memory_fault() && !fired &&
        point == injection.touch_point && injection.site < data.size()) {
      double& word = data[injection.site];
      fired = true;
      original_value = word;
      const double corrupted = injection.apply(word);
      injected_error = std::isfinite(corrupted)
                           ? std::fabs(corrupted - word)
                           : std::numeric_limits<double>::infinity();
      word = corrupted;
    }
  }
};

/// The stepper compiled for an Inject (kCompare = false) or a Compare run:
/// of one experiment (V = double) or of a lane group (V = Lanes).  Both
/// specializations follow the Tracer below.
template <typename V, bool kCompare>
class LaneStepper;

class Tracer {
 public:
  /// Sentinel for "no checkpoint armed" (see arm_checkpoint_hook).
  static constexpr std::uint64_t kNoCheckpoint = ~std::uint64_t{0};

  /// Callback armed by the snapshot fork-server (fi/snapshot.h).  `reached`
  /// is invoked from step() the first time the dynamic-instruction index
  /// reaches the armed checkpoint and returns the next index to arm (or
  /// kNoCheckpoint to disarm).  The hook may fork(): in the child it may
  /// rearm() the tracer before returning, which is how a snapshot
  /// experiment resumes the paused execution with a real fault armed.  Raw
  /// function pointers keep std::function off the hot path, mirroring
  /// StreamHooks.
  struct CheckpointHook {
    void* ctx = nullptr;
    std::uint64_t (*reached)(void* ctx, Tracer& tracer,
                             std::uint64_t index) = nullptr;
  };

  /// Counts dynamic instructions only (used to size golden structures).
  static Tracer counter() noexcept { return Tracer(Mode::kCount); }

  /// Appends every produced value to `trace` (golden run).  When `phases`
  /// is given, Tracer::phase() announcements are recorded into it; when
  /// `touch_sizes` is given, the span length of every Tracer::touch() call
  /// is recorded (sizing the memory-resident fault space, fi/memfault.h);
  /// when `states` is given, the state at the start of every stage() is
  /// (see stage()).
  static Tracer recorder(std::vector<double>& trace,
                         std::vector<PhaseMark>* phases = nullptr,
                         std::vector<std::uint64_t>* touch_sizes = nullptr,
                         std::vector<GoldenState>* states = nullptr) noexcept {
    Tracer t(Mode::kRecord);
    t.trace_out_ = &trace;
    t.phases_out_ = phases;
    t.touch_sizes_out_ = touch_sizes;
    t.states_out_ = states;
    return t;
  }

  /// Applies `injection` at its site; throws CrashSignal on non-finite
  /// values from the injection site onward.  A mode stepper starts the run
  /// at `start` (a golden state at or before a trace-target site; see
  /// fi::start_state), the generic Tracer at instruction 0.
  static Tracer injector(const Injection& injection,
                         const GoldenState* start = nullptr) noexcept {
    Tracer t(Mode::kInject);
    t.state_.arm(injection);
    t.start_ = start;
    return t;
  }

  /// Like injector(), and additionally writes the propagated absolute error
  /// |x_i' - x_i| into diffs[i] for every site i >= injection.site.  `diffs`
  /// must have golden.size() elements and be zero-initialised by the caller.
  static Tracer comparator(const Injection& injection,
                           std::span<const double> golden,
                           std::span<double> diffs,
                           const GoldenState* start = nullptr) noexcept {
    assert(diffs.size() == golden.size());
    Tracer t(Mode::kCompare);
    t.state_.arm(injection);
    t.start_ = start;
    t.golden_ = golden;
    t.diffs_ = diffs;
    return t;
  }

  /// Low-memory comparison (the paper's Section 5 "Overhead" direction):
  /// instead of holding the golden trace in memory, the golden value for
  /// each step is pulled from a sequential source and the propagated error
  /// streamed to an observer, so no O(D) buffers exist.
  ///
  ///   next_golden(ctx) -> the golden value for the current step,
  ///   observe(ctx, site, propagated_abs_error) for every site >= the
  ///   injection site.
  ///
  /// Raw function pointers keep std::function off the hot path.
  struct StreamHooks {
    void* ctx = nullptr;
    double (*next_golden)(void* ctx) = nullptr;
    void (*observe)(void* ctx, std::uint64_t site, double error) = nullptr;
  };

  static Tracer stream_comparator(const Injection& injection,
                                  StreamHooks hooks) noexcept {
    assert(hooks.next_golden != nullptr);
    Tracer t(Mode::kCompareStream);
    t.state_.arm(injection);
    t.hooks_ = hooks;
    return t;
  }

  /// The generic hot path: every produced value of a run on the Tracer
  /// itself flows through here.  Trace-target injections fire when the
  /// dynamic-instruction index hits the injection site; once any fault has
  /// fired (trace or memory), a non-finite produced value simulates a trap
  /// via CrashSignal.
  double step(double v) {
    const std::uint64_t idx = state_.index++;
    if (idx >= next_checkpoint_) [[unlikely]] {
      // Before the injection check on purpose: a hook that rearms this
      // tracer with a fault at exactly this index must still fire it below.
      next_checkpoint_ = checkpoint_.reached(checkpoint_.ctx, *this, idx);
    }
    switch (mode_) {
      case Mode::kCount:
        return v;
      case Mode::kRecord:
        trace_out_->push_back(v);
        return v;
      case Mode::kInject:
        return state_.inject(v, idx);
      case Mode::kCompare:
        v = state_.inject(v, idx);
        state_.compare(v, idx, golden_, diffs_);
        return v;
      case Mode::kCompareStream: {
        const double golden_value = hooks_.next_golden(hooks_.ctx);
        v = state_.inject(v, idx);
        if (state_.fired && hooks_.observe != nullptr) {
          hooks_.observe(hooks_.ctx, idx, std::fabs(v - golden_value));
        }
        return v;
      }
    }
    return v;  // unreachable
  }

  /// Announces live program state (a matrix/vector span) at a phase
  /// boundary.  Consumes no dynamic-instruction index.  In Record mode the
  /// span's length is captured (when the recorder asked for touch sizes);
  /// when armed with a memory-target injection whose touch_point matches,
  /// the fault is applied to the named word *in place*.  A corrupted word
  /// that becomes non-finite does not trap here -- state is data, not a
  /// produced value -- the crash happens at the first non-finite value the
  /// kernel later *produces* from it.
  void touch(std::span<double> data) {
    if (mode_ == Mode::kCount || mode_ == Mode::kRecord) {
      ++state_.touch_index;
      if (touch_sizes_out_ != nullptr) touch_sizes_out_->push_back(data.size());
      return;
    }
    state_.touch(data);
  }

  /// Enters the body's next stage, whose live state is `live`: the values
  /// this stage and the ones after it read that the run before computed.
  /// The body runs the stage only when this returns true.  The Tracer always
  /// runs it; in the golden Record run it also records the state (none at
  /// instruction 0, and a later stage at the same index replaces an earlier
  /// one).  A mode stepper started at a golden state skips the stages
  /// before it and restores `live` at it.  Every step and touch() of a
  /// staged body must lie inside a stage, and a body that skips a stage
  /// whose values copy constructor constants must take them from those.
  bool stage(std::initializer_list<std::span<double>> live) {
    const std::uint32_t number = next_stage_++;
    if (states_out_ == nullptr || state_.index == 0) return true;
    if (!states_out_->empty() && states_out_->back().index == state_.index) {
      states_out_->pop_back();
    }
    GoldenState& state = states_out_->emplace_back();
    state.index = state_.index;
    state.touch_index = state_.touch_index;
    state.stage = number;
    for (const std::span<double> span : live) {
      state.values.insert(state.values.end(), span.begin(), span.end());
    }
    return true;
  }

  // ---- Mode-specialized stepping -------------------------------------------
  // Kernels write their body once, as a template over a stepper, and run it
  // through with_stepper() once per run.  Trace- and memory-target Inject
  // and Compare runs -- every campaign experiment -- get a one-lane
  // LaneStepper that inlines that mode's FaultState rules and starts at the
  // tracer's golden state, if any; every other tracer (Count, the golden
  // Record run, stream comparison, an armed snapshot checkpoint hook) runs
  // the body on the Tracer itself, from instruction 0.  Sharded kernels
  // (threads > 1) call the body on the Tracer directly: Tracer::Shard needs
  // the tracer.

  using value_type = double;
  using InjectStepper = LaneStepper<double, false>;
  using CompareStepper = LaneStepper<double, true>;

  /// Runs `body(stepper)` once, on the stepper compiled for this tracer's
  /// mode (see above), and returns what the body returns.  The tracer's
  /// steps(), fired(), injected_error() and original_value() afterwards --
  /// also after a CrashSignal -- equal those of `body(*this)`, and
  /// started_at() says where the run began.
  template <typename Body>
  auto with_stepper(Body&& body);

  // ---- Deterministic parallel tracing --------------------------------------
  // A threaded kernel partitions each parallel region into per-thread shards
  // with *precomputed* step counts (the region's work split is fixed by the
  // thread count, never by data).  Shard creation pre-assigns each shard the
  // global index range [begin, begin + steps), so the merged numbering is
  // identical to the serial interleaving thread 0, thread 1, ... regardless
  // of actual thread scheduling.  Shards never touch shared tracer state
  // while threads run: records, fire bookkeeping, and crash sites stay
  // shard-local (Compare-mode diff writes go to disjoint indices) and are
  // folded back -- in shard order -- by join(), which throws the *minimum*
  // crash site so crashes are as deterministic as the serial path.

  class Shard {
   public:
    Shard() = default;

    /// Per-thread hot path; safe to call concurrently with other shards.
    double step(double v) {
      const std::uint64_t idx = begin_ + local_++;
      assert(local_ <= length_);
      switch (parent_->mode_) {
        case Mode::kCount:
          return v;
        case Mode::kRecord:
          recorded_.push_back(v);
          return v;
        case Mode::kInject:
        case Mode::kCompare: {
          const FaultState& state = parent_->state_;
          const Injection& injection = state.injection;
          const bool trace_target = !injection.is_memory_fault();
          if (trace_target && idx == injection.site) {
            fired_ = true;
            original_value_ = v;
            const double corrupted = injection.apply(v);
            if (!std::isfinite(corrupted)) {
              injected_error_ = std::numeric_limits<double>::infinity();
              crash_site_ = idx;
            } else {
              injected_error_ = std::fabs(corrupted - v);
            }
            v = corrupted;
          } else if (!std::isfinite(v) && crash_site_ > idx &&
                     ((trace_target && idx > injection.site) ||
                      state.fired)) {
            crash_site_ = idx;
          }
          if (parent_->mode_ == Mode::kCompare && crash_site_ == kNoCrash &&
              (fired_ || state.fired ||
               (trace_target && idx >= injection.site)) &&
              idx < parent_->diffs_.size()) {
            parent_->diffs_[idx] = std::fabs(v - parent_->golden_[idx]);
          }
          return v;
        }
        case Mode::kCompareStream:
          assert(false && "stream comparison cannot be sharded");
          return v;
      }
      return v;  // unreachable
    }

   private:
    friend class Tracer;
    static constexpr std::uint64_t kNoCrash = ~std::uint64_t{0};

    Tracer* parent_ = nullptr;
    std::uint64_t begin_ = 0;
    std::uint64_t length_ = 0;
    std::uint64_t local_ = 0;
    std::uint64_t crash_site_ = kNoCrash;  // min non-finite site seen
    bool fired_ = false;
    double injected_error_ = 0.0;
    double original_value_ = 0.0;
    std::vector<double> recorded_;  // Record mode: this shard's trace slice
  };

  /// Reserves the next `steps` global dynamic-instruction indices for one
  /// shard.  Call once per thread, in thread order, before the parallel
  /// region runs; then run each shard on its thread and join() all shards
  /// (again in thread order) after the threads complete.
  Shard shard(std::uint64_t steps) {
    assert(mode_ != Mode::kCompareStream &&
           "stream comparison cannot be sharded");
    if (states_out_ != nullptr) {
      // A sharded run steps the Tracer and so always runs whole: its golden
      // run keeps no states.
      states_out_->clear();
      states_out_ = nullptr;
    }
    if (state_.index >= next_checkpoint_) [[unlikely]] {
      // Sharded regions reserve index ranges in bulk, so a checkpoint that
      // lands inside one fires here, at the region edge, on the calling
      // thread (never on a worker thread -- fork() inside a threaded region
      // would be unsafe).  The hook registers the *actual* index it ran at.
      next_checkpoint_ =
          checkpoint_.reached(checkpoint_.ctx, *this, state_.index);
    }
    Shard s;
    s.parent_ = this;
    s.begin_ = state_.index;
    s.length_ = steps;
    if (mode_ == Mode::kRecord) s.recorded_.reserve(steps);
    state_.index += steps;
    return s;
  }

  /// Folds shard-local state back into the tracer, in shard order, and
  /// throws CrashSignal at the minimum crashing site (matching what the
  /// serial interleaving would have trapped on first).  Each shard must
  /// have produced exactly the step count it declared.
  void join(std::span<Shard> shards) {
    std::uint64_t crash_site = Shard::kNoCrash;
    for (Shard& s : shards) {
      assert(s.local_ == s.length_ &&
             "shard produced a different step count than declared");
      if (mode_ == Mode::kRecord && trace_out_ != nullptr) {
        trace_out_->insert(trace_out_->end(), s.recorded_.begin(),
                           s.recorded_.end());
      }
      if (s.fired_) {
        state_.fired = true;
        state_.injected_error = s.injected_error_;
        state_.original_value = s.original_value_;
      }
      crash_site = std::min(crash_site, s.crash_site_);
    }
    if (crash_site != Shard::kNoCrash) throw CrashSignal{crash_site};
  }

  /// Announces that the instructions from the current index onward belong
  /// to the named program phase.  Free outside the recording golden run;
  /// kernels may call it unconditionally.
  void phase(std::string_view name) {
    if (phases_out_ != nullptr) {
      phases_out_->push_back({state_.index, std::string(name)});
    }
  }

  /// Arms `hook` to fire the first time the dynamic-instruction index
  /// reaches `first`.  Pass kNoCheckpoint (the construction default) to
  /// leave the hot path a single always-false comparison.
  void arm_checkpoint_hook(CheckpointHook hook, std::uint64_t first) noexcept {
    checkpoint_ = hook;
    next_checkpoint_ = hook.reached != nullptr ? first : kNoCheckpoint;
  }

  /// Swaps in a different injection mid-run, clearing the fired state.  Only
  /// meaningful from a checkpoint hook in a freshly forked experiment child:
  /// the new fault must not already be behind the execution point (a trace
  /// site below the current index, or a memory fault whose touch point has
  /// already been passed, can never fire).
  void rearm(const Injection& injection) noexcept { state_.arm(injection); }

  /// Number of dynamic instructions seen so far.
  std::uint64_t steps() const noexcept { return state_.index; }

  /// The dynamic instruction the run started at: its golden state's index
  /// when a mode stepper fast-forwarded it, else 0.
  std::uint64_t started_at() const noexcept { return started_at_; }

  /// True once the injection site has been reached.
  bool fired() const noexcept { return state_.fired; }

  /// |corrupted - original| at the injection site; +inf when the corrupted
  /// value was non-finite.  Only meaningful after fired().
  double injected_error() const noexcept { return state_.injected_error; }

  /// Value originally produced at the injection site (pre-corruption).
  double original_value() const noexcept { return state_.original_value; }

 private:
  enum class Mode : std::uint8_t {
    kCount,
    kRecord,
    kInject,
    kCompare,
    kCompareStream,
  };

  explicit Tracer(Mode mode) noexcept : mode_(mode) {}

  Mode mode_;
  std::uint64_t next_checkpoint_ = kNoCheckpoint;
  CheckpointHook checkpoint_{};
  FaultState state_{};
  std::uint32_t next_stage_ = 0;
  std::uint64_t started_at_ = 0;
  const GoldenState* start_ = nullptr;  // where a mode stepper starts
  std::vector<double>* trace_out_ = nullptr;
  std::vector<PhaseMark>* phases_out_ = nullptr;
  std::vector<std::uint64_t>* touch_sizes_out_ = nullptr;
  std::vector<GoldenState>* states_out_ = nullptr;
  std::span<const double> golden_{};
  std::span<double> diffs_{};
  StreamHooks hooks_{};
};

/// The one-experiment stepper with_stepper() compiles for an Inject
/// (kCompare = false) or a Compare run: the one-lane case.  It copies the
/// tracer's FaultState in, runs its rules inline, and writes the state back
/// when it goes out of scope -- when the kernel body returns and when a
/// CrashSignal unwinds it -- so classify_finished / classify_crash read the
/// tracer exactly as after a run that stepped the Tracer itself.  Given a
/// golden state, it starts at that state's step and touch counts and skips
/// the stages before it.
template <bool kCompare>
class LaneStepper<double, kCompare> {
 public:
  using value_type = double;

  LaneStepper(FaultState& home, const GoldenState* start,
              std::span<const double> golden, std::span<double> diffs) noexcept
      : home_(home), state_(home), start_(start), golden_(golden),
        diffs_(diffs) {
    if (start_ != nullptr) {
      state_.index = start_->index;
      state_.touch_index = start_->touch_index;
    }
  }
  ~LaneStepper() { home_ = state_; }
  LaneStepper(const LaneStepper&) = delete;
  LaneStepper& operator=(const LaneStepper&) = delete;

  [[gnu::always_inline]] double step(double v) {
    const std::uint64_t idx = state_.index++;
    v = state_.inject(v, idx);
    if constexpr (kCompare) state_.compare(v, idx, golden_, diffs_);
    return v;
  }

  /// Only the golden run's recorder keeps phases.
  void phase(std::string_view) const noexcept {}

  void touch(std::span<double> data) noexcept { state_.touch(data); }

  /// Skips the stages before the start state and restores `live` at it.
  bool stage(std::initializer_list<std::span<double>> live) noexcept {
    const std::uint32_t number = next_stage_++;
    if (start_ == nullptr || number > start_->stage) return true;
    if (number < start_->stage) return false;
    start_->restore(live);
    return true;
  }

 private:
  FaultState& home_;
  FaultState state_;
  std::uint32_t next_stage_ = 0;
  const GoldenState* start_;
  std::span<const double> golden_;
  std::span<double> diffs_;
};

template <typename Body>
auto Tracer::with_stepper(Body&& body) {
  if (next_checkpoint_ == kNoCheckpoint &&
      (mode_ == Mode::kInject || mode_ == Mode::kCompare)) {
    const GoldenState* start = start_;
    start_ = nullptr;  // a run starts late once
    if (start != nullptr) started_at_ = start->index;
    if (mode_ == Mode::kInject) {
      InjectStepper stepper(state_, start, {}, {});
      return body(stepper);
    }
    CompareStepper stepper(state_, start, golden_, diffs_);
    return body(stepper);
  }
  return body(*this);
}

/// The lanes of one group's run: each lane's FaultState and crash site,
/// and which lanes have fired and trapped.  It lives outside the stepper,
/// so that the stepper's own hot state -- its step index -- stays in
/// registers while the kernel body runs.
struct LaneFaults {
  static constexpr std::uint64_t kNoCrash = ~std::uint64_t{0};

  std::array<FaultState, kLanes> lanes{};
  std::array<std::uint64_t, kLanes> crash_site{};  // the step it trapped at
  std::size_t used = 0;  // lanes that carry an experiment
  unsigned armed = 0;    // lanes that fired and have not trapped
  unsigned live = 0;     // lanes that have not trapped

  explicit LaneFaults(std::span<const Injection> injections) noexcept
      : used(std::min(injections.size(), kLanes)),
        live((1u << used) - 1) {
    crash_site.fill(kNoCrash);
    for (std::size_t l = 0; l < used; ++l) {
      assert(!injections[l].is_memory_fault());
      lanes[l].arm(injections[l]);
    }
  }

  /// The lowest site of a lane that has not fired yet.
  std::uint64_t next_fire() const noexcept {
    std::uint64_t next = FaultState::kNoSite;
    for (std::size_t l = 0; l < used; ++l) {
      if (!lanes[l].fired) next = std::min(next, lanes[l].fire_site);
    }
    return next;
  }

  /// Fires every lane whose site is `idx` (FaultState::fire).
  Lanes fire(Lanes v, std::uint64_t idx) noexcept {
    for (std::size_t l = 0; l < used; ++l) {
      if (lanes[l].fired || lanes[l].fire_site != idx) continue;
      v.set(l, lanes[l].fire(v[l]));
      armed |= 1u << l;
    }
    return v;
  }

  /// Some lane of `v` is not finite: the fired ones among them trap at
  /// `idx` (FaultState::traps), and the run stops -- CrashSignal -- once
  /// no lane is left.  A trapped lane's values are dead: they are zeroed
  /// when they go non-finite, so that the stepper's one test per step
  /// keeps reading the live lanes only.
  [[gnu::noinline]] Lanes trap(Lanes v, std::uint64_t idx) {
    const unsigned nonfinite = nonfinite_lanes(v);
    const unsigned bad = nonfinite & armed;
    for (std::size_t l = 0; l < used; ++l) {
      if ((bad >> l & 1u) != 0) crash_site[l] = idx;
    }
    armed &= ~bad;
    live &= ~bad;
    if (live == 0) throw CrashSignal{idx};
    for (std::size_t l = 0; l < kLanes; ++l) {
      if ((nonfinite >> l & 1u) != 0 && (live >> l & 1u) == 0) v.set(l, 0.0);
    }
    return v;
  }
};

/// The stepper a LaneGroup compiles for an Inject (kCompare = false) or a
/// Compare run of up to kLanes experiments, one per lane of Lanes.  It
/// applies FaultState's rules to every lane of `faults` and leaves the
/// run's position there when it goes out of scope -- when the kernel body
/// returns and when a CrashSignal unwinds it.
///
/// Each lane fires at its own site and traps on its own: it records its
/// crash site and from then on affects nothing else.  The run throws
/// CrashSignal only once every lane has trapped.  Compare mode writes
/// |x_i' - x_i| of every lane, interleaved by lane (diffs[i * kLanes +
/// l]), from the first firing on; a lane that has not fired yet holds
/// golden values, so its entries there are exact zeros.  Given a golden
/// state, the stepper starts at its step count and skips the stages before
/// it.  Memory-target faults do not run in groups.
template <bool kCompare>
class LaneStepper<Lanes, kCompare> {
 public:
  using value_type = Lanes;

  /// `diffs`: golden.size() * kLanes doubles for a Compare run.
  LaneStepper(LaneFaults& faults, const GoldenState* start,
              std::span<const double> golden, std::span<double> diffs) noexcept
      : faults_(&faults),
        index_(start != nullptr ? start->index : 0),
        next_fire_(faults.next_fire()),
        start_(start),
        golden_(golden.data()),
        diffs_(diffs.data()),
        sites_(diffs.size() / kLanes) {
    assert(faults.used >= 1);
  }
  ~LaneStepper() {
    for (FaultState& lane : faults_->lanes) lane.index = index_;
  }
  LaneStepper(const LaneStepper&) = delete;
  LaneStepper& operator=(const LaneStepper&) = delete;

  [[gnu::always_inline]] Lanes step(Lanes v) {
    const std::uint64_t idx = index_++;
    if (idx == next_fire_) [[unlikely]] {
      v = faults_->fire(v, idx);
      next_fire_ = faults_->next_fire();
      fired_ = true;
    }
    // Until a lane fires, every lane holds golden values: finite, and no
    // diff to write.
    if (fired_) [[likely]] {
      if (any_nonfinite(v)) [[unlikely]] v = faults_->trap(v, idx);
      if constexpr (kCompare) {
        if (idx < sites_) {
          abs_lanes(v - Lanes(golden_[idx])).store(diffs_ + idx * kLanes);
        }
      }
    }
    return v;
  }

  /// Only the golden run's recorder keeps phases.
  void phase(std::string_view) const noexcept {}

  /// Memory-target faults do not run in groups: nothing to apply.
  void touch(std::span<Lanes>) const noexcept {}

  /// Skips the stages before the start state and restores `live` at it.
  bool stage(std::initializer_list<std::span<Lanes>> live) noexcept {
    const std::uint32_t number = next_stage_++;
    if (start_ == nullptr || number > start_->stage) return true;
    if (number < start_->stage) return false;
    start_->restore(live);
    return true;
  }

 private:
  LaneFaults* faults_;
  std::uint64_t index_;
  std::uint64_t next_fire_;  // lowest site of a lane not fired yet
  bool fired_ = false;       // some lane fired: traps and diffs from here on
  std::uint32_t next_stage_ = 0;
  const GoldenState* start_;
  const double* golden_;
  double* diffs_;
  std::size_t sites_;
};

/// Up to kLanes trace-target experiments run side by side through one pass
/// of a kernel body over Lanes (Program::run_lanes; fi::run_injected_group
/// classifies them).  The group starts at `start`, a golden state at or
/// before its lowest site; a lane whose site is later holds golden values
/// until it fires.
class LaneGroup {
 public:
  static constexpr std::uint64_t kNoCrash = LaneFaults::kNoCrash;

  /// `injections`: at most kLanes trace-target faults.  `diffs`: empty for
  /// an Inject run; for a Compare run golden.size() * kLanes doubles, which
  /// the run writes interleaved by lane (LaneStepper).
  LaneGroup(std::span<const Injection> injections, const GoldenState* start,
            std::span<const double> golden = {},
            std::span<double> diffs = {}) noexcept
      : faults_(injections), start_(start), golden_(golden), diffs_(diffs) {}

  /// Runs `body(stepper)` once on the lane stepper for this group's mode
  /// and returns the output lanes; a group without lanes runs nothing and
  /// returns {}.
  template <typename Body>
  std::vector<Lanes> with_stepper(Body&& body) {
    if (faults_.used == 0) return {};
    if (diffs_.empty()) {
      LaneStepper<Lanes, false> stepper(faults_, start_, {}, {});
      return body(stepper);
    }
    LaneStepper<Lanes, true> stepper(faults_, start_, golden_, diffs_);
    return body(stepper);
  }

  std::size_t size() const noexcept { return faults_.used; }
  /// Lane `l`'s fault state after the run: fired, injected error, ...
  const FaultState& lane(std::size_t l) const noexcept {
    return faults_.lanes[l];
  }
  /// The step lane `l` trapped at, or kNoCrash.
  std::uint64_t crash_site(std::size_t l) const noexcept {
    return faults_.crash_site[l];
  }
  /// Dynamic instructions seen, counted from 0 as Tracer::steps() is.
  std::uint64_t steps() const noexcept { return faults_.lanes[0].index; }

 private:
  LaneFaults faults_;
  const GoldenState* start_;
  std::span<const double> golden_;
  std::span<double> diffs_;
};

}  // namespace ftb::fi
