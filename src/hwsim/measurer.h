// The Measurer (paper Fig. 4): compiles (lowers) candidate programs and
// "executes" them on the simulated target, returning execution time.
//
// Each trial lowers the State it measures. Only the few best candidates of a
// round are measured, so the loop tree lives for one trial; the search's
// ProgramCache keeps features and verdicts, not trees
// (src/program/program_artifact.h).
//
// Mirrors real-hardware behaviour the search must cope with: invalid programs
// fail measurement (throughput 0), results can carry multiplicative noise,
// and batch measurement runs in parallel.
#ifndef ANSOR_SRC_HWSIM_MEASURER_H_
#define ANSOR_SRC_HWSIM_MEASURER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/hwsim/simulator.h"
#include "src/ir/state.h"
#include "src/telemetry/trace.h"

namespace ansor {

class ThreadPool;

struct MeasureOptions {
  // Layout-rewrite of constant tensors (paper §4.2); on by default for
  // inference workloads, off for the ablation bench.
  SimOptions sim;
  // Multiplicative log-normal noise stddev on measured time (0 = exact).
  double noise_stddev = 0.0;
  uint64_t noise_seed = 0;
  // Verify every Nth measured program against naive execution (0 = never).
  // Catches lowering bugs during long searches without paying interpretation
  // cost for every candidate.
  int verify_every = 0;
  // Chaos/test hook: measurements for which this returns true are reported
  // invalid, emulating the transient failures real hardware produces (driver
  // hiccups, timeouts). The search must tolerate these without permanently
  // blacklisting the affected programs.
  std::function<bool(const State&)> fail_injector;
  // Device executor for MeasureBatch / SubmitBatch: when set, every trial
  // runs on this pool and on no other thread, so a measurer can model a
  // dedicated device whose capacity is independent of the host workers
  // (bench/e2e's service workloads give each tenant's measurer a
  // single-thread device pool). nullptr = the pool passed to SubmitBatch,
  // else ThreadPool::Global().
  ThreadPool* thread_pool = nullptr;
  // Emulated per-trial device occupancy (seconds): after computing the
  // simulated cost, the measurement holds its worker for this wall-clock
  // duration, modeling the host-idle time real hardware measurement imposes
  // (remote RPC round trips, on-device runs). 0 = off. Timing only — the
  // measured values are unaffected, so determinism tests are unaffected too.
  double measure_latency_seconds = 0.0;
};

struct MeasureResult {
  bool valid = false;
  // True when the measurement was cancelled before it started (deadline hit,
  // PendingMeasureBatch::Cancel). A cancelled trial never reached the device:
  // it does not count toward Measurer::trial_count() and the search must not
  // treat it as a failed measurement (no blacklist, no zero-throughput
  // training sample, no spent budget).
  bool cancelled = false;
  std::string error;
  double seconds = 0.0;
  // FLOPS achieved (task flop count / seconds); the search maximizes this.
  double throughput = 0.0;
};

// Handle to an in-flight asynchronous measurement batch (Measurer::
// SubmitBatch). While a batch occupies its pool (or sleeps out its emulated
// device latency), other jobs keep searching, and a deadline can cancel the
// items that have not started. Results are index-aligned with the submitted
// states and independent of worker count or completion order.
class PendingMeasureBatch {
 public:
  // An empty handle behaves like a completed empty batch.
  PendingMeasureBatch() = default;

  // Blocks until every item has finished (or been skipped by Cancel) and
  // returns the results. May be called once; subsequent calls return empty.
  std::vector<MeasureResult> Wait();
  // Waits up to `seconds`; true when the batch has fully completed.
  bool WaitFor(double seconds);
  // Requests cancellation: items not yet started complete immediately with
  // cancelled = true; items already measuring finish normally. Wait() still
  // must be called to collect the results.
  void Cancel();
  bool done() const;

 private:
  friend class Measurer;
  struct Shared;
  std::shared_ptr<Shared> shared_;
};

class Measurer {
 public:
  explicit Measurer(MachineModel machine, MeasureOptions options = MeasureOptions());

  const MachineModel& machine() const { return machine_; }

  // A non-null `tracer` records a "measure_trial" span per trial (args:
  // outcome, and queue_seconds for batch items — the time the item waited
  // for a device worker; the span's own duration is the device time) under
  // a "measure_batch" span covering submit→complete. Results are identical
  // with tracing on or off.
  MeasureResult Measure(const State& state, const Tracer* tracer = nullptr);
  // SubmitBatch(...).Wait(): the synchronous spelling of the one batch path.
  std::vector<MeasureResult> MeasureBatch(const std::vector<State>& states,
                                          const Tracer* tracer = nullptr);

  // Enqueues one measurement per state and returns immediately. Items run on
  // MeasureOptions::thread_pool when set (the measurer's device executor — a
  // dedicated target device must not have its occupancy diluted onto host
  // workers), else on `pool`, else the global pool. The submit/drain split
  // lets a deadline cancel the unstarted remainder, and lets other jobs
  // search on the host workers while this batch occupies the device. The
  // Measurer must outlive the returned handle's Wait().
  // With a tracer, the "measure_batch" span opens at submission and is
  // recorded by whichever worker completes the batch's last item.
  PendingMeasureBatch SubmitBatch(std::vector<State> states, ThreadPool* pool = nullptr,
                                  const Tracer* tracer = nullptr);

  // Total number of measurement trials performed (the budget unit of §7).
  // Cancelled batch items never started, so they are not counted.
  int64_t trial_count() const { return trials_.load(); }
  // Resets the budget counter AND the verify_every phase: back-to-back runs
  // sharing one Measurer each start their verification cadence at trial 0
  // (the phase used to drift across runs — see MeasurerVerifyCadence tests).
  void ResetTrialCount() {
    trials_.store(0);
    verify_counter_.store(0);
  }
  // Number of measurements that were verified against naive execution
  // (observability for the verify_every cadence).
  int64_t verification_count() const { return verifications_.load(); }

 private:
  friend class PendingMeasureBatch;  // batch items run through MeasureImpl

  MeasureResult MeasureImpl(const State& state, uint64_t noise_tag,
                            const Tracer* tracer = nullptr, int64_t submit_nanos = 0);

  MachineModel machine_;
  MeasureOptions options_;
  std::atomic<int64_t> trials_{0};
  std::atomic<int64_t> verify_counter_{0};
  std::atomic<int64_t> verifications_{0};
};

}  // namespace ansor

#endif  // ANSOR_SRC_HWSIM_MEASURER_H_
