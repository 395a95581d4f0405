// Simulated hardware targets.
//
// The paper measures generated programs on an Intel Xeon Platinum 8269CY
// (20 cores), an NVIDIA V100 and a Raspberry Pi 3b+ (4-core Cortex-A53).
// We substitute analytical machine models (see DESIGN.md): the search only
// ever observes (program, throughput) pairs, and the model rewards the same
// optimizations real hardware does — cache-fitting tile sizes, unit-stride
// vectorization, balanced parallelism, unrolling.
#ifndef ANSOR_SRC_HWSIM_MACHINE_MODEL_H_
#define ANSOR_SRC_HWSIM_MACHINE_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ansor {

struct CacheLevel {
  int64_t size_bytes = 0;
  // Cycles to move one cache line from this level into the level above.
  double line_cost_cycles = 0.0;
};

enum class MachineKind { kCpu, kGpu };

struct MachineModel {
  std::string name;
  MachineKind kind = MachineKind::kCpu;

  int num_cores = 1;          // CPU cores, or GPU SMs
  int vector_lanes = 1;       // float32 SIMD lanes (CPU) or warp size (GPU)
  double clock_ghz = 1.0;
  // Peak scalar float operations per cycle per core (FMA counted as 2).
  double flops_per_cycle_per_core = 2.0;

  // Cache hierarchy, innermost (L1) first. The last entry is backed by DRAM.
  std::vector<CacheLevel> caches;
  double dram_line_cost_cycles = 0.0;
  int64_t cache_line_bytes = 64;

  // Overheads.
  double loop_overhead_cycles = 2.0;       // per dynamic loop iteration
  double parallel_task_overhead_cycles = 5e3;  // per parallel task launch
  double unroll_overhead_discount = 0.15;  // residual loop overhead when unrolled

  // GPU only: maximum resident threads per SM.
  int max_threads_per_core = 2048;

  // Static resource limits consumed by the program verifier
  // (src/analysis/program_verifier.h). Zero means "unlimited".
  int64_t memory_capacity_bytes = 0;  // total buffer footprint must fit
  // Longest loop extent that may carry a kVectorize annotation: a vector
  // loop must fit the register file (lanes x architectural vector registers)
  // to avoid spilling, so longer loops are statically illegal rather than
  // merely slow.
  int64_t max_vector_extent = 0;

  // The 20-core Intel Xeon Platinum 8269CY of the paper (AVX-512 disabled for
  // search frameworks in §7.1, hence 8 lanes).
  static MachineModel IntelCpu20Core();
  // The 4-core Cortex-A53 of the Raspberry Pi 3b+ (NEON: 4 lanes).
  static MachineModel ArmCpu4Core();
  // The NVIDIA V100.
  static MachineModel NvidiaGpu();

  double PeakGflops() const {
    return clock_ghz * flops_per_cycle_per_core * num_cores * vector_lanes;
  }
};

}  // namespace ansor

#endif  // ANSOR_SRC_HWSIM_MACHINE_MODEL_H_
