#include "src/hwsim/machine_model.h"

namespace ansor {

MachineModel MachineModel::IntelCpu20Core() {
  MachineModel m;
  m.name = "intel-xeon-8269cy-20c";
  m.kind = MachineKind::kCpu;
  m.num_cores = 20;
  m.vector_lanes = 8;  // AVX2 (AVX-512 disabled per paper §7.1)
  m.clock_ghz = 3.1;
  m.flops_per_cycle_per_core = 4.0;  // 2 FMA ports
  m.caches = {
      {32 * 1024, 2.0},         // L1D
      {1024 * 1024, 8.0},       // L2
      {36 * 1024 * 1024, 24.0},  // shared L3 (per-core slice approximation)
  };
  m.dram_line_cost_cycles = 80.0;
  m.loop_overhead_cycles = 1.0;
  m.parallel_task_overhead_cycles = 4e3;
  m.memory_capacity_bytes = 64LL * 1024 * 1024 * 1024;  // 64 GiB server DRAM
  m.max_vector_extent = 256;  // 8 lanes x 16 ymm registers, x2 for unrolling
  return m;
}

MachineModel MachineModel::ArmCpu4Core() {
  MachineModel m;
  m.name = "arm-cortex-a53-4c";
  m.kind = MachineKind::kCpu;
  m.num_cores = 4;
  m.vector_lanes = 4;  // NEON 128-bit
  m.clock_ghz = 1.4;
  m.flops_per_cycle_per_core = 2.0;
  m.caches = {
      {32 * 1024, 3.0},    // L1D
      {512 * 1024, 14.0},  // L2
  };
  m.dram_line_cost_cycles = 160.0;
  m.loop_overhead_cycles = 1.5;
  m.parallel_task_overhead_cycles = 8e3;
  m.memory_capacity_bytes = 1LL * 1024 * 1024 * 1024;  // Pi 3b+: 1 GiB LPDDR2
  m.max_vector_extent = 128;  // 4 lanes x 32 NEON q-registers
  return m;
}

MachineModel MachineModel::NvidiaGpu() {
  MachineModel m;
  m.name = "nvidia-v100";
  m.kind = MachineKind::kGpu;
  m.num_cores = 80;       // SMs
  m.vector_lanes = 32;    // warp
  m.clock_ghz = 1.38;
  m.flops_per_cycle_per_core = 64.0;  // FP32 lanes per SM / warp width
  m.caches = {
      {128 * 1024, 2.0},        // unified L1/shared per SM
      {6 * 1024 * 1024, 10.0},  // L2
  };
  m.dram_line_cost_cycles = 40.0;  // HBM2: high bandwidth
  m.cache_line_bytes = 128;
  m.loop_overhead_cycles = 1.0;
  m.parallel_task_overhead_cycles = 2e4;  // kernel launch
  m.max_threads_per_core = 2048;
  m.memory_capacity_bytes = 16LL * 1024 * 1024 * 1024;  // 16 GiB HBM2
  m.max_vector_extent = 1024;  // warp x 32 per-thread registers-equivalents
  return m;
}

}  // namespace ansor
