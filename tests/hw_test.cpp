#include <gtest/gtest.h>

#include "hw/platforms.hpp"

namespace dnnperf::hw {
namespace {

// Table I of the paper: label, clock (GHz), total cores, threads/core.
struct TableIRow {
  const char* label;
  double clock;
  int cores;
  int threads_per_core;
};

// Print a row by its label: the default byte dump includes the label
// pointer, so the discovered test names changed with every load address.
void PrintTo(const TableIRow& row, std::ostream* os) { *os << row.label; }

class TableIParam : public ::testing::TestWithParam<TableIRow> {};

TEST_P(TableIParam, MatchesPaperTableI) {
  const auto& row = GetParam();
  const CpuModel cpu = cpu_by_label(row.label);
  EXPECT_DOUBLE_EQ(cpu.clock_ghz, row.clock);
  EXPECT_EQ(cpu.total_cores(), row.cores);
  EXPECT_EQ(cpu.threads_per_core, row.threads_per_core);
}

INSTANTIATE_TEST_SUITE_P(
    PaperPlatforms, TableIParam,
    ::testing::Values(
        // Table I lists per-node totals; EPYC rows follow the prose
        // (dual-socket 7551, SMT2) — see the note in hw/platforms.hpp.
        TableIRow{"Skylake-1", 2.6, 28, 1}, TableIRow{"Skylake-2", 2.4, 40, 1},
        TableIRow{"Skylake-3", 2.1, 48, 2}, TableIRow{"Broadwell", 2.4, 28, 1},
        TableIRow{"EPYC", 2.0, 64, 2}));

TEST(CpuModel, PeakFlopsMath) {
  const CpuModel skx = skylake3();
  // 48 cores x 2.1 GHz x 64 fp32/cycle = 6451.2 GFLOP/s.
  EXPECT_NEAR(skx.peak_gflops(), 6451.2, 0.1);
  EXPECT_EQ(skx.total_hw_threads(), 96);
  EXPECT_EQ(skx.numa_domains(), 2);
  EXPECT_EQ(skx.cores_per_numa_domain(), 24);
}

TEST(CpuModel, EpycNumaLayout) {
  const CpuModel amd = epyc();
  EXPECT_EQ(amd.numa_domains(), 8);  // 4 dies per socket x 2 sockets (Naples)
  EXPECT_EQ(amd.cores_per_numa_domain(), 8);
  EXPECT_EQ(amd.vendor, CpuVendor::Amd);
}

TEST(CpuModel, ValidationRejectsBadValues) {
  CpuModel cpu = skylake1();
  cpu.cores_per_socket = 0;
  EXPECT_THROW(cpu.validate(), std::invalid_argument);

  cpu = skylake1();
  cpu.numa_domains_per_socket = 3;  // 14 cores not divisible by 3
  EXPECT_THROW(cpu.validate(), std::invalid_argument);

  cpu = skylake1();
  cpu.smt_speedup_fraction = 0.5;  // SMT fraction without SMT
  EXPECT_THROW(cpu.validate(), std::invalid_argument);
}

TEST(GpuModel, OrderingOfGenerations) {
  EXPECT_LT(k80().peak_fp32_tflops, p100().peak_fp32_tflops);
  EXPECT_LT(p100().peak_fp32_tflops, v100().peak_fp32_tflops);
  // Effective (peak x achievable) ordering must hold too.
  EXPECT_LT(k80().peak_gflops() * k80().achievable_fraction,
            p100().peak_gflops() * p100().achievable_fraction);
  EXPECT_LT(p100().peak_gflops() * p100().achievable_fraction,
            v100().peak_gflops() * v100().achievable_fraction);
}

TEST(GpuModel, ValidationRejectsBadValues) {
  GpuModel gpu = v100();
  gpu.achievable_fraction = 1.5;
  EXPECT_THROW(gpu.validate(), std::invalid_argument);
  gpu = v100();
  gpu.peak_fp32_tflops = 0.0;
  EXPECT_THROW(gpu.validate(), std::invalid_argument);
}

TEST(Registry, LookupsWork) {
  EXPECT_EQ(cpu_by_label("Broadwell").name, "Xeon E5-2680 v4");
  EXPECT_EQ(gpu_by_name("V100").devices_per_node, 2);
  EXPECT_EQ(cluster_by_name("Stampede2").max_nodes, 128);
  EXPECT_THROW(cpu_by_label("Sapphire"), std::out_of_range);
  EXPECT_THROW(gpu_by_name("H100"), std::out_of_range);
  EXPECT_THROW(cluster_by_name("Frontera"), std::out_of_range);
}

TEST(Registry, ClustersValidateAndMatchPaper) {
  for (const auto& cluster : all_clusters()) EXPECT_NO_THROW(cluster.validate());
  EXPECT_EQ(stampede2().fabric, FabricKind::OmniPath);
  EXPECT_EQ(pitzer().fabric, FabricKind::InfiniBandEDR);
  EXPECT_EQ(amd_cluster().max_nodes, 8);
  EXPECT_TRUE(pitzer_v100().node.has_gpu());
  EXPECT_FALSE(stampede2().node.has_gpu());
}

TEST(Registry, AllCpusAreTableI) {
  EXPECT_EQ(all_cpus().size(), 5u);
  EXPECT_EQ(all_gpus().size(), 3u);
}

}  // namespace
}  // namespace dnnperf::hw
