// ClusterAdvisor: mechanizes the paper's Section IX tuning guidance. Given a
// platform, model, and framework, it searches the (ppn, intra-op, inter-op,
// batch) space and reports the best configuration, plus the paper's rule of
// thumb for comparison.
//
//   ./cluster_advisor --cluster Stampede2 --model resnet152 --framework tensorflow
#include <iostream>

#include "core/advisor.hpp"
#include "core/presets.hpp"
#include "hw/platforms.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dnnperf;
  util::CliParser cli("cluster_advisor", "search for the best training configuration");
  cli.add_string("cluster", "cluster name", "Stampede2");
  cli.add_string("model", "DNN to train", "resnet152");
  cli.add_string("framework", "tensorflow or pytorch", "tensorflow");
  cli.add_int("nodes", "number of nodes", 1);
  cli.add_flag("show-search", "print every evaluated configuration", false);

  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto cluster = hw::cluster_by_name(cli.get_string("cluster"));
    const auto model = dnn::model_by_name(cli.get_string("model"));
    const auto fw = cli.get_string("framework") == "pytorch" ? exec::Framework::PyTorch
                                                             : exec::Framework::TensorFlow;
    core::AdvisorOptions opts;
    opts.nodes = static_cast<int>(cli.get_int("nodes"));

    std::cout << "searching configurations for " << dnn::to_string(model) << " ("
              << exec::to_string(fw) << ") on " << cluster.name << " ...\n\n";
    const auto rec = core::advise(cluster, model, fw, opts);

    std::cout << "best configuration found:\n"
              << "  ppn        = " << rec.best.ppn << "\n"
              << "  intra-op   = " << rec.best.intra_threads << "\n"
              << "  inter-op   = " << rec.best.inter_threads << "\n"
              << "  batch/rank = " << rec.best.batch_per_rank << "\n"
              << "  throughput = " << rec.images_per_sec << " img/s\n\n";

    const int rule_ppn = fw == exec::Framework::PyTorch
                             ? core::pytorch_best_ppn(cluster.node.cpu)
                             : core::tf_best_ppn(cluster.node.cpu);
    std::cout << "paper rule of thumb (Section IX): ppn = " << rule_ppn
              << ", intra-op = cores/ppn - 1, inter-op = "
              << (cluster.node.cpu.threads_per_core > 1 ? 2 : 1) << "\n";

    if (cli.get_flag("show-search"))
      std::cout << "\nfull search:\n" << rec.search_table->to_text();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
