// sim_scale: rank-scale smoke for the pooled discrete-event timeline — the
// ISSUE-7 acceptance harness. Simulates one training config with every rank
// explicit (per-rank factors, slab event pool) and reports how long the DES
// itself took on the wall clock, in contrast to every other bench which
// reports the *virtual* time the simulation predicts.
//
//   ./sim_scale --ranks=4096                        # 4k-rank ResNet-50 step
//   ./sim_scale --ranks=16384 --check --budget-s=1  # CI smoke: wall budget
//   ./sim_scale --ranks=4096 --hierarchy=two --metrics-out=sim.json
//   ./sim_scale --sweep=2,4,8,16,32,64,128          # scaling-efficiency curve
//
// Publishes the scale gauges (sim_ranks, sim_events_pooled_total,
// sim_step_wall_seconds) that dnnperf_metrics merge folds into
// BENCH_metrics.json; --check exits 1 when the wall clock misses --budget-s.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/advisor_service.hpp"
#include "dnn/models.hpp"
#include "hw/platforms.hpp"
#include "train/trainer.hpp"
#include "util/cli.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"

namespace {

using namespace dnnperf;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

train::CommHierarchy parse_hierarchy(const std::string& name) {
  if (name == "flat") return train::CommHierarchy::Flat;
  if (name == "two") return train::CommHierarchy::TwoLevel;
  if (name == "three") return train::CommHierarchy::ThreeLevel;
  throw std::invalid_argument("--hierarchy must be flat|two|three, got '" + name + "'");
}

std::vector<int> parse_int_list(const std::string& text) {
  std::vector<int> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::stoi(item));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("sim_scale",
                      "rank-scale smoke for the pooled event timeline: simulate every rank "
                      "explicitly and gate the DES wall clock");
  cli.add_int("ranks", "total ranks to simulate explicitly", 4096);
  cli.add_int("ppn", "ranks per node", 16);
  cli.add_int("iterations", "training iterations per measurement", 3);
  cli.add_string("model", "DNN model to train", "resnet50");
  cli.add_string("cluster", "platform (max_nodes is raised to fit --ranks)", "Stampede2");
  cli.add_string("hierarchy", "collective hierarchy: flat|two|three", "flat");
  cli.add_string("sweep", "comma-separated node counts: print the scaling curve instead", "");
  cli.add_double("budget-s", "with --check: max DES wall seconds for the scale point", 10.0);
  cli.add_flag("check", "exit 1 if the wall clock exceeds --budget-s", false);
  cli.add_string("metrics-out", "write a metrics snapshot JSON here", "");

  try {
    if (!cli.parse(argc, argv)) return 0;
    util::metrics::set_enabled(true);

    const int ppn = static_cast<int>(cli.get_int("ppn"));
    if (ppn <= 0) throw std::invalid_argument("--ppn must be positive");
    hw::ClusterModel cluster = hw::cluster_by_name(cli.get_string("cluster"));
    const dnn::ModelId model = dnn::model_by_name(cli.get_string("model"));
    const auto hierarchy = parse_hierarchy(cli.get_string("hierarchy"));

    if (const std::string& sweep = cli.get_string("sweep"); !sweep.empty()) {
      core::ScalingRequest req;
      req.node_counts = parse_int_list(sweep);
      for (const int n : req.node_counts) cluster.max_nodes = std::max(cluster.max_nodes, n);
      req.cluster = cluster;
      req.model = model;
      req.ppn = ppn;
      req.hierarchy = hierarchy;
      core::AdvisorService service;
      util::TextTable table({"nodes", "ranks", "img/s", "step s", "speedup", "efficiency"});
      for (const auto& p : service.scaling_curve(req))
        table.add_row({std::to_string(p.nodes), std::to_string(p.ranks),
                       util::TextTable::num(p.images_per_sec, 1),
                       util::TextTable::num(p.per_iteration_s, 4),
                       util::TextTable::num(p.speedup, 2),
                       util::TextTable::num(p.efficiency, 3)});
      std::cout << table.to_text();
      return 0;
    }

    const int ranks = static_cast<int>(cli.get_int("ranks"));
    if (ranks <= 0 || ranks % ppn != 0)
      throw std::invalid_argument("--ranks must be a positive multiple of --ppn");
    const int nodes = ranks / ppn;
    cluster.max_nodes = std::max(cluster.max_nodes, nodes);

    train::TrainConfig cfg;
    cfg.cluster = cluster;
    cfg.model = model;
    cfg.nodes = nodes;
    cfg.ppn = ppn;
    cfg.iterations = static_cast<int>(cli.get_int("iterations"));
    cfg.use_horovod = ranks > 1;
    cfg.per_rank_sim = true;
    cfg.hierarchy = hierarchy;

    const double t0 = now_s();
    const train::TrainResult result = train::run_training(cfg);
    const double wall_s = now_s() - t0;
    const double events_per_sec =
        wall_s > 0.0 ? static_cast<double>(result.sim_events) / wall_s : 0.0;

    const auto ranks_gauge = util::metrics::gauge(
        "sim_ranks", "Ranks simulated explicitly in the most recent scale run");
    const auto events_gauge = util::metrics::gauge(
        "sim_events_pooled_total", "DES events processed through the slab pool in that run");
    const auto wall_gauge = util::metrics::gauge(
        "sim_step_wall_seconds", "Wall-clock seconds the pooled DES took for that run");
    ranks_gauge.set(static_cast<double>(result.sim_ranks));
    events_gauge.set(static_cast<double>(result.sim_events));
    wall_gauge.set(wall_s);

    util::TextTable table({"metric", "value"});
    table.add_row({"ranks", std::to_string(result.sim_ranks)});
    table.add_row({"nodes x ppn", std::to_string(nodes) + " x " + std::to_string(ppn)});
    table.add_row({"events processed", std::to_string(result.sim_events)});
    table.add_row({"pool slots (high water)", std::to_string(result.sim_pool_slots)});
    table.add_row({"virtual step time", util::TextTable::num(result.per_iteration_s, 4) + " s"});
    table.add_row({"modeled img/s", util::TextTable::num(result.images_per_sec, 1)});
    table.add_row({"DES wall clock", util::TextTable::num(wall_s, 3) + " s"});
    table.add_row({"DES events/sec", util::TextTable::num(events_per_sec, 0)});
    std::cout << table.to_text();

    if (const std::string& out = cli.get_string("metrics-out"); !out.empty()) {
      util::metrics::Snapshot snap = util::metrics::snapshot();
      snap.label = "sim_scale ranks=" + std::to_string(ranks) +
                   " hierarchy=" + cli.get_string("hierarchy");
      util::metrics::write_json_file(snap, out);
      std::cout << "wrote " << out << "\n";
    }

    if (cli.get_flag("check")) {
      const double budget = cli.get_double("budget-s");
      if (wall_s > budget) {
        std::cerr << "CHECK FAILED: " << ranks << "-rank step took "
                  << util::TextTable::num(wall_s, 3) << " s wall, budget " << budget << " s\n";
        return 1;
      }
      if (result.sim_events == 0 || result.sim_pool_slots == 0) {
        std::cerr << "CHECK FAILED: pooled engine reported no events\n";
        return 1;
      }
      std::cout << "check ok: " << util::TextTable::num(wall_s, 3) << " s wall within "
                << budget << " s budget\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sim_scale: " << e.what() << "\n";
    return 2;
  }
}
