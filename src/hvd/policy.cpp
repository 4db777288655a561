#include "hvd/policy.hpp"

#include <stdexcept>

namespace dnnperf::hvd {

void FusionPolicy::validate() const {
  if (cycle_time_s <= 0.0) throw std::invalid_argument("FusionPolicy: cycle_time <= 0");
  if (fusion_threshold_bytes <= 0.0)
    throw std::invalid_argument("FusionPolicy: fusion_threshold <= 0");
}

CommStats& CommStats::operator+=(const CommStats& other) {
  framework_requests += other.framework_requests;
  engine_wakeups += other.engine_wakeups;
  data_allreduces += other.data_allreduces;
  bytes_reduced += other.bytes_reduced;
  return *this;
}

EngineCounters::EngineCounters()
    : requested_(util::metrics::counter(
          metric_names::kRequested,
          "Allreduce calls requested by the framework (one per gradient tensor)")),
      issued_(util::metrics::counter(
          metric_names::kIssued,
          "Data allreduces issued by the Horovod engine (one per fused buffer)")),
      cycles_(util::metrics::counter(
          metric_names::kCycles,
          "Engine cycle wake-ups (each issues one coordination allreduce)")),
      fusion_bytes_(util::metrics::counter(metric_names::kFusionBytes,
                                           "Bytes shipped through fusion buffers")),
      fusion_util_(util::metrics::gauge(
          metric_names::kFusionUtil,
          "Fill fraction of the most recent fusion buffer (bytes / threshold)")),
      cycle_time_(util::metrics::histogram(
          metric_names::kCycleTime, "Busy engine cycle duration, seconds")) {}

void EngineCounters::on_framework_request(std::uint64_t n) {
  stats_.framework_requests += n;
  requested_.inc(n);
}

void EngineCounters::on_engine_wakeup(std::uint64_t n) {
  stats_.engine_wakeups += n;
  cycles_.inc(n);
}

void EngineCounters::on_data_allreduce(double bytes, double fill_ratio) {
  ++stats_.data_allreduces;
  stats_.bytes_reduced += bytes;
  issued_.inc();
  fusion_bytes_.inc(static_cast<std::uint64_t>(bytes));
  fusion_util_.set(fill_ratio);
}

void EngineCounters::on_cycle_time(double seconds) { cycle_time_.observe(seconds); }

}  // namespace dnnperf::hvd
