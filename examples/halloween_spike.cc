// Halloween spike example (paper §2.1): "Facebook sees an increase in the
// number of photos posted the day after Halloween."
//
// Runs a write-heavy day with a 6x photo-upload spike, Director enabled:
// watch the fleet grow through the spike and shrink afterwards, and compare
// the bill against never scaling down.
//
//   $ ./examples/halloween_spike

#include <cstdio>

#include "core/scads.h"
#include "workload/driver.h"
#include "workload/traffic.h"

using namespace scads;  // NOLINT: example brevity

int main() {
  ScadsOptions options;
  options.initial_nodes = 4;
  options.partitions = 32;
  options.enable_director = true;
  options.consistency_spec = "performance: p99 read < 100ms, availability 99.9%\n";
  options.node_config.get_service_time = 1000;   // ~1k req/s per node
  options.node_config.put_service_time = 1200;
  options.director_config.control_interval = 30 * kSecond;
  options.director_config.min_nodes = 4;
  options.director_config.default_rate_per_node = 1000;
  options.director_config.scale_down_patience = 6;
  options.director_config.max_step_down = 6;
  auto db = std::move(Scads::Create(options)).value();
  if (Status started = db->Start(); !started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }

  // Nov 1st: diurnal base, plus a 6x upload surge from 10:00 to 20:00.
  TrafficPattern traffic = SpikeTraffic(DiurnalTraffic(4000, 2500), 10 * kHour, 10 * kHour,
                                        6.0, kHour);
  DriverConfig driver_config;
  driver_config.sample_rate = 25;
  driver_config.mean_service_per_request = 1000;
  driver_config.write_fraction = 0.4;  // photo posts are writes
  WorkloadDriver driver(db->loop(), db->cluster(), traffic, driver_config, 99);
  driver.AddOp(WorkloadOp{"view_photo", 0.6, [&](Rng* rng) {
                            std::string key = "photo/" + std::to_string(rng->Uniform(100000));
                            db->router()->Get(key, RequestOptions{}, [](Result<Record>) {});
                          }});
  driver.AddOp(WorkloadOp{"post_photo", 0.4, [&](Rng* rng) {
                            std::string key = "photo/" + std::to_string(rng->Uniform(100000));
                            db->router()->Put(key, "jpeg-bytes", AckMode::kPrimary, RequestOptions{},
                                              [](Status) {});
                          }});
  db->director()->set_offered_rate_probe(
      [&] { return traffic(db->loop()->Now()); });
  driver.Start();

  std::printf("hour  rate(req/s)  fleet  booting  p99(ms)  sla\n");
  for (int hour = 0; hour < 24; ++hour) {
    db->RunFor(kHour);
    const auto& history = db->director()->history();
    const DirectorSnapshot& snap = history.back();
    std::printf("%4d  %11.0f  %5d  %7d  %7.1f  %s\n", hour + 1, snap.observed_rate,
                snap.running, snap.booting,
                static_cast<double>(snap.latency_at_quantile) / kMillisecond,
                snap.sla_ok ? "ok" : "VIOLATION");
  }
  driver.Stop();

  Time now = db->loop()->Now();
  int64_t elastic_cost = db->cloud()->TotalCostMicros(now);
  // Counterfactual: hold the peak fleet all day.
  int peak = 0;
  for (const auto& snap : db->director()->history()) peak = std::max(peak, snap.running);
  int64_t static_cost = static_cast<int64_t>(peak) * 24 * SimCloud::kPricePerPeriodMicros;
  std::printf("\npeak fleet: %d nodes\n", peak);
  std::printf("elastic bill (scale up AND down): %s\n", FormatMoneyMicros(elastic_cost).c_str());
  std::printf("static bill (peak-provisioned):   %s\n", FormatMoneyMicros(static_cost).c_str());
  std::printf("saved: %s (%.0f%%)\n", FormatMoneyMicros(static_cost - elastic_cost).c_str(),
              100.0 * static_cast<double>(static_cost - elastic_cost) /
                  static_cast<double>(static_cost));
  return 0;
}
