#include "nvcim/cim/perf.hpp"

#include <algorithm>
#include <cmath>

namespace nvcim::cim {

CimPerfParams rram_perf_22nm() {
  CimPerfParams p;
  p.name = "RRAM";
  p.t_subarray_ns = 60.0;
  p.e_cell_read_fj = 2.0;
  p.e_adc_pj = 2.0;
  p.peripheral_overhead = 0.2;
  p.parallel_banks = 8;
  return p;
}

CimPerfParams fefet_perf_22nm() {
  CimPerfParams p;
  p.name = "FeFET";
  p.t_subarray_ns = 50.0;
  p.e_cell_read_fj = 1.5;
  p.e_adc_pj = 2.0;
  p.peripheral_overhead = 0.2;
  p.parallel_banks = 8;
  return p;
}

CpuPerfParams jetson_orin_cpu() { return {}; }

PerfEstimate cim_retrieval_cost(const CimPerfParams& p, const CrossbarConfig& cfg,
                                std::size_t n_keys, std::size_t key_len) {
  const std::size_t row_tiles = (key_len + cfg.rows - 1) / cfg.rows;
  const std::size_t col_tiles = (n_keys + cfg.cols - 1) / cfg.cols;
  const std::size_t activations = row_tiles * col_tiles * cfg.n_slices() * Crossbar::kPitch;

  PerfEstimate est;
  const double serial_rounds =
      std::ceil(static_cast<double>(activations) / static_cast<double>(p.parallel_banks));
  est.latency_ns = serial_rounds * p.t_subarray_ns;

  const double cells_per_activation = static_cast<double>(cfg.rows * cfg.cols);
  const double adc_per_activation = static_cast<double>(cfg.cols);
  const double e_array = static_cast<double>(activations) *
                         (cells_per_activation * p.e_cell_read_fj * 1e-3 +
                          adc_per_activation * p.e_adc_pj);
  est.energy_pj = e_array * (1.0 + p.peripheral_overhead);
  return est;
}

PerfEstimate cim_cost_from_counters(const CimPerfParams& p, const CrossbarConfig& cfg,
                                    const OpCounters& counters) {
  PerfEstimate est;
  const double serial_rounds = std::ceil(static_cast<double>(counters.subarray_activations) /
                                         static_cast<double>(p.parallel_banks));
  est.latency_ns = serial_rounds * p.t_subarray_ns;
  const double e_array =
      static_cast<double>(counters.subarray_activations) * static_cast<double>(cfg.rows) *
          static_cast<double>(cfg.cols) * p.e_cell_read_fj * 1e-3 +
      static_cast<double>(counters.adc_conversions) * p.e_adc_pj;
  est.energy_pj = e_array * (1.0 + p.peripheral_overhead);
  return est;
}

PerfEstimate cpu_retrieval_cost(const CpuPerfParams& p, std::size_t n_keys,
                                std::size_t key_len, std::size_t bytes_per_value) {
  const double macs = static_cast<double>(n_keys) * static_cast<double>(key_len);
  const double bytes = macs * static_cast<double>(bytes_per_value);

  const double t_compute_ns = macs / p.mac_rate_gmacs;          // GMAC/s ⇒ ns per MAC
  const double t_dram_ns = bytes / p.dram_bw_gbps;              // GB/s ⇒ ns per byte
  double latency_ns = std::max(t_compute_ns, t_dram_ns);

  double energy_pj = macs * p.e_mac_pj + bytes * p.e_byte_dram_pj;

  const double dram_budget_bytes = p.dram_capacity_gb * 1e9;
  if (bytes > dram_budget_bytes) {
    const double ssd_bytes = bytes - dram_budget_bytes;
    latency_ns += ssd_bytes / p.ssd_bw_gbps;
    energy_pj += ssd_bytes * p.e_byte_ssd_pj;
  }

  PerfEstimate est;
  est.latency_ns = latency_ns;
  est.energy_pj = energy_pj;
  return est;
}

double ssd_transfer_seconds(double bytes, const CpuPerfParams& p) {
  return bytes / (p.ssd_bw_gbps * 1e9);
}

}  // namespace nvcim::cim
