// Per-layer laps: small, fixed measurements of one nidkit layer each,
// driven through its public API on the workload's own inputs.
#pragma once

#include <string>
#include <vector>

#include "cache/store.hpp"
#include "workload.hpp"

namespace nidbench {

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;
  std::string table() const;

 private:
  struct Item {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Bare netsim laps: a timer chain through schedule/step, and an 8-node LAN
/// fan-out with and without a TraceLog attached.
struct NetsimLap {
  double loop_ns_per_event = 0;
  double lan_ns_per_frame = 0;
  double tap_ns_per_frame = 0;  ///< traced minus untraced, per frame
};
NetsimLap netsim_lap();

/// topo::build and Workspace::reset per scenario of the workload.
struct TopoLap {
  double build_us = 0;
  double reset_us = 0;
};
TopoLap topo_lap(const Workload& w);

/// compute_routes per router and memoized RouteCache probes on LSDBs built
/// through the public Lsdb API from the workload's topologies.
struct SpfLap {
  double spf_us = 0;
  double route_probe_ns = 0;
};
SpfLap spf_lap(const Workload& w);

/// Decoding every captured frame of sample scenarios (re-run with
/// keep_bytes) through the packet decoders, per protocol.
struct DecodeLap {
  double ospf_ns = 0;
  double bgp_ns = 0;
  double rip_ns = 0;
  std::uint64_t undecodable = 0;  ///< captured frames a decoder rejected
};
DecodeLap decode_lap(const std::vector<Matrix>& samples);

/// One matrix of `protocol` with its first implementation only, over the
/// paper topologies at one seed: the sample a layer lap uses for a
/// protocol the workload itself does not run.
Matrix protocol_sample(nk::harness::Protocol protocol, std::uint64_t seed);

/// Store layers on the workload's entries, in a fresh store under `dir`:
/// put, get from memory and from loose files, compact, get_batch from the
/// packs. The compacted store is left in `dir` for the caller's checks.
struct CacheLap {
  double key_us = 0;
  double put_us = 0;
  double get_memory_us = 0;
  double get_loose_us = 0;
  double compact_ms = 0;
  double get_batch_us_per_key = 0;
  std::uint64_t lookups = 0;  ///< every get and get_batch key
  std::uint64_t hits = 0;
  double hit_ratio = 0;
  double entry_bytes = 0;
  std::uint64_t loose_bytes = 0;  ///< store size after every put
};
CacheLap cache_lap(const std::vector<Job>& jobs, const Matrix& m,
                   const std::vector<nk::cache::ScenarioKey>& keys,
                   const std::vector<nk::cache::Entry>& entries,
                   const std::string& dir);

/// Machine fingerprint: logical CPUs, a single-thread calibration loop,
/// and the same loop run on every CPU at once (wall ÷ single wall; 1.0
/// means CPUs scale perfectly).
struct Fingerprint {
  unsigned nproc = 1;
  double calib_ms = 0;
  double parallel_slowdown = 0;
  std::string json() const;
};
Fingerprint fingerprint();

double peak_rss_mb();

}  // namespace nidbench
