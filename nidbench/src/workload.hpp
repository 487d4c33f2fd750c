// The benchmark's workloads and the pipelines it drives them through.
//
// A workload is one or more audit matrices (protocol, implementations,
// topologies × seeds, key scheme) plus a reference triage. Every call into
// nidkit goes through the public API: audit_* and triage_ospf for the
// end-to-end passes, and run_scenario, CausalMiner, compare_all and the
// renderers for the pipeline the benchmark composes itself, layer by layer,
// in the traced run and the checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/store.hpp"
#include "detect/detect.hpp"
#include "harness/experiment.hpp"
#include "harness/triage.hpp"
#include "mining/miner.hpp"

#include "reference.hpp"

namespace nidbench {

namespace nk = nidkit;

/// One audit matrix: every (implementation, topology, seed) scenario of a
/// protocol, mined under one key scheme.
struct Matrix {
  nk::harness::Protocol protocol = nk::harness::Protocol::kOspf;
  std::vector<nk::ospf::BehaviorProfile> ospf;  ///< protocol == kOspf
  std::vector<nk::rip::RipProfile> rip;         ///< protocol == kRip
  std::vector<nk::bgp::BgpProfile> bgp;         ///< protocol == kBgp
  nk::harness::ExperimentConfig config;
  nk::mining::KeyScheme scheme;

  std::vector<std::string> impl_names() const;
  /// The same matrix with every implementation replaced by the first one
  /// (the self-audit, which must flag nothing).
  Matrix self_audit() const;
};

/// One scenario of a matrix, in the audit's canonical order
/// (implementation, topology, seed).
struct Job {
  nk::harness::Scenario scenario;
  std::string label;
  std::size_t impl = 0;
};
std::vector<Job> jobs_of(const Matrix& m);

struct Workload {
  std::string name;
  std::size_t jobs = 1;
  std::vector<Matrix> audits;  ///< audited, in order, on every pass
  /// The uncached reference triage whose wall time is triage_ms.
  nk::harness::TriageConfig triage;
  std::vector<nk::ospf::BehaviorProfile> triage_impls;
  /// One triage after every this many audit passes, about a fifth of the
  /// run. A fixed count (not a time share) keeps the sequence of
  /// allocations, and so peak RSS, the same in every run.
  std::size_t triage_every = 1;
};

/// Names accepted by --workload, as BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();
/// Builds a workload; `workers` is min(4, nproc).
Workload make_workload(const std::string& name, std::uint64_t base_seed,
                       std::size_t workers);

/// Deterministic work counts of a pass. A change meant only to speed the
/// program up leaves every one of them identical.
struct WorkCounts {
  std::uint64_t scenarios = 0;
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t records = 0;
  std::uint64_t pairs = 0;
  std::uint64_t cells = 0;
  std::uint64_t discrepancies = 0;
  std::uint64_t triage_probes = 0;

  friend bool operator==(const WorkCounts&, const WorkCounts&) = default;
  std::string json() const;
};

/// The audit report as a user gets it: the send->recv matrix and the
/// discrepancy list as text, then the JSON document.
struct Rendered {
  std::string text;
  std::string json;
  double text_ns = 0;
  double json_ns = 0;
};
Rendered render(const std::vector<nk::detect::NamedRelations>& named,
                const std::vector<nk::detect::Discrepancy>& found);

/// audit_* for the matrix's protocol.
nk::harness::AuditResult run_audit(const Matrix& m, std::size_t jobs,
                                   const std::string& cache_dir = {});

/// Per-scenario figures of a composed run.
struct ScenarioFigures {
  nk::harness::Protocol protocol = nk::harness::Protocol::kOspf;
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t records = 0;
  std::uint64_t pairs = 0;
  std::uint64_t arena_bytes = 0;
  double sim_ns = 0;
  double pairs_ns = 0;
  double classify_ns = 0;
  bool reference_ok = true;  ///< reference miner agreed (when checked)
};

/// The audit rebuilt from layer calls: run_scenario, CausalMiner pairs and
/// classify per scenario on `jobs` workers, canonical-order merge,
/// compare_all and rendering. `entries` keeps each scenario's cache entry
/// (for the cache laps); `reference` also runs the reference miner.
struct Composed {
  std::vector<std::string> names;
  std::vector<nk::mining::RelationSet> merged;  ///< per implementation
  std::vector<nk::detect::Discrepancy> discrepancies;
  Rendered report;
  std::vector<ScenarioFigures> scenarios;
  std::vector<nk::cache::ScenarioKey> keys;  ///< when `entries`
  std::vector<nk::cache::Entry> entries;     ///< when `entries`
  std::vector<nk::cov::CoverageVector> coverage;
  nk::harness::ExecReport exec;
  double merge_ns = 0;
  double compare_ns = 0;
  WorkCounts counts;

  std::vector<nk::detect::NamedRelations> named() const;
};
Composed compose(const Matrix& m, std::size_t jobs, bool reference,
                 bool entries);

/// The audit rebuilt from a store: scenario_key per job, one get_batch,
/// canonical-order merge, compare_all and rendering. `hits` counts the
/// lookups that found an entry.
Composed compose_from_store(const Matrix& m, nk::cache::Store& store,
                            std::size_t& hits);

/// Flags of compare_all in the reference comparator's form, sorted.
std::vector<Flag> flags_of(const std::vector<nk::detect::Discrepancy>& found);

/// Bytes of every regular file under `dir`.
std::uint64_t dir_bytes(const std::string& dir);

double median(std::vector<double> v);

}  // namespace nidbench
