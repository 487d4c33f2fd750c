#include "workload.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "cache/key.hpp"
#include "cov/cov.hpp"
#include "detect/json.hpp"
#include "detect/report.hpp"
#include "harness/cached_fanout.hpp"
#include "harness/parallel.hpp"
#include "spans.hpp"

namespace nidbench {

using nk::harness::Protocol;
using namespace std::chrono_literals;

std::vector<std::string> Matrix::impl_names() const {
  std::vector<std::string> out;
  for (const auto& p : ospf) out.push_back(p.name);
  for (const auto& p : rip) out.push_back(p.name);
  for (const auto& p : bgp) out.push_back(p.name);
  return out;
}

Matrix Matrix::self_audit() const {
  Matrix m = *this;
  if (!m.ospf.empty()) m.ospf = {ospf.front(), ospf.front()};
  if (!m.rip.empty()) m.rip = {rip.front(), rip.front()};
  if (!m.bgp.empty()) m.bgp = {bgp.front(), bgp.front()};
  return m;
}

std::vector<Job> jobs_of(const Matrix& m) {
  const auto names = m.impl_names();
  std::vector<Job> out;
  for (std::size_t p = 0; p < names.size(); ++p)
    for (const auto& spec : m.config.topologies)
      for (const auto seed : m.config.seeds) {
        Job job;
        job.scenario = m.config.scenario_for(spec, seed);
        job.scenario.protocol = m.protocol;
        if (m.protocol == Protocol::kOspf) job.scenario.ospf_profile = m.ospf[p];
        if (m.protocol == Protocol::kRip) job.scenario.rip_profile = m.rip[p];
        if (m.protocol == Protocol::kBgp) job.scenario.bgp_profile = m.bgp[p];
        job.label = names[p] + "/" + spec.name() + "/s" + std::to_string(seed);
        job.impl = p;
        out.push_back(std::move(job));
      }
  return out;
}

namespace {

std::vector<std::uint64_t> seed_range(std::uint64_t base, std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(base + i);
  return out;
}

Matrix ospf_matrix(std::vector<nk::topo::Spec> topologies,
                   std::vector<std::uint64_t> seeds,
                   nk::mining::KeyScheme scheme) {
  Matrix m;
  m.protocol = Protocol::kOspf;
  m.ospf = {nk::ospf::frr_profile(), nk::ospf::bird_profile()};
  m.config.topologies = std::move(topologies);
  m.config.seeds = std::move(seeds);
  m.scheme = std::move(scheme);
  return m;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-audit", "scale-audit", "bgp-rip-audit"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t base_seed,
                       std::size_t workers) {
  Workload w;
  w.name = name;
  const auto paper = nk::topo::paper_topologies();
  const auto extended = nk::topo::extended_topologies();

  // The triage: frr vs bird over the paper matrix at the default seeds
  // 1-3, under the gtsn scheme (the granularity triage maps onto injection
  // stimuli). Its seeds do not follow --seed: triage cost depends on how
  // many cells the audit flags, and over base seeds 1-5 it ranged from 52
  // to 140 ms, so a seeded triage would measure the seed, not the program.
  w.triage_impls = {nk::ospf::frr_profile(), nk::ospf::bird_profile()};
  w.triage.experiment.topologies = paper;
  w.triage.experiment.seeds = {1, 2, 3};
  w.triage.experiment.jobs = 1;
  w.triage.scheme = nk::mining::ospf_greater_lssn_scheme();

  // Pass and triage times on a 4-vCPU container: paper-audit ~12 ms,
  // scale-audit ~45 ms, bgp-rip-audit ~45 ms; triage ~80 ms.
  if (name == "paper-audit") {
    w.triage_every = 25;
    w.audits.push_back(ospf_matrix(paper, seed_range(base_seed, 3),
                                   nk::mining::ospf_type_scheme()));
  } else if (name == "scale-audit") {
    w.triage_every = 5;
    w.jobs = workers;
    w.audits.push_back(ospf_matrix(extended, seed_range(base_seed, 20),
                                   nk::mining::ospf_type_scheme()));
  } else if (name == "bgp-rip-audit") {
    w.triage_every = 5;
    // Durations as `nidt audit --protocol bgp|rip` sets them. The BGP
    // matrix leaves out mesh-5: its 120-hop AS_PATH churn made each
    // scenario 100-200 ms and each pass ~550 ms, and the fastest of such
    // long passes moved 554-890 ms between runs minutes apart (the
    // register-only calibration loop held at 19-20 ms). Over the other
    // extended topologies its seeds stay 1-3: over base seeds 1-8 the
    // audit read 40.7-46.7 ms and mined 44k-58k pairs, a swing that would
    // measure the seed, not the program. RIP follows --seed.
    Matrix bgp;
    bgp.protocol = Protocol::kBgp;
    bgp.bgp = {nk::bgp::bgp_robust_profile(), nk::bgp::bgp_fragile_profile()};
    bgp.config.topologies.clear();
    for (const auto& spec : extended)
      if (spec.name() != "mesh-5") bgp.config.topologies.push_back(spec);
    bgp.config.seeds = {1, 2, 3};
    bgp.config.duration = 300s;
    bgp.scheme = nk::mining::bgp_message_scheme();
    w.audits.push_back(bgp);
    Matrix rip;
    rip.protocol = Protocol::kRip;
    rip.rip = {nk::rip::rip_classic_profile(), nk::rip::rip_eager_profile()};
    rip.config.topologies = paper;
    rip.config.seeds = seed_range(base_seed, 3);
    rip.config.duration = 240s;
    rip.scheme = nk::mining::rip_refined_scheme();
    w.audits.push_back(rip);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  for (auto& m : w.audits) m.config.jobs = w.jobs;
  return w;
}

std::string WorkCounts::json() const {
  return "{\"scenarios\":" + std::to_string(scenarios) +
         ",\"events\":" + std::to_string(events) +
         ",\"frames\":" + std::to_string(frames) +
         ",\"records\":" + std::to_string(records) +
         ",\"pairs\":" + std::to_string(pairs) +
         ",\"cells\":" + std::to_string(cells) +
         ",\"discrepancies\":" + std::to_string(discrepancies) +
         ",\"triage_probes\":" + std::to_string(triage_probes) + "}";
}

Rendered render(const std::vector<nk::detect::NamedRelations>& named,
                const std::vector<nk::detect::Discrepancy>& found) {
  Rendered out;
  {
    Span span("detect.render_text");
    std::set<std::string> stims, resps;
    for (const auto& n : named) {
      for (const auto& s : n.relations->stimulus_labels()) stims.insert(s);
      for (const auto& r : n.relations->response_labels()) resps.insert(r);
    }
    out.text = nk::detect::render_matrix(
                   named, std::vector<std::string>(stims.begin(), stims.end()),
                   std::vector<std::string>(resps.begin(), resps.end()),
                   nk::mining::RelationDirection::kSendToRecv) +
               "\n" + nk::detect::render_discrepancies(found);
    out.text_ns = static_cast<double>(span.finish());
  }
  {
    Span span("detect.render_json");
    out.json = nk::detect::to_json(named, found) + "\n";
    out.json_ns = static_cast<double>(span.finish());
  }
  return out;
}

nk::harness::AuditResult run_audit(const Matrix& m, std::size_t jobs,
                                   const std::string& cache_dir) {
  nk::harness::ExperimentConfig config = m.config;
  config.jobs = jobs;
  config.cache_dir = cache_dir;
  switch (m.protocol) {
    case Protocol::kOspf:
      return nk::harness::audit_ospf(m.ospf, config, m.scheme);
    case Protocol::kRip:
      return nk::harness::audit_rip(m.rip, config, m.scheme);
    case Protocol::kBgp:
      return nk::harness::audit_bgp(m.bgp, config, m.scheme);
  }
  throw std::logic_error("unknown protocol");
}

std::vector<nk::detect::NamedRelations> Composed::named() const {
  std::vector<nk::detect::NamedRelations> out;
  for (std::size_t i = 0; i < names.size(); ++i)
    out.push_back(nk::detect::NamedRelations{names[i], &merged[i]});
  return out;
}

namespace {

/// Canonical-order merge per implementation, compare_all, coverage fold
/// and rendering — the tail every composed audit shares.
void finish_composed(Composed& c, std::vector<nk::mining::RelationSet>& sets,
                     const std::vector<Job>& jobs) {
  {
    Span span("harness.merge");
    c.merged.assign(c.names.size(), {});
    for (std::size_t i = 0; i < sets.size(); ++i)
      c.merged[jobs[i].impl].merge(sets[i]);
    c.merge_ns = static_cast<double>(span.finish());
  }
  {
    Span span("detect.compare_all");
    c.discrepancies = nk::detect::compare_all(c.named());
    c.compare_ns = static_cast<double>(span.finish());
  }
  c.report = render(c.named(), c.discrepancies);
  c.counts.scenarios = jobs.size();
  c.counts.discrepancies = c.discrepancies.size();
  for (const auto& s : sets) c.counts.cells += s.size();
}

}  // namespace

Composed compose(const Matrix& m, std::size_t jobs, bool reference,
                 bool entries) {
  Composed c;
  c.names = m.impl_names();
  const auto job_list = jobs_of(m);
  const nk::mining::MinerConfig miner_config = m.config.miner_config();
  const nk::mining::CausalMiner miner(miner_config);

  struct Out {
    nk::mining::RelationSet set;
    ScenarioFigures fig;
    nk::cov::CoverageVector coverage;
    nk::cache::ScenarioKey key;
    nk::cache::Entry entry;
  };
  std::vector<std::string> labels;
  for (const auto& j : job_list) labels.push_back(j.label);

  nk::harness::ParallelExecutor executor(jobs);
  std::vector<Out> outs;
  {
    Span fanout("harness.fanout");
    const std::int64_t parent = fanout.id();
    outs = executor.run_indexed(job_list.size(), labels, [&](std::size_t i) {
      const Job& job = job_list[i];
      Span task("harness.scenario", parent);
      Out o;
      o.fig.protocol = job.scenario.protocol;
      Span sim("harness.run_scenario");
      const nk::harness::ScenarioResult run =
          nk::harness::run_scenario(job.scenario);
      o.fig.sim_ns = static_cast<double>(sim.finish());
      Span pairs_span("mining.mine_pairs");
      const nk::mining::MinedPairs pairs = miner.mine_pairs(run.log);
      o.fig.pairs_ns = static_cast<double>(pairs_span.finish());
      Span classify("mining.classify");
      o.set = miner.classify(run.log, pairs, m.scheme);
      o.fig.classify_ns = static_cast<double>(classify.finish());
      if (reference) {
        Span check("check.reference_miner");
        o.fig.reference_ok = sorted_pairs(pairs) ==
                             reference_pairs(run.log, miner_config);
      }
      o.fig.events = run.metrics.get("sim.events_executed");
      o.fig.frames = run.metrics.get("sim.frames_delivered");
      o.fig.records = run.log.size();
      o.fig.pairs = pairs.send_to_recv.size() + pairs.recv_to_send.size();
      o.fig.arena_bytes = run.log.arena_bytes();
      o.coverage = run.coverage;
      if (entries) {
        o.key = nk::cache::scenario_key(job.scenario, miner_config,
                                        m.scheme.name,
                                        nk::cache::PayloadKind::kMinedRelations);
        o.entry.kind = nk::cache::PayloadKind::kMinedRelations;
        o.entry.summary = nk::harness::summarize(run);
        o.entry.relations = o.set;
        o.entry.metrics = run.metrics;
        o.entry.coverage = run.coverage;
      }
      return o;
    });
  }
  c.exec = executor.report();

  std::vector<nk::mining::RelationSet> sets;
  for (auto& o : outs) {
    c.counts.events += o.fig.events;
    c.counts.frames += o.fig.frames;
    c.counts.records += o.fig.records;
    c.counts.pairs += o.fig.pairs;
    c.scenarios.push_back(o.fig);
    c.coverage.push_back(std::move(o.coverage));
    sets.push_back(std::move(o.set));
    if (entries) {
      c.keys.push_back(o.key);
      c.entries.push_back(std::move(o.entry));
    }
  }
  finish_composed(c, sets, job_list);
  return c;
}

Composed compose_from_store(const Matrix& m, nk::cache::Store& store,
                            std::size_t& hits) {
  Composed c;
  c.names = m.impl_names();
  const auto job_list = jobs_of(m);
  const nk::mining::MinerConfig miner_config = m.config.miner_config();
  {
    Span span("cache.scenario_key");
    for (const auto& j : job_list)
      c.keys.push_back(nk::cache::scenario_key(
          j.scenario, miner_config, m.scheme.name,
          nk::cache::PayloadKind::kMinedRelations));
  }
  nk::cache::Store::BatchResult batch;
  {
    Span span("cache.get_batch");
    batch = store.get_batch(c.keys);
  }
  hits = 0;
  std::vector<nk::mining::RelationSet> sets;
  for (auto& e : batch.entries) {
    if (e) {
      ++hits;
      c.counts.events += e->metrics.get("sim.events_executed");
      c.counts.frames += e->metrics.get("sim.frames_delivered");
      c.coverage.push_back(e->coverage);
      sets.push_back(std::move(e->relations));
    } else {
      sets.emplace_back();
      c.coverage.emplace_back();
    }
  }
  finish_composed(c, sets, job_list);
  return c;
}

std::vector<Flag> flags_of(const std::vector<nk::detect::Discrepancy>& found) {
  std::vector<Flag> out;
  for (const auto& d : found)
    out.emplace_back(static_cast<int>(d.direction), d.cell.stimulus,
                     d.cell.response, d.present_in, d.absent_in);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t dir_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec))
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  return total;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace nidbench
