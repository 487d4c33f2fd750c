// nidbench: one benchmark for nidkit's audit pipeline.
//
//   nidbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with no tracing: the workload's
// passes (audit_* plus rendering, with an uncached triage_ospf after a fixed
// number of them) run back to back for --seconds and each timing is the
// run's fastest. --trace 1 runs the same workload through the pipeline the
// benchmark composes from layer calls, with a span around every call, then
// the per-layer laps; it writes the spans as Chrome trace-event JSON and
// prints a self-time table. Both modes check the program's outputs against
// independent computations and properties the method must have, print the
// machine fingerprint and the deterministic work counts, and end with one
// JSON line: {"correct","attempted","failed","metrics"}.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "cache/pack.hpp"
#include "cov/cov.hpp"
#include "harness/injection.hpp"
#include "harness/triage.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace fs = std::filesystem;
using namespace nidbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = value == "1";
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || o.seconds <= 0) return std::nullopt;
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end())
    return std::nullopt;
  return o;
}

double ns_since(Clock::time_point t) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t)
          .count());
}

/// Operations attempted and failed. Every pass, every triage and every
/// check is one operation, counted once; a failed one makes the run
/// incorrect.
struct Ledger {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

/// One audit pass: audit_* and rendering for every matrix.
struct Pass {
  double audit_ns = 0;
  std::string report;  ///< every audit's text and JSON report
  std::uint64_t scenarios = 0;
  double task_ms = 0;  ///< summed wall of the scenarios simulated
  std::uint64_t discrepancies = 0;
};

/// One uncached triage_ospf.
struct Triage {
  double ns = 0;
  nk::harness::TriageResult result;
  std::string report;
};

Pass run_pass(const Workload& w) {
  Pass p;
  for (const auto& m : w.audits) {
    const auto t = Clock::now();
    const auto audit = run_audit(m, w.jobs);
    const auto rendered = render(audit.named(), audit.discrepancies);
    p.audit_ns += ns_since(t);
    p.report += rendered.text + rendered.json;
    p.discrepancies += audit.discrepancies.size();
    p.scenarios += audit.exec.tasks_run;
    for (const auto& task : audit.exec.tasks) p.task_ms += task.wall_ms;
  }
  return p;
}

Triage run_triage(const Workload& w) {
  Triage out;
  const auto t = Clock::now();
  out.result = nk::harness::triage_ospf(w.triage_impls, w.triage);
  out.ns = ns_since(t);
  out.report = nk::harness::triage_report_json(out.result);
  return out;
}

/// Builds the inputs and runs one untimed warm-up pass and triage.
Workload set_up(const Options& o, std::size_t workers) {
  Workload w = make_workload(o.workload, o.seed, workers);
  run_pass(w);
  run_triage(w);
  return w;
}

/// Everything the checks learn that the metrics also use.
struct Checked {
  WorkCounts counts;
  std::vector<Composed> composed;  ///< per matrix, at the workload's jobs
  std::vector<CacheLap> caches;    ///< per matrix
};

/// The cache checks of one matrix, whose composed audit is `c`. audit_*
/// into an empty store (cold) and again from that store once compacted
/// (warm, every scenario a pack hit) gives the uncached report; the cache
/// lap's every lookup hits; and the report composed from the lap's
/// compacted store through get_batch equals the composed report.
CacheLap check_cache(const Matrix& m, std::size_t jobs, const Composed& c,
                     const std::string& work, Ledger& ledger) {
  const std::string name = m.impl_names()[0];
  const std::string report = c.report.text + c.report.json;
  const std::string store = work + "/audit-store";
  fs::remove_all(store);
  const auto cold = run_audit(m, jobs, store);
  const auto cold_report = render(cold.named(), cold.discrepancies);
  ledger.check(cold_report.text + cold_report.json == report &&
                   cold.exec.cache_misses == c.counts.scenarios,
               name + ": cold-cache report differs from the uncached one");
  if (!nk::cache::compact(store)) throw std::runtime_error("compact failed");
  const auto warm = run_audit(m, jobs, store);
  const auto warm_report = render(warm.named(), warm.discrepancies);
  ledger.check(warm_report.text + warm_report.json == report,
               name + ": warm-cache report differs from the uncached one");
  ledger.check(warm.exec.cache_pack_hits == c.counts.scenarios &&
                   warm.exec.cache_misses == 0,
               name + ": a warm audit lookup missed the packed store");
  fs::remove_all(store);

  const std::string lap_dir = work + "/lap";
  CacheLap lap = cache_lap(jobs_of(m), m, c.keys, c.entries, lap_dir);
  ledger.check(lap.hits == lap.lookups,
               name + ": a cache lap lookup missed the store");
  {
    nk::cache::Store opened(lap_dir);
    std::size_t hits = 0;
    const Composed from_store = compose_from_store(m, opened, hits);
    ledger.check(hits == c.counts.scenarios &&
                     from_store.report.text + from_store.report.json == report,
                 name + ": the report composed from get_batch differs");
    ledger.check(from_store.counts.events == c.counts.events &&
                     from_store.counts.frames == c.counts.frames,
                 name + ": cached metrics differ from the simulated ones");
  }
  fs::remove_all(lap_dir);
  return lap;
}

/// Independent checks of the program's outputs (untimed).
Checked run_checks(const Workload& w, const Pass& first, bool reference,
                   std::size_t workers, const std::string& work,
                   const nk::harness::TriageResult& triage, Ledger& ledger) {
  Checked out;
  const std::size_t other_jobs = w.jobs > 1 ? 1 : workers;
  std::string composed_report;
  for (const auto& m : w.audits) {
    Composed c = compose(m, w.jobs, reference, true);
    const Composed other = compose(m, other_jobs, false, false);
    ledger.check(c.report.text == other.report.text &&
                     c.report.json == other.report.json,
                 m.impl_names()[0] + ": report differs between jobs=" +
                     std::to_string(w.jobs) + " and jobs=" +
                     std::to_string(other_jobs));
    ledger.check(c.counts == other.counts,
                 "work counts differ between job counts");
    std::vector<std::pair<std::string, const nk::mining::RelationSet*>> sets;
    for (std::size_t i = 0; i < c.names.size(); ++i)
      sets.emplace_back(c.names[i], &c.merged[i]);
    ledger.check(reference_flags(sets) == flags_of(c.discrepancies),
                 "compare_all disagrees with the set-difference comparator");
    if (reference) {
      bool all = true;
      for (const auto& f : c.scenarios) all = all && f.reference_ok;
      ledger.check(all, "mine_pairs disagrees with the reference miner");
    }
    const auto self = run_audit(m.self_audit(), w.jobs);
    ledger.check(self.discrepancies.empty(),
                 "self-audit of " + m.impl_names()[0] + " flagged " +
                     std::to_string(self.discrepancies.size()) + " cells");
    composed_report += c.report.text + c.report.json;
    out.caches.push_back(check_cache(m, w.jobs, c, work, ledger));
    WorkCounts& wc = out.counts;
    wc.scenarios += c.counts.scenarios;
    wc.events += c.counts.events;
    wc.frames += c.counts.frames;
    wc.records += c.counts.records;
    wc.pairs += c.counts.pairs;
    wc.cells += c.counts.cells;
    wc.discrepancies += c.counts.discrepancies;
    out.composed.push_back(std::move(c));
  }
  ledger.check(composed_report == first.report,
               "the composed report differs from audit_*'s report");

  // Triage: each confirmed incident still reproduces when its minimized
  // scenario is re-run through run_scenario and the miner, and no
  // minimized scenario has more routers than its original.
  out.counts.triage_probes = triage.total_probes;
  for (const auto& inc : triage.incidents) {
    if (!inc.reproduced) continue;
    ledger.check(inc.minimal.topology.routers <= inc.original.topology.routers,
                 "a minimized scenario grew");
    if (inc.confirmation != nk::harness::Confirmation::kConfirmed) continue;
    auto rerun = [&](const std::string& impl) {
      nk::harness::Scenario sc = inc.minimal;
      sc.protocol = nk::harness::Protocol::kOspf;
      for (const auto& p : w.triage_impls)
        if (p.name == impl) sc.ospf_profile = p;
      nk::mining::MinerConfig mc = w.triage.experiment.miner_config();
      mc.tdelay = sc.tdelay;
      const auto run = nk::harness::run_scenario(sc);
      return nk::mining::CausalMiner(mc).mine(run.log, w.triage.scheme);
    };
    const auto& d = inc.discrepancy;
    ledger.check(
        rerun(d.present_in).has(d.direction, d.cell.stimulus,
                                d.cell.response) &&
            !rerun(d.absent_in).has(d.direction, d.cell.stimulus,
                                    d.cell.response),
        "a confirmed incident no longer reproduces");
  }
  return out;
}

std::string self_time_table(const SpanRecorder& rec) {
  const auto layers = rec.layer_times();
  double total_self = 0;
  for (const auto& l : layers) total_self += l.self_ns;
  std::string out = "per-layer self time over the traced passes:\n";
  char buf[200];
  std::snprintf(buf, sizeof buf, "  %-28s %8s %12s %12s %7s\n", "span",
                "count", "total_ms", "self_ms", "self%");
  out += buf;
  for (const auto& l : layers) {
    std::snprintf(buf, sizeof buf, "  %-28s %8llu %12.3f %12.3f %6.1f%%\n",
                  l.name.c_str(), static_cast<unsigned long long>(l.count),
                  l.total_ns / 1e6, l.self_ns / 1e6,
                  total_self > 0 ? 100.0 * l.self_ns / total_self : 0.0);
    out += buf;
  }
  return out;
}

/// Set-ups per end-to-end run; setup_s is their median.
constexpr std::size_t kSetups = 9;

int run(const Options& o) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::min<std::size_t>(4, nproc);
  const std::string work =
      ".nidbench_work/" + std::to_string(static_cast<long long>(::getpid()));
  fs::create_directories(work);
  Ledger ledger;
  Metrics metrics;

  // ---- set-up; setup_s is the median of kSetups ----
  // The first set-up gives the workload the passes use. The others run
  // between the timed passes, evenly over the run once peak RSS has been
  // read, so that their median does not follow a load burst on the machine
  // that spans a few seconds: five set-ups back to back at the start spread
  // 76% (quartile spread over median) over five scale-audit runs, spread
  // out 10%. The first also pays the first touch of workspaces and arenas.
  std::vector<double> setup_s;
  auto timed_set_up = [&] {
    const auto t = Clock::now();
    Workload built = set_up(o, workers);
    setup_s.push_back(ns_since(t) / 1e9);
    return built;
  };
  const Workload w = timed_set_up();

  // ---- timed passes ----
  const double budget_ns = o.seconds * 1e9;
  // Every pass and triage is one operation. The first of each keeps its
  // outputs for the checks; the others are checked against it and keep
  // only their figures, so memory does not grow with their number. The
  // vectors are reserved so that long-lived small allocations do not
  // interleave with the passes' own.
  std::optional<Pass> first;
  std::vector<Pass> passes;
  passes.reserve(1 << 16);
  auto record = [&](Pass p) {
    ledger.check(!first || (p.report == first->report &&
                            p.discrepancies == first->discrepancies),
                 "audit report differs between passes");
    if (first) p.report = std::string();
    passes.push_back(std::move(p));
    if (!first) first = passes.back();
  };
  std::optional<Triage> first_triage;
  std::vector<Triage> triages;
  triages.reserve(1 << 12);
  auto record_triage = [&](Triage t) {
    ledger.check(!first_triage || t.report == first_triage->report,
                 "triage report differs between runs of it");
    if (first_triage) {
      t.result = {};
      t.report = std::string();
    }
    triages.push_back(std::move(t));
    if (!first_triage) first_triage = triages.back();
  };
  std::vector<Composed> traced;  // composed passes (trace 1)
  std::vector<double> traced_ns, cov_merge_ns, cov_features;
  const auto start = Clock::now();

  double rss_mb = 0;
  if (!o.trace) {
    // A triage after every `triage_every` audit passes, so both sample the
    // whole run. Peak RSS is read after the first two such cycles, a fixed
    // amount of work, so it does not follow how many passes a run fits.
    const double setup_every_ns = budget_ns / static_cast<double>(kSetups);
    while (passes.empty() || ns_since(start) < budget_ns ||
           triages.size() < 3 || setup_s.size() < kSetups) {
      if (triages.size() >= 2 && setup_s.size() < kSetups &&
          ns_since(start) >=
              setup_every_ns * static_cast<double>(setup_s.size())) {
        timed_set_up();
        continue;
      }
      if (!passes.empty() && passes.size() % w.triage_every == 0 &&
          triages.size() < passes.size() / w.triage_every) {
        record_triage(run_triage(w));
        if (triages.size() == 2) rss_mb = peak_rss_mb();
        continue;
      }
      record(run_pass(w));
    }
  } else {
    // Traced passes: the audit composed from layer calls, each wrapped in a
    // span. At most 32 passes, which keeps the span file small (scale-audit
    // records ~1300 spans a pass).
    recorder().set_enabled(true);
    while (traced_ns.empty() ||
           (traced_ns.size() < 32 && ns_since(start) < budget_ns)) {
      const auto t = Clock::now();
      Span pass_span("bench.pass");
      std::vector<Composed> pass;
      for (const auto& m : w.audits)
        pass.push_back(compose(m, w.jobs, false, false));
      {
        Span span("cov.merge");
        auto& map = nk::cov::CoverageMap::instance();
        map.reset();
        for (const auto& c : pass)
          for (const auto& v : c.coverage) map.merge_scenario(v);
        cov_merge_ns.push_back(static_cast<double>(span.finish()));
        cov_features.push_back(static_cast<double>(map.features_seen()));
        map.reset();
      }
      pass_span.finish();
      traced_ns.push_back(ns_since(t));
      ledger.check(traced.empty() || pass.front().counts ==
                                         traced.front().counts,
                   "work counts differ between traced passes");
      for (auto& c : pass) traced.push_back(std::move(c));
    }
    recorder().set_enabled(false);
    // Untraced passes give the tracing overhead; the triages give the
    // triage's per-layer figures.
    for (int i = 0; i < 3; ++i) {
      record(run_pass(w));
      record_triage(run_triage(w));
    }
  }

  // ---- checks ----
  const Checked checked = run_checks(w, *first, o.trace, workers, work,
                                     first_triage->result, ledger);
  const nk::harness::TriageResult& triage = first_triage->result;
  WorkCounts counts = checked.counts;
  ledger.check(counts.discrepancies == first->discrepancies,
               "discrepancy count differs between composed and audit_*");

  const Fingerprint fp = fingerprint();
  std::printf("fingerprint %s\n", fp.json().c_str());
  std::printf("work %s\n", counts.json().c_str());
  std::printf("passes %zu triages %zu\n",
              o.trace ? traced_ns.size() : passes.size(), triages.size());
  for (const auto& f : ledger.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());

  if (!o.trace) {
    // Timings are the run's fastest pass (triage) and rates its best. The
    // passes repeat identical work and other tenants of the machine only
    // ever add time: over six same-seed paper-audit runs the per-run median
    // pass moved 36% (quartile spread) while the fastest pass moved 8%.
    double audit_ms = 1e300, per_s = 0, events_per_s = 0, triage_ms = 1e300;
    for (const auto& p : passes) {
      audit_ms = std::min(audit_ms, p.audit_ns / 1e6);
      per_s = std::max(per_s, static_cast<double>(p.scenarios) /
                                  (p.audit_ns / 1e9));
      events_per_s = std::max(events_per_s,
                              static_cast<double>(counts.events) /
                                  (p.task_ms / 1e3));
    }
    for (const auto& t : triages) triage_ms = std::min(triage_ms, t.ns / 1e6);
    // What the workload's results occupy on disk when cached: every
    // scenario's entry written to a fresh store.
    std::uint64_t cache_bytes = 0;
    for (const auto& lap : checked.caches) cache_bytes += lap.loose_bytes;
    metrics.set("setup_s", median(setup_s), "s");
    metrics.set("audit_ms", audit_ms, "ms");
    metrics.set("scenarios_per_s", per_s, "1/s");
    metrics.set("sim_events_per_s", events_per_s, "events/s");
    metrics.set("triage_ms", triage_ms, "ms");
    metrics.set("peak_rss_mb", rss_mb, "MB");
    metrics.set("cache_bytes", static_cast<double>(cache_bytes), "bytes");
  } else {
    // ---- per-layer figures ----
    std::vector<Matrix> decode_samples = w.audits;
    std::vector<const ScenarioFigures*> figs;
    for (const auto& c : traced)
      for (const auto& f : c.scenarios) figs.push_back(&f);
    if (figs.empty())
      for (const auto& c : checked.composed)
        for (const auto& f : c.scenarios) figs.push_back(&f);
    std::vector<Composed> samples;
    const char* proto_names[] = {"ospf", "rip", "bgp"};
    for (const auto proto :
         {nk::harness::Protocol::kOspf, nk::harness::Protocol::kBgp,
          nk::harness::Protocol::kRip}) {
      bool present = false;
      for (const auto& m : w.audits) present = present || m.protocol == proto;
      if (!present) {
        decode_samples.push_back(protocol_sample(proto, o.seed));
        samples.push_back(compose(decode_samples.back(), 1, false, false));
      }
    }
    for (const auto& c : samples)
      for (const auto& f : c.scenarios) figs.push_back(&f);

    double sim_ns[3] = {0, 0, 0}, events[3] = {0, 0, 0};
    double pairs_ns = 0, classify_ns = 0, records = 0, pairs = 0, arena = 0;
    for (const ScenarioFigures* f : figs) {
      const int pi = static_cast<int>(f->protocol);
      sim_ns[pi] += f->sim_ns;
      events[pi] += static_cast<double>(f->events);
      pairs_ns += f->pairs_ns;
      classify_ns += f->classify_ns;
      records += static_cast<double>(f->records);
      pairs += static_cast<double>(f->pairs);
      arena += static_cast<double>(f->arena_bytes);
    }

    // Executor figures: the composed fan-outs.
    std::vector<double> task_ms, util_ratio, task_max;
    auto fold_exec = [&](const nk::harness::ExecReport& e) {
      if (e.tasks.empty() || e.wall_ms <= 0) return;
      double sum = 0, mx = 0;
      for (const auto& t : e.tasks) {
        task_ms.push_back(t.wall_ms);
        sum += t.wall_ms;
        mx = std::max(mx, t.wall_ms);
      }
      task_max.push_back(mx);
      util_ratio.push_back(sum / (e.wall_ms * static_cast<double>(e.jobs)));
    };
    for (const auto& c : traced) fold_exec(c.exec);

    std::vector<double> merge_us, compare_us, text_us, json_us;
    for (std::size_t i = 0; i < traced.size(); i += w.audits.size()) {
      double mg = 0, cp = 0, tx = 0, js = 0;
      for (std::size_t k = i; k < std::min(traced.size(), i + w.audits.size());
           ++k) {
        mg += traced[k].merge_ns;
        cp += traced[k].compare_ns;
        tx += traced[k].report.text_ns;
        js += traced[k].report.json_ns;
      }
      merge_us.push_back(mg / 1e3);
      compare_us.push_back(cp / 1e3);
      text_us.push_back(tx / 1e3);
      json_us.push_back(js / 1e3);
    }

    // Triage probes and injection.
    std::vector<double> probe_ms;
    for (const auto& t : triage.exec.tasks)
      if (t.label.rfind("triage/", 0) == 0) probe_ms.push_back(t.wall_ms);
    std::vector<double> inject_ms;
    for (const auto& inc : triage.incidents) {
      if (inc.stimulus.empty()) continue;
      for (const auto* impl :
           {&inc.discrepancy.present_in, &inc.discrepancy.absent_in}) {
        nk::harness::InjectionConfig ic;
        ic.stimulus = inc.stimulus;
        for (const auto& p : w.triage_impls)
          if (p.name == *impl) ic.target_profile = p;
        const auto t = Clock::now();
        nk::harness::inject_and_observe(ic);
        inject_ms.push_back(ns_since(t) / 1e6);
      }
    }

    // Observability: the end-to-end pass with obs and coverage reporting on
    // against off, alternating; queue-wait from the program's own spans.
    std::vector<double> on_ns, off_ns;
    for (int i = 0; i < 3; ++i) {
      auto t = Clock::now();
      run_pass(w);
      off_ns.push_back(ns_since(t));
      nk::obs::set_enabled(true);
      nk::cov::set_enabled(true);
      t = Clock::now();
      run_pass(w);
      on_ns.push_back(ns_since(t));
      nk::obs::set_enabled(false);
      nk::cov::set_enabled(false);
      nk::obs::Registry::instance().reset();
      nk::cov::CoverageMap::instance().reset();
    }
    double queue_wait_ms = 0;
    {
      nk::obs::set_enabled(true);
      run_audit(w.audits.front(), workers);
      nk::obs::set_enabled(false);
      double sum = 0;
      std::size_t n = 0;
      for (const auto& sp : nk::obs::Registry::instance().spans())
        if (sp.name == "queue-wait") {
          sum += static_cast<double>(sp.dur_us) / 1e3;
          ++n;
        }
      queue_wait_ms = n ? sum / static_cast<double>(n) : 0;
      nk::obs::Registry::instance().reset();
      nk::cov::CoverageMap::instance().reset();
    }

    const NetsimLap net = netsim_lap();
    const TopoLap topo = topo_lap(w);
    const SpfLap spf = spf_lap(w);
    const DecodeLap dec = decode_lap(decode_samples);
    ledger.check(dec.undecodable == 0, "a captured frame failed to decode");
    const CacheLap& cache = checked.caches.front();

    std::vector<double> untraced_ns, triage_ns;
    for (const auto& p : passes) untraced_ns.push_back(p.audit_ns);
    for (const auto& t : triages) triage_ns.push_back(t.ns);
    const double untraced_pass = median(untraced_ns);

    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    metrics.set("netsim.events", static_cast<double>(counts.events), "count");
    metrics.set("netsim.frames", static_cast<double>(counts.frames), "count");
    metrics.set("netsim.loop_ns_per_event", net.loop_ns_per_event, "ns");
    metrics.set("netsim.lan_ns_per_frame", net.lan_ns_per_frame, "ns");
    for (int pi = 0; pi < 3; ++pi)
      metrics.set(std::string(proto_names[pi]) + ".sim_ns_per_event",
                  per(sim_ns[pi], events[pi]), "ns");
    metrics.set("ospf.spf_us", spf.spf_us, "us");
    metrics.set("ospf.route_probe_ns", spf.route_probe_ns, "ns");
    metrics.set("packet.ospf_decode_ns", dec.ospf_ns, "ns");
    metrics.set("packet.bgp_decode_ns", dec.bgp_ns, "ns");
    metrics.set("packet.rip_decode_ns", dec.rip_ns, "ns");
    metrics.set("trace.records", static_cast<double>(counts.records), "count");
    metrics.set("trace.tap_ns_per_frame", net.tap_ns_per_frame, "ns");
    metrics.set("trace.arena_bytes_per_record", per(arena, records), "bytes");
    metrics.set("topo.build_us", topo.build_us, "us");
    metrics.set("harness.reset_us", topo.reset_us, "us");
    metrics.set("harness.task_ms_p50", median(task_ms), "ms");
    metrics.set("harness.task_ms_max", median(task_max), "ms");
    metrics.set("harness.worker_utilization", median(util_ratio), "ratio");
    metrics.set("harness.queue_wait_ms", queue_wait_ms, "ms");
    metrics.set("harness.merge_us", median(merge_us), "us");
    metrics.set("harness.minimize_probes",
                static_cast<double>(counts.triage_probes), "count");
    metrics.set("harness.probe_ms", median(probe_ms), "ms");
    metrics.set("harness.inject_ms", median(inject_ms), "ms");
    metrics.set("harness.triage_ms", median(triage_ns) / 1e6, "ms");
    metrics.set("mining.pairs", static_cast<double>(counts.pairs), "count");
    metrics.set("mining.cells", static_cast<double>(counts.cells), "count");
    metrics.set("mining.pairs_ns_per_record", per(pairs_ns, records), "ns");
    metrics.set("mining.classify_ns_per_pair", per(classify_ns, pairs), "ns");
    metrics.set("detect.discrepancies",
                static_cast<double>(counts.discrepancies), "count");
    metrics.set("detect.compare_us", median(compare_us), "us");
    metrics.set("detect.render_text_us", median(text_us), "us");
    metrics.set("detect.render_json_us", median(json_us), "us");
    metrics.set("cov.merge_us", median(cov_merge_ns) / 1e3, "us");
    metrics.set("cov.features", median(cov_features), "count");
    metrics.set("obs.enabled_cost", median(on_ns) / median(off_ns), "ratio");
    metrics.set("cache.key_us", cache.key_us, "us");
    metrics.set("cache.get_batch_us_per_key", cache.get_batch_us_per_key, "us");
    metrics.set("cache.get_loose_us", cache.get_loose_us, "us");
    metrics.set("cache.get_memory_us", cache.get_memory_us, "us");
    metrics.set("cache.put_us", cache.put_us, "us");
    metrics.set("cache.compact_ms", cache.compact_ms, "ms");
    metrics.set("cache.hit_ratio", cache.hit_ratio, "ratio");
    metrics.set("cache.entry_bytes", cache.entry_bytes, "bytes");
    metrics.set("bench.trace_overhead", median(traced_ns) / untraced_pass,
                "ratio");

    const std::string trace_path = ".nidbench_work/trace-" + o.workload +
                                   "-seed" + std::to_string(o.seed) + ".json";
    {
      std::ofstream file(trace_path);
      recorder().write_chrome_trace(file);
    }
    std::printf("chrome trace: %s\n", trace_path.c_str());
    std::printf("%s", self_time_table(recorder()).c_str());
    std::printf("per-layer metrics:\n%s", metrics.table().c_str());
  }

  fs::remove_all(work);
  std::error_code ec;
  fs::remove(".nidbench_work", ec);  // only succeeds when empty
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
      ledger.failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(ledger.attempted),
      static_cast<unsigned long long>(ledger.failures.size()),
      metrics.json().c_str());
  std::fflush(stdout);
  return ledger.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);
  if (!options) {
    std::fprintf(stderr,
                 "usage: nidbench --workload <paper-audit|scale-audit|"
                 "bgp-rip-audit> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  try {
    return run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nidbench: %s\n", e.what());
    return 1;
  }
}
