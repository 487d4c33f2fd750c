#include "layers.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "cache/key.hpp"
#include "cache/pack.hpp"
#include "harness/workspace.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "ospf/lsdb.hpp"
#include "ospf/spf.hpp"
#include "packet/bgp_packet.hpp"
#include "packet/ospf_packet.hpp"
#include "packet/rip_packet.hpp"
#include "topo/topo.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"

namespace nidbench {

using nk::harness::Protocol;

namespace {

double ns_since(Clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back(Item{name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.9g", items_[i].value);
    out += (i ? ",\"" : "\"") + items_[i].name + "\":{\"value\":" + buf +
           ",\"unit\":\"" + items_[i].unit + "\"}";
  }
  return out + "}";
}

std::string Metrics::table() const {
  std::string out;
  char buf[160];
  for (const auto& it : items_) {
    std::snprintf(buf, sizeof buf, "  %-32s %16.6g %s\n", it.name.c_str(),
                  it.value, it.unit.c_str());
    out += buf;
  }
  return out;
}

// ---- netsim ----

namespace {

void tick(nk::netsim::Simulator& sim, std::uint64_t& remaining) {
  if (remaining == 0) return;
  --remaining;
  sim.schedule(nk::SimDuration{10}, [&sim, &remaining] { tick(sim, remaining); });
}

double timer_ns_per_event(std::uint64_t events) {
  nk::netsim::Simulator sim;
  constexpr std::uint64_t kChains = 32;  // keeps the heap realistically deep
  std::vector<std::uint64_t> budgets(kChains, events / kChains);
  for (auto& b : budgets) tick(sim, b);
  const std::uint64_t before = sim.executed();
  const auto start = Clock::now();
  while (sim.step()) {
  }
  return ns_since(start) / static_cast<double>(sim.executed() - before);
}

struct LanSender {
  nk::netsim::Simulator& sim;
  nk::netsim::Network& net;
  nk::netsim::Frame proto;
  std::uint64_t remaining = 0;
};

void lan_tick(LanSender& s) {
  if (s.remaining == 0) return;
  --s.remaining;
  nk::netsim::Frame f = s.proto;
  s.net.send(0, 0, std::move(f));
  s.sim.schedule(nk::SimDuration{100}, [&s] { lan_tick(s); });
}

double lan_ns_per_frame(std::uint64_t sends, bool traced) {
  nk::netsim::Simulator sim;
  nk::netsim::Network net(sim, 42);
  std::vector<nk::netsim::NodeId> nodes;
  for (int i = 0; i < 8; ++i) {
    std::string name(1, 'n');
    name += std::to_string(i);
    nodes.push_back(net.add_node(std::move(name)));
  }
  net.add_lan(nodes);
  nk::trace::TraceLog log;
  if (traced) log.attach(net);
  // Protocol 253 (experimental) carries no digest, so the traced lap
  // measures the capture itself, not a codec.
  LanSender sender{sim, net, {}, 0};
  sender.proto.dst = nk::Ipv4Addr{224, 0, 0, 5};
  sender.proto.protocol = 253;
  sender.proto.payload = std::vector<std::uint8_t>(100, 0xab);
  sender.remaining = sends;
  lan_tick(sender);
  const std::uint64_t before = net.frames_delivered();
  const auto start = Clock::now();
  while (sim.step()) {
  }
  return ns_since(start) /
         static_cast<double>(net.frames_delivered() - before);
}

}  // namespace

NetsimLap netsim_lap() {
  std::vector<double> loop, lan, traced;
  for (int rep = 0; rep < 7; ++rep) {
    loop.push_back(timer_ns_per_event(200'000));
    lan.push_back(lan_ns_per_frame(20'000, false));
    traced.push_back(lan_ns_per_frame(20'000, true));
  }
  NetsimLap out;
  out.loop_ns_per_event = median(loop);
  out.lan_ns_per_frame = median(lan);
  out.tap_ns_per_frame = median(traced) - out.lan_ns_per_frame;
  return out;
}

// ---- topo / workspace ----

TopoLap topo_lap(const Workload& w) {
  std::vector<std::pair<nk::topo::Spec, std::uint64_t>> cases;
  for (const auto& m : w.audits)
    for (const auto& spec : m.config.topologies)
      for (const auto seed : m.config.seeds) cases.emplace_back(spec, seed);
  nk::harness::Workspace ws;
  std::vector<double> build, reset;
  for (int rep = 0; rep < 5; ++rep) {
    double b = 0, r = 0;
    for (const auto& [spec, seed] : cases) {
      const auto t0 = Clock::now();
      ws.reset(seed);
      r += ns_since(t0);
      const auto t1 = Clock::now();
      const auto built = nk::topo::build(ws.net(), spec);
      b += ns_since(t1);
      if (built.nodes.size() != spec.routers)
        throw std::runtime_error("topo::build: wrong router count");
    }
    build.push_back(b / 1e3 / static_cast<double>(cases.size()));
    reset.push_back(r / 1e3 / static_cast<double>(cases.size()));
  }
  return TopoLap{median(build), median(reset)};
}

// ---- ospf SPF ----

namespace {

nk::RouterId router_id(std::size_t i) {
  const auto v = static_cast<std::uint32_t>(i + 1);
  return nk::RouterId{0x0a000000u | v};
}

/// Router LSAs for a topology: a point-to-point link between every two
/// routers that share a segment (a LAN becomes a full mesh), plus one stub
/// network per router.
nk::ospf::Lsdb lsdb_for(const nk::topo::Spec& spec) {
  nk::netsim::Simulator sim;
  nk::netsim::Network net(sim, 1);
  const auto built = nk::topo::build(net, spec);
  std::map<nk::netsim::NodeId, std::set<nk::netsim::NodeId>> adj;
  for (const auto seg : built.segments) {
    const auto& att = net.attachments(seg);
    for (const auto& a : att)
      for (const auto& b : att)
        if (a.node != b.node) adj[a.node].insert(b.node);
  }
  nk::ospf::Lsdb db;
  for (std::size_t i = 0; i < built.nodes.size(); ++i) {
    nk::ospf::Lsa lsa;
    lsa.header.type = nk::ospf::LsaType::kRouter;
    lsa.header.link_state_id = router_id(i);
    lsa.header.advertising_router = router_id(i);
    nk::ospf::RouterLsaBody body;
    for (const auto peer : adj[built.nodes[i]]) {
      const auto idx = static_cast<std::size_t>(
          std::find(built.nodes.begin(), built.nodes.end(), peer) -
          built.nodes.begin());
      body.links.push_back({router_id(idx), nk::Ipv4Addr{},
                            nk::ospf::RouterLinkType::kPointToPoint, 10});
    }
    body.links.push_back(
        {nk::Ipv4Addr{10, 1, static_cast<std::uint8_t>(i), 0},
         nk::Ipv4Addr{255, 255, 255, 0}, nk::ospf::RouterLinkType::kStub, 1});
    lsa.body = std::move(body);
    db.install(lsa, nk::SimTime{0});
  }
  return db;
}

}  // namespace

SpfLap spf_lap(const Workload& w) {
  using namespace std::chrono_literals;
  std::set<std::string> seen;
  std::vector<std::pair<nk::ospf::Lsdb, std::size_t>> dbs;
  for (const auto& m : w.audits)
    for (const auto& spec : m.config.topologies)
      if (seen.insert(spec.name()).second)
        dbs.emplace_back(lsdb_for(spec), spec.routers);

  nk::ospf::SpfScratch scratch;
  std::vector<nk::ospf::Route> routes;
  std::vector<double> spf, probe;
  for (int rep = 0; rep < 7; ++rep) {
    double spf_ns = 0, probe_ns = 0;
    std::uint64_t spf_calls = 0, probes = 0, entries = 0;
    for (const auto& [db, n] : dbs) {
      const auto t0 = Clock::now();
      for (int k = 0; k < 20; ++k)
        for (std::size_t r = 0; r < n; ++r) {
          nk::ospf::compute_routes(db, router_id(r), nk::SimTime{1s}, scratch,
                                   routes);
          entries += routes.size();
          ++spf_calls;
        }
      spf_ns += ns_since(t0);
      nk::ospf::RouteCache cache;
      nk::SimTime now = 1s;
      (void)cache.get(db, router_id(0), now);
      const auto t1 = Clock::now();
      for (int k = 0; k < 20'000; ++k) {
        now += nk::SimTime{1};
        entries += cache.get(db, router_id(0), now).size();
        ++probes;
      }
      probe_ns += ns_since(t1);
    }
    if (entries == 0) throw std::runtime_error("SPF produced no routes");
    spf.push_back(spf_ns / 1e3 / static_cast<double>(spf_calls));
    probe.push_back(probe_ns / static_cast<double>(probes));
  }
  return SpfLap{median(spf), median(probe)};
}

// ---- packet decoders ----

Matrix protocol_sample(Protocol protocol, std::uint64_t seed) {
  using namespace std::chrono_literals;
  Matrix m;
  m.protocol = protocol;
  m.config.topologies = nk::topo::paper_topologies();
  m.config.seeds = {seed};
  m.config.jobs = 1;
  if (protocol == Protocol::kOspf) {
    m.ospf = {nk::ospf::frr_profile()};
    m.scheme = nk::mining::ospf_type_scheme();
  } else if (protocol == Protocol::kBgp) {
    m.bgp = {nk::bgp::bgp_robust_profile()};
    m.config.duration = 300s;
    m.scheme = nk::mining::bgp_message_scheme();
  } else {
    m.rip = {nk::rip::rip_classic_profile()};
    m.config.duration = 240s;
    m.scheme = nk::mining::rip_refined_scheme();
  }
  return m;
}

DecodeLap decode_lap(const std::vector<Matrix>& samples) {
  std::vector<nk::harness::ScenarioResult> runs;
  for (const auto& m : samples)
    for (auto job : jobs_of(m)) {
      if (job.impl != 0 || job.scenario.seed != m.config.seeds.front())
        continue;
      job.scenario.keep_bytes = true;
      runs.push_back(nk::harness::run_scenario(job.scenario));
    }
  std::vector<double> ospf, bgp, rip;
  std::uint64_t undecodable = 0;
  for (int rep = 0; rep < 5; ++rep) {
    double t[3] = {0, 0, 0};
    std::uint64_t n[3] = {0, 0, 0};
    for (const auto& run : runs) {
      for (std::size_t i = 0; i < run.log.size(); ++i) {
        const auto rec = run.log.view(i);
        const std::span<const std::uint8_t> wire(rec.bytes.data(),
                                                 rec.bytes.size());
        const auto start = Clock::now();
        int slot = -1;
        if (rec.protocol == 89) {
          undecodable += !nk::ospf::decode(wire).ok();
          slot = 0;
        } else if (rec.protocol == 6) {
          undecodable += !nk::bgp::decode(wire).ok();
          slot = 1;
        } else if (rec.protocol == 17) {
          undecodable += !nk::rip::decode(wire).ok();
          slot = 2;
        }
        if (slot < 0) continue;
        t[slot] += ns_since(start);
        ++n[slot];
      }
    }
    for (int s = 0; s < 3; ++s)
      if (n[s] == 0) throw std::runtime_error("decode lap saw no frames");
    ospf.push_back(t[0] / static_cast<double>(n[0]));
    bgp.push_back(t[1] / static_cast<double>(n[1]));
    rip.push_back(t[2] / static_cast<double>(n[2]));
  }
  return DecodeLap{median(ospf), median(bgp), median(rip), undecodable / 5};
}

// ---- cache ----

CacheLap cache_lap(const std::vector<Job>& jobs, const Matrix& m,
                   const std::vector<nk::cache::ScenarioKey>& keys,
                   const std::vector<nk::cache::Entry>& entries,
                   const std::string& dir) {
  namespace fs = std::filesystem;
  CacheLap out;
  const double n = static_cast<double>(keys.size());
  std::uint64_t& lookups = out.lookups;
  std::uint64_t& hits = out.hits;
  std::vector<double> key_us;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (const auto& j : jobs) {
      const auto k = nk::cache::scenario_key(
          j.scenario, m.config.miner_config(), m.scheme.name,
          nk::cache::PayloadKind::kMinedRelations);
      if (k.digest.hex().empty()) throw std::runtime_error("empty key");
    }
    key_us.push_back(ns_since(t0) / 1e3 / static_cast<double>(jobs.size()));
  }
  out.key_us = median(key_us);

  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i)
    bytes += nk::cache::encode_entry(keys[i], entries[i]).size();
  out.entry_bytes = static_cast<double>(bytes) / n;

  fs::remove_all(dir);
  {
    nk::cache::Store store(dir);
    auto t = Clock::now();
    for (std::size_t i = 0; i < keys.size(); ++i) store.put(keys[i], entries[i]);
    out.put_us = ns_since(t) / 1e3 / n;
    t = Clock::now();
    for (const auto& k : keys) {
      ++lookups;
      hits += store.get(k).has_value();
    }
    out.get_memory_us = ns_since(t) / 1e3 / n;
  }
  out.loose_bytes = dir_bytes(dir);
  {
    nk::cache::Store store(dir);
    const auto t = Clock::now();
    for (const auto& k : keys) {
      ++lookups;
      hits += store.get(k).has_value();
    }
    out.get_loose_us = ns_since(t) / 1e3 / n;
  }
  {
    const auto t = Clock::now();
    const auto result = nk::cache::compact(dir);
    out.compact_ms = ns_since(t) / 1e6;
    if (!result) throw std::runtime_error("compact failed");
  }
  {
    nk::cache::Store store(dir);
    const auto t = Clock::now();
    const auto batch = store.get_batch(keys);
    out.get_batch_us_per_key = ns_since(t) / 1e3 / n;
    lookups += keys.size();
    for (const auto& e : batch.entries) hits += e.has_value();
  }
  out.hit_ratio = static_cast<double>(hits) / static_cast<double>(lookups);
  return out;
}

// ---- machine ----

namespace {

std::uint64_t calibration_loop() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += i;
  }
  return x;
}

}  // namespace

Fingerprint fingerprint() {
  Fingerprint f;
  f.nproc = std::max(1u, std::thread::hardware_concurrency());
  volatile std::uint64_t sink = 0;
  std::vector<double> single;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t = Clock::now();
    sink = sink + calibration_loop();
    single.push_back(ns_since(t) / 1e6);
  }
  f.calib_ms = median(single);
  const auto t = Clock::now();
  {
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> results(f.nproc);
    for (unsigned i = 0; i < f.nproc; ++i)
      threads.emplace_back([&results, i] { results[i] = calibration_loop(); });
    for (auto& th : threads) th.join();
    for (const auto r : results) sink = sink + r;
  }
  f.parallel_slowdown = ns_since(t) / 1e6 / f.calib_ms;
  return f;
}

std::string Fingerprint::json() const {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\":%u,\"calib_ms\":%.3f,"
                "\"parallel_slowdown_at_nproc\":%.3f}",
                nproc, calib_ms, parallel_slowdown);
  return buf;
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark. getrusage's
  // ru_maxrss survives exec, so under a launcher it would report the
  // launcher's peak whenever that is the larger one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

}  // namespace nidbench
