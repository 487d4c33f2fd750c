#include "reference.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace nidbench {

namespace nk = nidkit;

namespace {

using Timed = std::pair<nk::SimTime, std::size_t>;  // (time, record index)

void attribute(const std::vector<Timed>& stimuli,
               const std::vector<Timed>& responses, nk::SimDuration threshold,
               nk::SimDuration horizon, PairList& out) {
  for (const auto& [t, si] : stimuli) {
    const nk::SimTime earliest = t + threshold;
    auto it = std::lower_bound(
        responses.begin(), responses.end(), earliest,
        [](const Timed& r, nk::SimTime when) { return r.first < when; });
    if (it == responses.end()) continue;
    const nk::SimTime first = it->first;
    if (horizon.count() > 0 && first > earliest + horizon) continue;
    for (; it != responses.end() && it->first == first; ++it)
      out.emplace_back(si, it->second);
  }
}

}  // namespace

ReferencePairs reference_pairs(const nk::trace::TraceLog& log,
                               const nk::mining::MinerConfig& config) {
  const nk::SimDuration threshold{static_cast<std::int64_t>(
      config.window_factor * static_cast<double>(config.tdelay.count()))};

  // Group every record by the router that observed it, per direction.
  std::map<nk::netsim::NodeId, std::pair<std::vector<Timed>,
                                         std::vector<Timed>>>
      by_node;  // node -> (sends, receives)
  for (std::size_t i = 0; i < log.size(); ++i) {
    const nk::trace::RecordView r = log.view(i);
    auto& [sends, recvs] = by_node[r.node];
    (r.is_send() ? sends : recvs).emplace_back(r.time, i);
  }

  ReferencePairs out;
  for (auto& [node, lists] : by_node) {
    auto& [sends, recvs] = lists;
    std::sort(sends.begin(), sends.end());
    std::sort(recvs.begin(), recvs.end());
    attribute(sends, recvs, threshold, config.horizon, out.send_to_recv);
    attribute(recvs, sends, threshold, config.horizon, out.recv_to_send);
  }
  std::sort(out.send_to_recv.begin(), out.send_to_recv.end());
  std::sort(out.recv_to_send.begin(), out.recv_to_send.end());
  return out;
}

ReferencePairs sorted_pairs(const nk::mining::MinedPairs& pairs) {
  ReferencePairs out;
  for (const auto& p : pairs.send_to_recv)
    out.send_to_recv.emplace_back(p.stimulus_index, p.response_index);
  for (const auto& p : pairs.recv_to_send)
    out.recv_to_send.emplace_back(p.stimulus_index, p.response_index);
  std::sort(out.send_to_recv.begin(), out.send_to_recv.end());
  std::sort(out.recv_to_send.begin(), out.recv_to_send.end());
  return out;
}

bool operator==(const ReferencePairs& a, const ReferencePairs& b) {
  return a.send_to_recv == b.send_to_recv && a.recv_to_send == b.recv_to_send;
}

std::vector<Flag> reference_flags(
    const std::vector<std::pair<std::string,
                                const nk::mining::RelationSet*>>& impls) {
  using Dir = nk::mining::RelationDirection;
  std::vector<Flag> out;
  for (const Dir dir : {Dir::kSendToRecv, Dir::kRecvToSend}) {
    std::vector<std::set<std::pair<std::string, std::string>>> cells;
    for (const auto& [name, set] : impls) {
      cells.emplace_back();
      for (const auto& [cell, stats] : set->cells(dir))
        cells.back().emplace(cell.stimulus, cell.response);
    }
    for (std::size_t have = 0; have < impls.size(); ++have)
      for (std::size_t lack = 0; lack < impls.size(); ++lack) {
        if (have == lack) continue;
        for (const auto& [stim, resp] : cells[have])
          if (!cells[lack].count({stim, resp}))
            out.emplace_back(static_cast<int>(dir), stim, resp,
                             impls[have].first, impls[lack].first);
      }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace nidbench
