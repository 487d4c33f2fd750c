// Independent reference computations the benchmark checks nidkit against.
//
// Both are written from the rules the library documents, not from its
// code, and share no code with it: agreement on every scenario of a run is
// evidence that a faster miner or comparator still computes the same thing.
#pragma once

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mining/miner.hpp"
#include "mining/relation.hpp"
#include "trace/trace.hpp"

namespace nidbench {

/// (stimulus index, response index) pairs of one direction, sorted.
using PairList = std::vector<std::pair<std::size_t, std::size_t>>;

struct ReferencePairs {
  PairList send_to_recv;
  PairList recv_to_send;
};

/// The delay-window rule of mining/miner.hpp, applied straight to the
/// trace records: for every record at a router, the first record of the
/// opposite direction at the same router at or after
/// time + window_factor * TDelay, and no later than `horizon` past that
/// threshold (0 = no cap); every record tied at that earliest time counts.
ReferencePairs reference_pairs(const nidkit::trace::TraceLog& log,
                               const nidkit::mining::MinerConfig& config);

/// The library's pairs in the same sorted form.
ReferencePairs sorted_pairs(const nidkit::mining::MinedPairs& pairs);

bool operator==(const ReferencePairs& a, const ReferencePairs& b);

/// One flag: (direction, stimulus, response, present_in, absent_in).
using Flag = std::tuple<int, std::string, std::string, std::string,
                        std::string>;

/// Plain set difference: for each ordered pair (have, lack) of distinct
/// implementations and each direction, every cell `have` holds and `lack`
/// does not. Returned sorted.
std::vector<Flag> reference_flags(
    const std::vector<std::pair<std::string,
                                const nidkit::mining::RelationSet*>>& impls);

}  // namespace nidbench
