#include "restore/target_jdm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "util/sorted_keys.h"

namespace sgr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Initialization step of Section IV-C: for every degree pair with
/// P̂(k,k') > 0, m*(k,k') = max(NearInt(n̂ k̂̄ P̂(k,k')/µ(k,k')), 1).
JointDegreeMatrix InitializeJdm(const LocalEstimates& est) {
  JointDegreeMatrix m_star;
  for (const std::uint64_t key : SortedKeys(est.joint_dist.values())) {
    const double p = est.joint_dist.values().at(key);
    if (p <= 0.0) continue;
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (k > kp) continue;  // handle each unordered pair once
    const std::int64_t value = std::max<std::int64_t>(
        std::llround(est.EstimatedEdgeCount(k, kp)), 1);
    m_star.SetSymmetric(k, kp, value);
  }
  return m_star;
}

/// Uniformly random element of `candidates` (non-empty).
std::uint32_t PickRandom(const std::vector<std::uint32_t>& candidates,
                         Rng& rng) {
  return candidates[rng.NextIndex(candidates.size())];
}

/// Immediate estimate m̂(k,k') = n̂ k̂̄ P̂(k,k')/µ(k,k') that Δ± measures
/// against; 0 (every move scores +infinity) when P̂(k,k') = 0.
double ImmediateEstimate(const LocalEstimates& est, std::uint32_t k,
                         std::uint32_t k_prime) {
  if (est.joint_dist.At(k, k_prime) <= 0.0) return 0.0;
  return est.EstimatedEdgeCount(k, k_prime);
}

/// Δ± of moving an entry from `current` by `direction` against its
/// immediate estimate (JdmDelta with the estimate already looked up).
double DeltaFromEstimate(double estimate, std::int64_t current,
                         int direction) {
  if (estimate <= 0.0) return kInf;
  const double cur = static_cast<double>(current);
  const double next = cur + static_cast<double>(direction);
  return (std::abs(estimate - next) - std::abs(estimate - cur)) / estimate;
}

/// Running arg-min of Δ over candidates offered in scan order: keeps every
/// candidate within 1e-15 of the best, the ties PickRandom draws among.
/// Members are caller-defined slot indices.
struct TieSet {
  double best = kInf;
  std::vector<std::uint32_t> members;

  void Reset() {
    best = kInf;
    members.clear();
  }
  void Offer(double delta, std::uint32_t slot) {
    if (delta < best - 1e-15) {
      best = delta;
      members.assign(1, slot);
    } else if (delta <= best + 1e-15) {
      members.push_back(slot);
    }
  }
};

/// Adjustment step (Algorithm 3): drive every row sum s(k) to its target
/// s*(k) = k n*(k), processing the frozen set D in decreasing degree order
/// and respecting the lower limits {m_min(k,k')}. May grow `n_star`.
void AdjustJdm(const LocalEstimates& est, DegreeVector& n_star,
               JointDegreeMatrix& m_star, const JointDegreeMatrix& m_min,
               Rng& rng) {
  const auto k_max = static_cast<std::uint32_t>(n_star.size() - 1);
  std::vector<std::int64_t> s = m_star.RowSums(k_max);
  std::vector<std::int64_t> s_star(k_max + 1, 0);
  for (std::uint32_t k = 1; k <= k_max; ++k) {
    s_star[k] = static_cast<std::int64_t>(k) * n_star[k];
  }

  // D = {k : s(k) != s*(k)} ∪ {1}, frozen now; degrees outside D are never
  // touched, which is exactly the paper's third constraint.
  std::vector<std::uint32_t> d_set;
  for (std::uint32_t k = 1; k <= k_max; ++k) {
    if (s[k] != s_star[k] || k == 1) d_set.push_back(k);
  }

  // Row k of m*, m_min and m̂ over D ∩ [1, k] — the prefix d_set[0..r] —
  // loaded once per row. Only row k's entries move while it is processed,
  // so the row copy stays exact; m* is written through.
  std::vector<std::int64_t> row_m;
  std::vector<std::int64_t> row_min;
  std::vector<double> row_est;
  TieSet ties;
  for (std::size_t r = d_set.size(); r-- > 0;) {
    const std::uint32_t k = d_set[r];
    if (k == 1 && (std::llabs(s[1] - s_star[1]) % 2) == 1) {
      // Lines 2-3: make the gap even; only m(1,1) can move s(1), in steps
      // of 2.
      ++n_star[1];
      s_star[1] += 1;
    }
    if (s[k] == s_star[k]) continue;
    row_m.resize(r + 1);
    row_min.resize(r + 1);
    row_est.resize(r + 1);
    for (std::size_t i = 0; i <= r; ++i) {
      row_m[i] = m_star.At(k, d_set[i]);
      row_min[i] = m_min.At(k, d_set[i]);
      row_est[i] = ImmediateEstimate(est, k, d_set[i]);
    }
    const auto move = [&](std::uint32_t i, int direction) {
      const std::uint32_t kp = d_set[i];
      row_m[i] += direction;
      m_star.AddSymmetric(k, kp, direction);
      s[k] += (kp == k) ? 2 * direction : direction;
      if (kp != k) s[kp] += direction;
    };
    while (s[k] != s_star[k]) {
      // Slot r is k' = k itself: excluded when one unit off, since
      // µ(k,k) = 2 would overshoot.
      if (s[k] < s_star[k]) {
        // Lines 5-9: increase m*(k,k') for the candidate with the smallest
        // Δ+(k,k').
        const bool exclude_self = (s[k] == s_star[k] - 1);
        ties.Reset();
        for (std::uint32_t i = 0; i <= r; ++i) {
          if (exclude_self && i == r) continue;
          ties.Offer(DeltaFromEstimate(row_est[i], row_m[i], +1), i);
        }
        assert(!ties.members.empty() &&
               "D'+(k) is provably non-empty (contains degree 1)");
        move(PickRandom(ties.members, rng), +1);
      } else {
        // Lines 10-20: decrease m*(k,k') respecting the lower limits, or
        // grow the target sum when no entry can be decreased.
        const bool exclude_self = (s[k] == s_star[k] + 1);
        ties.Reset();
        for (std::uint32_t i = 0; i <= r; ++i) {
          if (exclude_self && i == r) continue;
          if (row_m[i] <= row_min[i]) continue;
          ties.Offer(DeltaFromEstimate(row_est[i], row_m[i], -1), i);
        }
        if (!ties.members.empty()) {
          move(PickRandom(ties.members, rng), -1);
        } else if (k > 1) {
          ++n_star[k];
          s_star[k] += k;
        } else {
          n_star[1] += 2;
          s_star[1] += 2;
        }
      }
    }
  }
}

/// One entry of row k for Algorithm 4: column k', current value m*(k,k'),
/// floor m'(k,k') and immediate estimate m̂(k,k').
struct RowEntry {
  std::uint32_t col;
  std::int64_t value;
  std::int64_t floor;
  double estimate;
};

/// Algorithm 4's rows in one flat vector: row k is `size` entries from
/// `begin`, columns ascending, with room for `cap`. A row that outgrows its
/// room moves to the end of the vector with twice the room; the slots it
/// leaves are not reused.
struct FlatRows {
  struct Row {
    std::size_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };
  std::vector<RowEntry> entries;
  std::vector<Row> rows;

  RowEntry* First(std::uint32_t k) { return entries.data() + rows[k].begin; }
  RowEntry* Last(std::uint32_t k) { return First(k) + rows[k].size; }

  /// Row k's entry for column `col`; `make()` builds it in column order
  /// when absent. The reference lives until the next insertion.
  template <typename Make>
  RowEntry& Find(std::uint32_t k, std::uint32_t col, const Make& make) {
    const auto before = [](const RowEntry& e, std::uint32_t c) {
      return e.col < c;
    };
    RowEntry* it = std::lower_bound(First(k), Last(k), col, before);
    if (it != Last(k) && it->col == col) return *it;
    Row& row = rows[k];
    if (row.size == row.cap) {
      const std::size_t moved = entries.size();
      const std::size_t offset = it - First(k);
      row.cap = std::max<std::uint32_t>(4, 2 * row.cap);
      entries.resize(moved + row.cap);
      std::copy(entries.begin() + row.begin,
                entries.begin() + row.begin + row.size,
                entries.begin() + moved);
      row.begin = moved;
      it = First(k) + offset;
    }
    std::copy_backward(it, Last(k), Last(k) + 1);
    ++row.size;
    *it = make();
    return *it;
  }
};

/// Modification step (Algorithm 4): raise m*(k1,k2) to at least m'(k1,k2)
/// for every pair, compensating through decrements elsewhere in rows k1 and
/// k2 so that row sums and the total edge count are preserved whenever
/// possible.
void ModifyJdm(const LocalEstimates& est, std::uint32_t k_max,
               JointDegreeMatrix& m_star, const JointDegreeMatrix& m_prime,
               Rng& rng) {
  // Only an entry with m*(k,k') > m'(k,k') >= 0 can be decremented, so row
  // k holds the columns in [1, k_max] where m* or m' is nonzero, ascending
  // — the order of the paper's scan over k'. The walk below raises only
  // m′'s nonzero entries, so only its compensating increments m*(k3,k4)
  // can insert. An entry at 0 stays in place and never qualifies.
  const std::vector<std::uint64_t> prime_keys = SortedKeys(m_prime.counts());
  std::vector<std::uint64_t> keys;
  {
    const std::vector<std::uint64_t> star_keys = SortedKeys(m_star.counts());
    keys.reserve(star_keys.size() + prime_keys.size());
    std::set_union(star_keys.begin(), star_keys.end(), prime_keys.begin(),
                   prime_keys.end(), std::back_inserter(keys));
  }
  const auto in_range = [k_max](std::uint32_t k, std::uint32_t kp) {
    return k >= 1 && kp >= 1 && k <= k_max && kp <= k_max;
  };
  const auto make_entry = [&](std::uint32_t k, std::uint32_t kp,
                              std::int64_t value) {
    return RowEntry{kp, value, m_prime.At(k, kp),
                    ImmediateEstimate(est, k, kp)};
  };
  FlatRows index;
  index.rows.resize(k_max + 1);
  for (const std::uint64_t key : keys) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (in_range(k, kp)) ++index.rows[k].cap;
  }
  std::size_t total = 0;
  for (FlatRows::Row& row : index.rows) {
    row.begin = total;
    total += row.cap;
  }
  index.entries.resize(total);
  for (const std::uint64_t key : keys) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (!in_range(k, kp)) continue;
    *index.Last(k) = make_entry(k, kp, m_star.At(k, kp));
    ++index.rows[k].size;
  }
  keys = {};

  // An absent entry has m* = 0: it enters at 0 and then moves.
  const auto add = [&](std::uint32_t k, std::uint32_t kp, int delta) {
    m_star.AddSymmetric(k, kp, delta);
    index.Find(k, kp, [&] { return make_entry(k, kp, 0); }).value += delta;
    if (kp != k) {
      index.Find(kp, k, [&] { return make_entry(kp, k, 0); }).value += delta;
    }
  };

  // D''_-(k): degrees k' != k with m*(k,k') > m'(k,k'), minimizing
  // Δ-(k,k'); ties uniformly random. Returns true and sets `out` when
  // non-empty.
  TieSet ties;
  const auto pick_decrement = [&](std::uint32_t k, std::uint32_t& out) {
    const RowEntry* row = index.First(k);
    ties.Reset();
    for (std::uint32_t i = 0; i < index.rows[k].size; ++i) {
      const RowEntry& e = row[i];
      if (e.col == k || e.value <= e.floor) continue;
      ties.Offer(DeltaFromEstimate(e.estimate, e.value, -1), i);
    }
    if (ties.members.empty()) return false;
    out = row[PickRandom(ties.members, rng)].col;
    return true;
  };

  // Pairs with m'(k1,k2) = 0 never need raising, so the walk visits only
  // m′'s nonzero pairs k1 <= k2, ascending.
  for (const std::uint64_t key : prime_keys) {
    const auto k1 = static_cast<std::uint32_t>(key >> 32);
    const auto k2 = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (k1 == 0 || k1 > k2 || k2 > k_max) continue;
    const std::int64_t floor = m_prime.counts().at(key);
    while (m_star.At(k1, k2) < floor) {
      add(k1, k2, +1);
      std::uint32_t k3 = 0;
      std::uint32_t k4 = 0;
      const bool found3 = pick_decrement(k1, k3);
      if (found3) add(k1, k3, -1);
      const bool found4 = pick_decrement(k2, k4);
      if (found4) add(k2, k4, -1);
      if (found3 && found4) add(k3, k4, +1);
    }
  }
}

}  // namespace

double JdmDelta(const LocalEstimates& est, std::uint32_t k,
                std::uint32_t k_prime, std::int64_t current, int direction) {
  return DeltaFromEstimate(ImmediateEstimate(est, k, k_prime), current,
                           direction);
}

JointDegreeMatrix BuildTargetJdmFromEstimates(const LocalEstimates& est,
                                              DegreeVector& n_star,
                                              Rng& rng) {
  JointDegreeMatrix m_star = InitializeJdm(est);
  AdjustJdm(est, n_star, m_star, JointDegreeMatrix(), rng);
  return m_star;
}

JointDegreeMatrix BuildTargetJdm(const LocalEstimates& est,
                                 DegreeVector& n_star,
                                 const JointDegreeMatrix& m_prime, Rng& rng) {
  JointDegreeMatrix m_star = InitializeJdm(est);
  AdjustJdm(est, n_star, m_star, JointDegreeMatrix(), rng);
  ModifyJdm(est, static_cast<std::uint32_t>(n_star.size() - 1), m_star,
            m_prime, rng);
  if (!m_star.SatisfiesJdm3(n_star)) {
    // The modification broke some row sums; re-adjust with the subgraph
    // class edges as hard lower limits so JDM-4 survives (Section IV-C).
    AdjustJdm(est, n_star, m_star, m_prime, rng);
  }
  assert(m_star.SatisfiesJdm1());
  assert(m_star.SatisfiesJdm2());
  assert(m_star.SatisfiesJdm3(n_star));
  assert(m_star.Dominates(m_prime));
  return m_star;
}

}  // namespace sgr
