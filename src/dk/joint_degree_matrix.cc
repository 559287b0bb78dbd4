#include "dk/joint_degree_matrix.h"

#include <algorithm>
#include <cassert>

namespace sgr {

void JointDegreeMatrix::AddSymmetric(std::uint32_t k, std::uint32_t k_prime,
                                     std::int64_t delta) {
  if (delta == 0) return;
  auto apply = [this](std::uint64_t key, std::int64_t d) {
    auto [it, inserted] = counts_.try_emplace(key, 0);
    it->second += d;
    assert(it->second >= 0 && "joint degree matrix entry went negative");
    if (it->second == 0) counts_.erase(it);
  };
  apply(DegreePairKey(k, k_prime), delta);
  if (k != k_prime) apply(DegreePairKey(k_prime, k), delta);
}

void JointDegreeMatrix::SetSymmetric(std::uint32_t k, std::uint32_t k_prime,
                                     std::int64_t value) {
  assert(value >= 0);
  auto apply = [this](std::uint64_t key, std::int64_t v) {
    if (v == 0) {
      counts_.erase(key);
    } else {
      counts_[key] = v;
    }
  };
  apply(DegreePairKey(k, k_prime), value);
  if (k != k_prime) apply(DegreePairKey(k_prime, k), value);
}

std::vector<std::int64_t> JointDegreeMatrix::RowSums(
    std::uint32_t k_max) const {
  std::vector<std::int64_t> s(k_max + 1, 0);
  for (const auto& [key, count] : counts_) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    assert(k <= k_max && kp <= k_max);
    s[k] += (k == kp ? 2 : 1) * count;
  }
  return s;
}

std::int64_t JointDegreeMatrix::TotalEdges() const {
  std::int64_t total = 0;
  for (const auto& [key, count] : counts_) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (k <= kp) total += count;
  }
  return total;
}

std::uint32_t JointDegreeMatrix::MaxDegree() const {
  std::uint32_t best = 0;
  for (const auto& [key, count] : counts_) {
    if (count <= 0) continue;
    best = std::max(best, static_cast<std::uint32_t>(key >> 32));
  }
  return best;
}

bool JointDegreeMatrix::SatisfiesJdm1() const {
  return std::all_of(counts_.begin(), counts_.end(),
                     [](const auto& kv) { return kv.second >= 0; });
}

bool JointDegreeMatrix::SatisfiesJdm2() const {
  for (const auto& [key, count] : counts_) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (At(kp, k) != count) return false;
  }
  return true;
}

bool JointDegreeMatrix::SatisfiesJdm3(const DegreeVector& dv) const {
  const std::uint32_t k_max =
      std::max(MaxDegree(), static_cast<std::uint32_t>(
                                dv.empty() ? 0 : dv.size() - 1));
  const std::vector<std::int64_t> s = RowSums(k_max);
  for (std::uint32_t k = 1; k <= k_max; ++k) {
    const std::int64_t target =
        k < dv.size() ? static_cast<std::int64_t>(k) * dv[k] : 0;
    if (s[k] != target) return false;
  }
  return true;
}

bool JointDegreeMatrix::Dominates(const JointDegreeMatrix& lower) const {
  for (const auto& [key, count] : lower.counts()) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (At(k, kp) < count) return false;
  }
  return true;
}

}  // namespace sgr
