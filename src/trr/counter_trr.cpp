#include "trr/counter_trr.h"

#include <algorithm>
#include <stdexcept>

namespace hbmrd::trr {

CounterTrr::CounterTrr(CounterTrrParams params) : p_(params) {
  if (p_.trr_ref_interval < 1 || p_.table_entries < 1 ||
      p_.refresh_top < 1) {
    throw std::invalid_argument("CounterTrr: bad parameters");
  }
}

void CounterTrr::note(int physical_row, std::uint64_t count) {
  const auto it = counters_.find(physical_row);
  if (it != counters_.end()) {
    it->second += count;
    return;
  }
  if (static_cast<int>(counters_.size()) < p_.table_entries) {
    counters_[physical_row] = count;
    return;
  }
  // Table full: classic decrement step (bounded hardware).
  const std::uint64_t decrement =
      std::min(count, std::min_element(counters_.begin(), counters_.end(),
                                       [](const auto& a, const auto& b) {
                                         return a.second < b.second;
                                       })
                          ->second);
  for (auto iter = counters_.begin(); iter != counters_.end();) {
    if (iter->second <= decrement) {
      iter = counters_.erase(iter);
    } else {
      iter->second -= decrement;
      ++iter;
    }
  }
  if (count > decrement &&
      static_cast<int>(counters_.size()) < p_.table_entries) {
    counters_[physical_row] = count - decrement;
  }
}

void CounterTrr::on_activate(int physical_row, dram::Cycle /*now*/) {
  note(physical_row, 1);
}

void CounterTrr::on_window(const dram::ActivationWindow& window) {
  if (window.rounds == 0) return;
  for (std::size_t i = 0; i < window.rows.size(); ++i) {
    note(window.rows[i], window.acts[i] * window.rounds);
  }
}

std::vector<int> CounterTrr::on_refresh(std::uint64_t ref) {
  std::vector<int> victims;
  if (ref % static_cast<std::uint64_t>(p_.trr_ref_interval) != 0) {
    return victims;
  }
  // Refresh the neighbours of the top-count rows, then reset their
  // counters (they have been dealt with).
  std::vector<std::pair<std::uint64_t, int>> ranked;
  for (const auto& [row, count] : counters_) ranked.emplace_back(count, row);
  std::sort(ranked.rbegin(), ranked.rend());
  for (int i = 0; i < p_.refresh_top && i < static_cast<int>(ranked.size());
       ++i) {
    victims.push_back(ranked[static_cast<std::size_t>(i)].second - 1);
    victims.push_back(ranked[static_cast<std::size_t>(i)].second + 1);
    counters_.erase(ranked[static_cast<std::size_t>(i)].second);
  }
  return victims;
}

}  // namespace hbmrd::trr
