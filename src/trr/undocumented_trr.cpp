#include "trr/undocumented_trr.h"

#include <algorithm>
#include <stdexcept>

namespace hbmrd::trr {

UndocumentedTrr::UndocumentedTrr(TrrParams params) : p_(params) {
  if (p_.trr_ref_interval < 1 || p_.sampler_capacity < 0 ||
      p_.pending_capacity < 1) {
    throw std::invalid_argument("UndocumentedTrr: bad parameters");
  }
}

void UndocumentedTrr::latch_pending(int physical_row) {
  if (std::find(pending_.begin(), pending_.end(), physical_row) !=
      pending_.end()) {
    return;
  }
  pending_.push_back(physical_row);
  while (static_cast<int>(pending_.size()) > p_.pending_capacity) {
    pending_.erase(pending_.begin());
  }
}

void UndocumentedTrr::count_activations(int physical_row,
                                        std::uint64_t count) {
  const auto counted =
      std::find_if(window_counts_.begin(), window_counts_.end(),
                   [physical_row](const auto& e) {
                     return e.first == physical_row;
                   });
  if (counted != window_counts_.end()) {
    counted->second += count;
  } else {
    window_counts_.emplace_back(physical_row, count);
  }
  window_total_ += count;
}

void UndocumentedTrr::on_activate(int physical_row, dram::Cycle /*now*/) {
  count_activations(physical_row, 1);
  if (first_act_armed_) {
    first_act_armed_ = false;
    first_act_row_ = physical_row;
  }
  // Move-to-front recency sampler over distinct rows.
  const auto it = std::find(sampler_.begin(), sampler_.end(), physical_row);
  if (it != sampler_.end()) sampler_.erase(it);
  sampler_.insert(sampler_.begin(), physical_row);
  while (static_cast<int>(sampler_.size()) > p_.sampler_capacity) {
    sampler_.pop_back();
  }
}

void UndocumentedTrr::on_window(const dram::ActivationWindow& window) {
  if (window.rounds == 0 || window.rows.empty()) return;
  // Rows join window_counts_ in first-activation order, as per-step calls
  // would add them: on_refresh latches pending rows in that order.
  for (std::size_t i = 0; i < window.rows.size(); ++i) {
    count_activations(window.rows[i], window.acts[i] * window.rounds);
  }
  if (first_act_armed_) {
    first_act_armed_ = false;
    first_act_row_ = window.rows.front();
  }
  // Move-to-front over every step leaves the window's rows in last-ACT
  // order ahead of the old entries it did not touch; truncation to the
  // capacity only ever drops the tail. Built in place: keep the untouched
  // old entries that still fit, then shift them behind the recency list.
  const auto capacity = static_cast<std::size_t>(p_.sampler_capacity);
  const std::size_t fresh = std::min(capacity, window.recency.size());
  const auto touched = [&window](int row) {
    return std::find(window.rows.begin(), window.rows.end(), row) !=
           window.rows.end();
  };
  sampler_.erase(std::remove_if(sampler_.begin(), sampler_.end(), touched),
                 sampler_.end());
  const std::size_t kept = std::min(sampler_.size(), capacity - fresh);
  sampler_.resize(fresh + kept);
  std::move_backward(sampler_.begin(),
                     sampler_.begin() + static_cast<std::ptrdiff_t>(kept),
                     sampler_.end());
  std::copy_n(window.recency.begin(), fresh, sampler_.begin());
}

std::vector<int> UndocumentedTrr::on_refresh(std::uint64_t ref) {
  // Half-count rule, evaluated over the window between two REFs (Obsv. 27).
  for (const auto& [row, count] : window_counts_) {
    if (count * 2 > window_total_) latch_pending(row);
  }
  window_counts_.clear();
  window_total_ = 0;

  std::vector<int> victims;
  if (ref % static_cast<std::uint64_t>(p_.trr_ref_interval) == 0) {
    // TRR-capable REF: refresh both neighbours (Obsv. 25) of every detected
    // aggressor — the latched half-count rows, the first-ACT row, and the
    // recency sampler contents.
    std::vector<int> detected(pending_.begin(), pending_.end());
    if (first_act_row_) detected.push_back(*first_act_row_);
    detected.insert(detected.end(), sampler_.begin(), sampler_.end());
    std::sort(detected.begin(), detected.end());
    detected.erase(std::unique(detected.begin(), detected.end()),
                   detected.end());
    for (int row : detected) {
      victims.push_back(row - 1);
      victims.push_back(row + 1);
    }
    pending_.clear();
    first_act_row_.reset();
    first_act_armed_ = true;
  }
  return victims;
}

}  // namespace hbmrd::trr
