#include "dram/bank.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.h"

namespace hbmrd::dram {

namespace {

/// Slab indices of the flat row table are int16_t: every row fits.
static_assert(kRowsPerBank <= 32768);

/// Retention decay is only evaluated when a row went unrefreshed for longer
/// than this floor. Manufacturers guarantee no retention errors within the
/// 32 ms refresh window (Sec. 3.1); the floor sits just above tREFW so the
/// periodic refresh never pays retention scans, and just below the 34.8 ms
/// profiling duration of the paper's footnote 6.
constexpr double kRetentionFloorSeconds = 0.033;

/// Cells more than this many sigma below the row median are ignored when
/// the accumulated dose cannot plausibly reach them; deterministic early-out
/// for the per-cell threshold scan.
constexpr double kThresholdScanSigma = 6.0;

/// Row distances an activation disturbs (blast radius 2).
constexpr std::array<int, 4> kDistances = {-2, -1, 1, 2};

/// Calls f(slot, victim) for every row an activation of `aggressor`
/// disturbs: kDistances[slot] rows away, inside the bank, same subarray.
template <typename F>
void for_each_victim(int aggressor, F&& f) {
  for (std::size_t slot = 0; slot < kDistances.size(); ++slot) {
    const int victim = aggressor + kDistances[slot];
    if (victim < 0 || victim >= kRowsPerBank) continue;
    if (!same_subarray(aggressor, victim)) continue;
    f(slot, victim);
  }
}

/// Probability that a cell of a population with this threshold median and
/// sigma flips at `dose` (> 0): a threshold <= dose is equivalent to the
/// cell's raw uniform being <= Phi(ln(dose / median) / sigma).
double flip_probability(double dose, double median, double sigma) {
  return disturb::FaultModel::normal_cdf(std::log(dose / median) / sigma);
}

/// Flip probabilities of one dose, per threshold population.
struct DoseProb {
  double outlier_probability;
  double weak_probability;
  double bulk_probability;
};

/// Sets the mask bit of every cell at the head of a population's
/// sorted-by-uniform order whose uniform is <= `bound`.
void mark_prefix(const std::vector<int>& order, const std::vector<double>& u,
                 double bound, std::span<std::uint64_t> mask) {
  for (int bit : order) {
    if (u[static_cast<std::size_t>(bit)] > bound) break;
    mask[static_cast<std::size_t>(bit >> 6)] |= 1ull << (bit & 63);
  }
}

}  // namespace

/// Per-bank scratch for the sense/hammer hot paths; lazily allocated so
/// only banks that actually sense disturbed rows pay for it.
struct Bank::SenseArena {
  /// One group of the per-word dose-class split: the cells it covers,
  /// whether they see intra-row coupling, and the dose folded so far.
  struct Group {
    std::uint64_t mask;
    bool intra;
    double dose;
  };
  /// One materialized dose class: its coupled dose (before the temperature
  /// factor) and its flip probabilities.
  struct ClassEntry {
    double dose;
    DoseProb p;
  };

  /// Candidate cells of the sense in progress, one bit per cell. All zero
  /// between senses: the word loop clears each word it consumes.
  std::array<std::uint64_t, RowBits::kWords> candidates{};

  // Leaky plane and retention uniforms of min_retention_ref_seconds().
  std::array<std::uint64_t, RowBits::kWords> leaky_plane{};
  std::vector<double> retention_u;

  // Ping-pong buffers for the per-word class split (<= 64 non-empty
  // groups can exist at any stage: they partition 64 bits).
  std::array<Group, 64> group_a{};
  std::array<Group, 64> group_b{};
  std::vector<ClassEntry> classes;
  /// Per-epoch dose terms, indexed [same * 2 + intra].
  std::vector<std::array<double, 4>> epoch_terms;
  /// Per-epoch power_on_prefix of the aggressor, for null snapshots.
  std::vector<std::uint64_t> epoch_power_on;

  /// Row states of the hammer window being applied: each distinct row's
  /// and its victims' (null = not disturbed), resolved once per window.
  struct HammeredRow {
    RowState* state;
    std::array<RowState*, kDistances.size()> victims;
  };
  std::vector<HammeredRow> hammered;
};

Bank::Bank(BankAddress address, const disturb::FaultModel* fault_model,
           const Environment* env, TimingParams timing,
           disturb::BankThresholdCache& threshold_cache,
           CheckpointLadder& ladder, RefreshChannel& channel)
    : address_(address),
      fault_(fault_model),
      env_(env),
      timing_(timing),
      checker_(timing),
      ladder_(&ladder),
      channel_(&channel),
      threshold_cache_(&threshold_cache) {
  validate(address_);
  if (fault_ == nullptr || env_ == nullptr) {
    throw std::invalid_argument("Bank: fault model and environment required");
  }
}

Bank::Bank(Bank&&) noexcept = default;
Bank& Bank::operator=(Bank&&) noexcept = default;
Bank::~Bank() = default;

Bank::SenseArena& Bank::arena() {
  if (!arena_) arena_ = std::make_unique<SenseArena>();
  return *arena_;
}

void Bank::check_row(int physical_row) const {
  if (physical_row < 0 || physical_row >= kRowsPerBank) {
    throw std::out_of_range("physical row " + std::to_string(physical_row));
  }
}

Bank::RowState& Bank::state(int physical_row, Cycle now) {
  check_row(physical_row);
  if (slot_.empty()) slot_.assign(static_cast<std::size_t>(kRowsPerBank), -1);
  auto& slot = slot_[static_cast<std::size_t>(physical_row)];
  if (slot >= 0) {
    RowState& rs = rows_[static_cast<std::size_t>(slot)];
    cow_touch(rs);
    return rs;
  }
  slot = static_cast<std::int16_t>(rows_.size());
  RowState& rs = rows_.emplace_back();
  rs.row = physical_row;
  rs.last_restore = now;
  if (!layers_.empty()) {
    // The row had no state at push time: record an erase pre-image.
    layers_.back().pre.emplace_back(physical_row, std::nullopt);
    rs.cow_epoch = cow_epoch_;
  }
  return rs;
}

Bank::RowState* Bank::find_state(int physical_row) {
  const int slot = slot_of(physical_row);
  if (slot < 0) return nullptr;
  RowState& rs = rows_[static_cast<std::size_t>(slot)];
  cow_touch(rs);
  return &rs;
}

void Bank::erase_state(int physical_row) {
  const int slot = slot_of(physical_row);
  if (slot < 0) return;
  const auto index = static_cast<std::size_t>(slot);
  if (index + 1 != rows_.size()) {
    rows_[index] = std::move(rows_.back());
    slot_[static_cast<std::size_t>(rows_[index].row)] =
        static_cast<std::int16_t>(slot);
  }
  rows_.pop_back();
  slot_[static_cast<std::size_t>(physical_row)] = -1;
}

const RowBits& Bank::contents(RowState& rs) {
  if (!rs.bits) {
    auto bits = std::make_shared<RowBits>();
    auto words = bits->words();
    // A cached summary carries the row's power-on plane verbatim; a cached
    // row skips the per-word hash pass.
    const disturb::RowThresholdSummary* cached = threshold_cache_->peek(rs.row);
    if (cached != nullptr) {
      std::copy(cached->power_on.begin(), cached->power_on.end(),
                words.begin());
    } else {
      fault_->fill_power_on_row(address_, rs.row, words);
    }
    rs.bits = std::move(bits);
  }
  return *rs.bits;
}

const disturb::DoseLedger* Bank::ledger(int physical_row) const {
  const int slot = slot_of(physical_row);
  return slot < 0 ? nullptr : &rows_[static_cast<std::size_t>(slot)].ledger;
}

std::optional<Bank::StoredRow> Bank::stored_row(int physical_row) const {
  const int slot = slot_of(physical_row);
  if (slot < 0) return std::nullopt;
  const RowState& rs = rows_[static_cast<std::size_t>(slot)];
  StoredRow stored{{}, rs.last_restore};
  if (rs.bits) {
    stored.bits = *rs.bits;
  } else {
    fault_->fill_power_on_row(address_, physical_row, stored.bits.words());
  }
  return stored;
}

void CheckpointLadder::restore(std::size_t index) {
  if (index >= depth_) {
    throw std::out_of_range("restore_checkpoint: no such checkpoint");
  }
  for (Bank* bank : banks_) bank->rewind_to(index);
  std::erase_if(banks_,
                [](const Bank* bank) { return bank->layers_.empty(); });
  depth_ = index + 1;
}

void CheckpointLadder::discard() {
  for (Bank* bank : banks_) bank->drop_layers();
  banks_.clear();
  depth_ = 0;
}

int RefreshChannel::refresh_pointer() const {
  const auto rows = static_cast<std::uint64_t>(kRowsPerBank);
  return static_cast<int>(clock_.refs % rows *
                          static_cast<std::uint64_t>(rows_per_ref_) % rows);
}

void RefreshChannel::refresh(Cycle now) {
  for (const Bank* bank : banks_) bank->checker_.check_refresh(now);
  const int first_row = refresh_pointer();
  clock_.on_refresh(now, timing_);
  ++issued_;
  for (Bank* bank : banks_) bank->refresh(now, clock_.refs, first_row);
}

void Bank::open_layer() {
  // Nothing changed since the push of the top rung: the current scalars
  // are the pushed ones.
  if (layers_.empty()) ladder_->banks_.push_back(this);
  const std::size_t rung = ladder_->depth_ - 1;
  layers_.push_back(CheckpointLayer{rung, {}, open_row_, checker_,
                                    defense_ ? defense_->clone() : nullptr});
  layer_top_ = rung + 1;
  ++cow_epoch_;  // invalidate all cow tags: pre-images go to the new layer
}

void Bank::rewind_to(std::size_t rung) {
  std::size_t oldest = layers_.size();
  while (oldest > 0 && layers_[oldest - 1].rung >= rung) --oldest;
  if (oldest == layers_.size()) return;  // untouched since that push
  // Apply pre-images newest layer first; older layers overwrite, so every
  // row lands on its value as of the target push.
  for (std::size_t j = layers_.size(); j-- > oldest;) {
    for (auto& [row, pre] : layers_[j].pre) {
      if (!pre) {
        erase_state(row);
        continue;
      }
      const int slot = slot_of(row);
      if (slot < 0) {
        // slot_ exists: a pre-image was recorded from a live state.
        slot_[static_cast<std::size_t>(row)] =
            static_cast<std::int16_t>(rows_.size());
        rows_.push_back(std::move(*pre));
        continue;
      }
      RowState& current = rows_[static_cast<std::size_t>(slot)];
      if (pre->min_retention_ref_s < 0) {
        // The retention floor is a pure function of the row's fixed cell
        // parameters, so a value computed after the push is still valid
        // before it — keep it instead of rescanning 8K cells per probe.
        pre->min_retention_ref_s = current.min_retention_ref_s;
      }
      current = std::move(*pre);
    }
  }
  // The oldest undone layer holds the scalars as of the target push; its
  // defense clone moves back (the next mutation clones it again, which
  // keeps the rung restorable). counters_ deliberately keeps counting
  // (represented work is monotone).
  CheckpointLayer& target = layers_[oldest];
  open_row_ = target.open_row;
  checker_ = target.checker;
  if (target.defense) defense_ = std::move(target.defense);
  layers_.erase(layers_.begin() + static_cast<std::ptrdiff_t>(oldest),
                layers_.end());
  layer_top_ = layers_.empty() ? 0 : layers_.back().rung + 1;
}

void Bank::drop_layers() {
  layers_.clear();
  layer_top_ = 0;
}

void Bank::drop_row_states() {
  if (ladder_->depth_ != 0) {
    throw std::logic_error(
        "drop_row_states: checkpoints active (no layer would rewind it)");
  }
  rows_.clear();
  slot_.clear();
}

int Bank::open_row() const {
  if (!open_row_) throw std::logic_error("open_row: bank is precharged");
  return *open_row_;
}

void Bank::sense_and_restore(int physical_row, RowState& row, Cycle now) {
  const double elapsed_s = cycles_to_seconds(now - row.last_restore);
  bool check_retention = elapsed_s > kRetentionFloorSeconds;
  bool check_disturb = !row.ledger.empty();
  const double temp = env_->temperature_c;
  if (check_retention) {
    // One cheap scan per row lifetime caches the row's weakest retention;
    // senses below it skip the per-cell retention pass entirely. A cached
    // summary (if the row's is already built) carries the identical value.
    if (row.min_retention_ref_s < 0.0) {
      const disturb::RowThresholdSummary* cached =
          threshold_cache_->peek(physical_row);
      row.min_retention_ref_s = cached
                                    ? cached->min_retention_ref_s
                                    : min_retention_ref_seconds(physical_row);
    }
    const auto& params = fault_->params();
    const double min_at_temp =
        row.min_retention_ref_s *
        std::exp2((params.retention_ref_temp_c - temp) /
                  params.retention_halving_c);
    if (elapsed_s < min_at_temp) check_retention = false;
  }

  double max_dose = 0.0;
  const double temp_vuln = fault_->temperature_vulnerability(temp);
  if (check_disturb) {
    // Upper bound of any cell's effective dose: full coupling, intra bonus.
    const double max_coupling = 1.0 + fault_->params().coupling_intra_bonus;
    for (const auto& e : row.ledger.epochs()) {
      max_dose += e.dose() * fault_->distance_factor(e.distance);
    }
    max_dose *= max_coupling * temp_vuln;
    // Cheapest deterministic early-out: below the chip-wide threshold
    // floor nothing can flip, and the per-row context is not even needed
    // (the common case for pointer refreshes and benign traffic).
    if (max_dose < fault_->global_threshold_floor()) {
      check_disturb = false;
    }
  }
  if (!check_retention && !check_disturb) {
    row.ledger.clear();
    row.last_restore = now;
    return;
  }

  const disturb::RowContext ctx = fault_->row_context(address_, physical_row);
  if (check_disturb) {
    // Per-row refinement: no cell of this row can have a threshold below
    // weak_median * exp(-kThresholdScanSigma * sigma) of the widest
    // population (the outliers reach deepest).
    const double widest_sigma = std::max(ctx.weak_sigma, ctx.outlier_sigma);
    if (max_dose <
        ctx.weak_median * std::exp(-kThresholdScanSigma * widest_sigma)) {
      check_disturb = false;
    }
  }

  // Retention: one failure-probability threshold per population; a
  // population with a zero threshold cannot flip.
  double leaky_u_max = 0.0;
  double normal_u_max = 0.0;
  if (check_retention) {
    auto u_max = [&](bool leaky) {
      const double med = fault_->retention_median_seconds(leaky, temp);
      const double s = fault_->retention_sigma(leaky);
      return disturb::FaultModel::normal_cdf(std::log(elapsed_s / med) / s);
    };
    leaky_u_max = u_max(true);
    normal_u_max = u_max(false);
    if (leaky_u_max <= 0.0 && normal_u_max <= 0.0) check_retention = false;
  }
  if (!check_retention && !check_disturb) {
    row.ledger.clear();
    row.last_restore = now;
    return;
  }

  // Candidate mask: per population, the sorted-by-uniform prefix of cells
  // that the conservative bounds cannot rule out. The decisions below are
  // exact for any superset of the flipping cells, so one union mask serves
  // retention and disturbance alike.
  const disturb::RowThresholdSummary& summary =
      threshold_cache_->get(*fault_, physical_row);
  SenseArena& a = arena();
  if (check_retention) {
    // A cell loses its charge only if its retention uniform is <= its
    // population's u_max; the prefixes cover exactly those cells.
    if (leaky_u_max > 0.0) {
      mark_prefix(summary.leaky_by_u, summary.retention_u, leaky_u_max,
                  a.candidates);
    }
    if (normal_u_max > 0.0) {
      mark_prefix(summary.normal_by_u, summary.retention_u, normal_u_max,
                  a.candidates);
    }
  }
  if (check_disturb) {
    // A cell's effective dose is bounded by max_dose (full coupling, intra
    // bonus — the same bound the early-outs use), so its flip probability
    // is bounded by its population's CDF at max_dose. The bound dose is
    // inflated by 1e-9 to absorb the ulp-level difference between per-term
    // and post-sum coupling rounding, keeping the prefix a strict superset
    // of the row's flips.
    const double dose_bound = max_dose * (1.0 + 1e-9);
    const double outlier_bound =
        flip_probability(dose_bound, ctx.outlier_median, ctx.outlier_sigma);
    const double weak_bound =
        flip_probability(dose_bound, ctx.weak_median, ctx.weak_sigma);
    const double bulk_bound =
        flip_probability(dose_bound, ctx.bulk_median, ctx.bulk_sigma);
    if (outlier_bound > 0.0) {
      mark_prefix(summary.outlier_by_u, summary.cell_u, outlier_bound,
                  a.candidates);
    }
    if (weak_bound > 0.0) {
      mark_prefix(summary.weak_by_u, summary.cell_u, weak_bound, a.candidates);
    }
    if (bulk_bound > 0.0) {
      mark_prefix(summary.bulk_by_u, summary.cell_u, bulk_bound, a.candidates);
    }
  }

  // Word loop over the non-empty mask words: per-cell predicates become
  // 64-wide mask operations, the candidates' dose folds collapse into a
  // handful of dose classes per word, and flips apply as one XOR per word.
  // Flips are decided against the pre-sense contents, read in place; they
  // go into a fresh buffer, copied at the first flipping word, so one flip
  // never changes a neighbouring cell's intra-row coupling mid-scan and
  // buffers shared with dose epochs or pre-images stay intact.
  const std::uint64_t* sw =
      row.bits ? row.bits->words().data() : summary.power_on.data();
  std::shared_ptr<RowBits> sensed;
  const auto& epochs = row.ledger.epochs();
  const std::size_t n_epochs = epochs.size();
  a.classes.clear();
  if (check_disturb) {
    // Term-by-term the same products as the per-cell fold; coupling depends
    // only on victim/aggressor equality, so coupling(true, same, intra)
    // yields the identical double.
    a.epoch_terms.resize(n_epochs);
    a.epoch_power_on.resize(n_epochs);
    for (std::size_t ei = 0; ei < n_epochs; ++ei) {
      const auto& e = epochs[ei];
      for (int k = 0; k < 4; ++k) {
        a.epoch_terms[ei][static_cast<std::size_t>(k)] =
            e.dose() * fault_->distance_factor(e.distance) *
            fault_->coupling(true, (k & 2) != 0, (k & 1) != 0);
      }
      // A null snapshot is the power-on contents of the aggressor, row
      // victim + distance.
      if (!e.aggressor_bits) {
        a.epoch_power_on[ei] =
            fault_->power_on_prefix(address_, physical_row + e.distance);
      }
    }
  }
  // Each distinct class dose costs one normal_cdf per population.
  auto class_probs = [&](double dose) -> DoseProb {
    for (const auto& c : a.classes) {
      if (c.dose == dose) return c.p;
    }
    DoseProb p{0.0, 0.0, 0.0};
    const double coupled = dose * temp_vuln;
    if (coupled > 0.0) {
      p.outlier_probability =
          flip_probability(coupled, ctx.outlier_median, ctx.outlier_sigma);
      p.weak_probability =
          flip_probability(coupled, ctx.weak_median, ctx.weak_sigma);
      p.bulk_probability =
          flip_probability(coupled, ctx.bulk_median, ctx.bulk_sigma);
    }
    a.classes.push_back({dose, p});
    return p;
  };

  for (int w = 0; w < RowBits::kWords; ++w) {
    const auto wi = static_cast<std::size_t>(w);
    const std::uint64_t mask = a.candidates[wi];
    if (mask == 0) continue;
    a.candidates[wi] = 0;
    ++counters_.sense_word_ops;
    counters_.sense_cells_visited +=
        static_cast<std::uint64_t>(std::popcount(mask));
    const std::uint64_t v = sw[wi];
    const std::uint64_t charged = mask & ~(v ^ summary.true_plane[wi]);
    std::uint64_t flips = 0;

    if (check_retention) {
      const std::uint64_t lk = summary.leaky_plane[wi];
      std::uint64_t cand = charged;
      if (leaky_u_max <= 0.0) cand &= ~lk;
      if (normal_u_max <= 0.0) cand &= lk;
      while (cand != 0) {
        const int b = std::countr_zero(cand);
        cand &= cand - 1;
        const double u_max = ((lk >> b) & 1u) ? leaky_u_max : normal_u_max;
        if (summary.retention_u[static_cast<std::size_t>(w * 64 + b)] <=
            u_max) {
          flips |= 1ull << b;
        }
      }
    }

    const std::uint64_t cand = charged & ~flips;
    if (check_disturb && cand != 0) {
      // Neighbour planes with cross-word carries; edge cells borrow their
      // own value (differs = 0), matching the per-cell oracle.
      std::uint64_t left = v << 1;
      left |= w > 0 ? sw[wi - 1] >> 63 : v & 1ull;
      std::uint64_t right = v >> 1;
      right |= (w + 1 < RowBits::kWords ? sw[wi + 1] & 1ull
                                        : (v >> 63) & 1ull)
               << 63;
      const std::uint64_t intra = (v ^ left) | (v ^ right);

      // Split the word's candidates into dose classes: first on intra-row
      // coupling, then on each epoch in ledger order, adding that epoch's
      // term — the per-cell fold's summation order, so each group's dose
      // is bit-identical to its cells' folded doses.
      SenseArena::Group* cur = a.group_a.data();
      SenseArena::Group* nxt = a.group_b.data();
      int n_cur = 0;
      if ((cand & intra) != 0) cur[n_cur++] = {cand & intra, true, 0.0};
      if ((cand & ~intra) != 0) cur[n_cur++] = {cand & ~intra, false, 0.0};
      for (std::size_t ei = 0; ei < n_epochs; ++ei) {
        const auto& aggressor = epochs[ei].aggressor_bits;
        const std::uint64_t aggressor_word =
            aggressor ? aggressor->words()[wi]
                      : disturb::FaultModel::power_on_word_at(
                            a.epoch_power_on[ei], w);
        const std::uint64_t same = ~(v ^ aggressor_word);
        const auto& terms = a.epoch_terms[ei];
        int n_nxt = 0;
        for (int g = 0; g < n_cur; ++g) {
          const SenseArena::Group& grp = cur[g];
          const std::uint64_t m1 = grp.mask & same;
          const std::uint64_t m0 = grp.mask & ~same;
          const std::size_t k = grp.intra ? 1 : 0;
          if (m1 != 0) nxt[n_nxt++] = {m1, grp.intra, grp.dose + terms[2 + k]};
          if (m0 != 0) nxt[n_nxt++] = {m0, grp.intra, grp.dose + terms[k]};
        }
        std::swap(cur, nxt);
        n_cur = n_nxt;
      }
      counters_.sense_word_ops += n_epochs;

      for (int g = 0; g < n_cur; ++g) {
        const DoseProb p = class_probs(cur[g].dose);
        const double p_max = std::max(
            {p.outlier_probability, p.weak_probability, p.bulk_probability});
        if (p_max <= 0.0) continue;
        std::uint64_t m = cur[g].mask;
        while (m != 0) {
          const int b = std::countr_zero(m);
          m &= m - 1;
          const double u = summary.cell_u[static_cast<std::size_t>(w * 64 + b)];
          // Sound screen: every population's probability <= p_max.
          if (u > p_max) continue;
          double probability = p.bulk_probability;
          if ((summary.outlier_plane[wi] >> b) & 1u) {
            probability = p.outlier_probability;
          } else if ((summary.weak_plane[wi] >> b) & 1u) {
            probability = p.weak_probability;
          }
          if (probability > 0.0 && u <= probability) flips |= 1ull << b;
        }
      }
    }

    if (flips != 0) {
      if (!sensed) {
        sensed = std::make_shared<RowBits>();
        std::copy(sw, sw + RowBits::kWords, sensed->words().begin());
      }
      // Flips only discharge charged cells, so the XOR is exactly the
      // per-cell set(bit, !value).
      sensed->words()[wi] ^= flips;
      counters_.bitflips_materialized +=
          static_cast<std::uint64_t>(std::popcount(flips));
    }
  }
  if (sensed) {
    row.bits = std::move(sensed);
    ++row.version;
  }

  row.ledger.clear();
  row.last_restore = now;
}

double Bank::min_retention_ref_seconds(int physical_row) {
  const auto& params = fault_->params();
  // Word-batched: one hoisted hash prefix per property instead of two
  // hash_key folds per cell; the resulting uniforms are bit-identical.
  const auto prefixes = fault_->row_hash_prefixes(address_, physical_row);
  SenseArena& a = arena();
  disturb::FaultModel::fill_membership_plane(
      prefixes.leaky, params.leaky_cell_fraction, a.leaky_plane);
  a.retention_u.resize(static_cast<std::size_t>(kRowBits));
  disturb::FaultModel::fill_retention_uniform_row(
      prefixes.leaky_retention, prefixes.normal_retention, a.leaky_plane,
      a.retention_u);
  counters_.sense_word_ops +=
      static_cast<std::uint64_t>(2 * RowBits::kWords);
  double min_u_leaky = 2.0;
  double min_u_normal = 2.0;
  for (int bit = 0; bit < kRowBits; ++bit) {
    const double u = a.retention_u[static_cast<std::size_t>(bit)];
    if ((a.leaky_plane[static_cast<std::size_t>(bit >> 6)] >> (bit & 63)) &
        1u) {
      min_u_leaky = std::min(min_u_leaky, u);
    } else {
      min_u_normal = std::min(min_u_normal, u);
    }
  }
  double minimum = std::numeric_limits<double>::max();
  if (min_u_leaky <= 1.0) {
    minimum = std::min(
        minimum, params.leaky_retention_median_s *
                     std::exp(params.leaky_retention_sigma *
                              util::inverse_normal_cdf(
                                  std::max(1e-300, min_u_leaky))));
  }
  if (min_u_normal <= 1.0) {
    minimum = std::min(
        minimum, params.normal_retention_median_s *
                     std::exp(params.normal_retention_sigma *
                              util::inverse_normal_cdf(
                                  std::max(1e-300, min_u_normal))));
  }
  return minimum;
}

void Bank::disturb_neighbors(int aggressor_row, double dose, Cycle now) {
  // With room reserved, creating a victim state cannot move the table, so
  // every pointer below stays valid.
  reserve_states(kDistances.size());
  std::array<RowState*, kDistances.size()> victims{};
  for_each_victim(aggressor_row, [&](std::size_t slot, int victim) {
    victims[slot] = &state(victim, now);
  });
  RowState* aggr = find_state(aggressor_row);
  if (aggr == nullptr) {
    throw std::logic_error("disturb_neighbors: aggressor has no state");
  }
  for (std::size_t slot = 0; slot < kDistances.size(); ++slot) {
    // The epoch records the aggressor's position relative to the victim.
    if (victims[slot] != nullptr) {
      victims[slot]->ledger.add(-kDistances[slot], aggr->version, aggr->bits,
                                dose);
    }
  }
}

void Bank::activate(int physical_row, Cycle now) {
  check_row(physical_row);
  cover_top_rung();
  checker_.on_activate(now, channel_->clock());
  ++counters_.activations;
  open_row_ = physical_row;
  RowState& rs = state(physical_row, now);
  sense_and_restore(physical_row, rs, now);
  if (defense_) defense_->on_activate(physical_row, now);
}

void Bank::precharge(Cycle now) {
  if (!open_row_) {
    checker_.on_precharge(now);  // legal no-op
    return;
  }
  cover_top_rung();
  const Cycle on_cycles = now - checker_.open_since();
  checker_.on_precharge(now);
  const int aggressor = *open_row_;
  open_row_.reset();
  disturb_neighbors(aggressor, fault_->taggon_factor(on_cycles), now);
}

void Bank::read_column(int column, std::span<std::uint64_t> out, Cycle now) {
  cover_top_rung();
  checker_.on_read(now);
  contents(*find_state(open_row())).get_column(column, out);
}

void Bank::write_column(int column, std::span<const std::uint64_t> data,
                        Cycle now) {
  cover_top_rung();
  checker_.on_write(now);
  RowState& rs = *find_state(open_row());
  // Copy on write: dose epochs and checkpoint pre-images may share the
  // current buffer.
  if (rs.bits.use_count() > 1) rs.bits = std::make_shared<RowBits>(*rs.bits);
  (void)contents(rs);
  rs.bits->set_column(column, data);
  ++rs.version;
}

void Bank::refresh_row(int physical_row, Cycle now) {
  check_row(physical_row);
  cover_top_rung();
  if (RowState* rs = find_state(physical_row)) {
    sense_and_restore(physical_row, *rs, now);
  }
  // Rows without state are implicitly fully charged; nothing to do.
}

void Bank::refresh(Cycle now, std::uint64_t ref, int first_row) {
  cover_top_rung();
  // A listed bank may hold no row state (yet, or after drop_row_states).
  if (!rows_.empty()) {
    for (int i = 0; i < channel_->rows_per_ref_; ++i) {
      const int row = (first_row + i) % kRowsPerBank;
      if (RowState* rs = find_state(row)) sense_and_restore(row, *rs, now);
    }
  }
  if (defense_) {
    for (int victim : defense_->on_refresh(ref)) {
      if (victim < 0 || victim >= kRowsPerBank) continue;
      ++counters_.defense_victim_refreshes;
      refresh_row(victim, now);
      // A TRR victim refresh is a row activation in silicon, so it
      // disturbs the refreshed row's own neighbours — the HalfDouble
      // vector of Sec. 8.1. (Pointer refreshes are modeled as
      // disturbance-free to keep long refresh runs O(touched rows);
      // their per-row rate is 2 per tREFW and physically negligible.)
      if (slot_of(victim) >= 0) {
        disturb_neighbors(victim, fault_->taggon_factor(timing_.t_ras), now);
      }
    }
  }
}

HammerPlan Bank::plan(std::vector<HammerStep> steps) const {
  if (steps.empty()) throw std::invalid_argument("bulk_hammer: no steps");
  for (const auto& s : steps) {
    check_row(s.row);
    if (s.on_cycles < timing_.t_ras) {
      throw TimingViolation("bulk_hammer: on-time below tRAS");
    }
  }
  HammerPlan p;
  p.steps_ = std::move(steps);
  const auto& st = p.steps_;

  // Canonical per-round layout: step k activates, stays open for its
  // on-time, precharges; the next ACT follows after max(tRP, tRC slack).
  p.act_offset_.resize(st.size());
  Cycle t = 0;
  Cycle prev_act = 0;
  for (std::size_t k = 0; k < st.size(); ++k) {
    if (k > 0) {
      t = std::max(t + timing_.t_rp, prev_act + timing_.t_rc);
    }
    p.act_offset_[k] = t;
    prev_act = t;
    t += st[k].on_cycles;  // PRE happens at t (>= ACT + tRAS)
  }
  // Period: distance between round starts; honours tRP after the last PRE
  // and tRC from the last ACT to the next round's first ACT.
  p.period_ = std::max(t + timing_.t_rp, prev_act + timing_.t_rc);

  // Distinct rows in first-activation order (refresh-window bursts repeat
  // the same aggressors and dummies dozens of times), and the window's
  // dose folded per (row, unit) in first-step order. For one victim every
  // aggressor row sits at one distance, so a folded entry lands in the
  // same (distance, version, unit) epoch its steps would, and ledger
  // counts are integers: the fold changes no epoch, order or count.
  for (std::size_t k = 0; k < st.size(); ++k) {
    std::size_t r = 0;
    while (r < p.rows_.size() && p.rows_[r].row != st[k].row) ++r;
    if (r == p.rows_.size()) {
      p.rows_.push_back({st[k].row, p.act_offset_[k], p.act_offset_[k], {}});
    } else {
      p.rows_[r].last_offset = p.act_offset_[k];
    }
    const double unit = fault_->taggon_factor(st[k].on_cycles);
    const auto row = static_cast<std::uint32_t>(r);
    auto dose = std::find_if(p.doses_.begin(), p.doses_.end(),
                             [&](const HammerPlan::Dose& d) {
                               return d.row == row && d.unit == unit;
                             });
    if (dose == p.doses_.end()) {
      p.doses_.push_back({row, unit, 1});
    } else {
      ++dose->count;
    }
  }

  // Victims: hammered rows restore themselves every round, so their
  // residual dose is dropped (see apply()) and they are no one's victim.
  static_assert(std::tuple_size_v<decltype(HammerPlan::Row::victims)> ==
                kDistances.size());
  const auto hammered = [&p](int row) {
    return std::any_of(p.rows_.begin(), p.rows_.end(),
                       [row](const HammerPlan::Row& r) { return r.row == row; });
  };
  for (auto& hr : p.rows_) {
    hr.victims.fill(-1);
    for_each_victim(hr.row, [&](std::size_t slot, int victim) {
      if (!hammered(victim)) hr.victims[slot] = victim;
    });
  }

  // The defense's view of one round (see ActivationWindow), only for a
  // bank that has a defense: a bank without one plans nothing more.
  if (defense_) {
    const std::size_t n = p.rows_.size();
    p.defense_rows_.reserve(n);
    for (const auto& hr : p.rows_) p.defense_rows_.push_back(hr.row);
    p.defense_acts_.assign(n, 0);
    for (const auto& dose : p.doses_) p.defense_acts_[dose.row] += dose.count;
    // Last-ACT order: the distinct rows of the steps read backwards.
    p.defense_recency_.reserve(n);
    for (std::size_t k = st.size(); k-- > 0;) {
      if (std::find(p.defense_recency_.begin(), p.defense_recency_.end(),
                    st[k].row) == p.defense_recency_.end()) {
        p.defense_recency_.push_back(st[k].row);
      }
    }
  }
  return p;
}

Cycle Bank::apply(const HammerPlan& plan, std::uint64_t iterations,
                  Cycle start) {
  if (iterations == 0) throw std::invalid_argument("bulk_hammer: 0 iters");
  if (open_row_) throw TimingViolation("bulk_hammer: bank must be precharged");

  cover_top_rung();

  // The plan's schedule is legal by construction (every step honours
  // tRAS, tRP and tRC, and the period separates rounds), so only the
  // first ACT is checked against the bank's history; the checker then
  // records the last round's final ACT and PRE.
  const auto& steps = plan.steps_;
  const Cycle last_round = start + (iterations - 1) * plan.period_;
  const Cycle last_act = last_round + plan.act_offset_.back();
  checker_.on_window(start, last_act, last_act + steps.back().on_cycles,
                     channel_->clock());
  const Cycle end = last_round + plan.period_;

  ++counters_.bulk_hammer_windows;
  counters_.hammer_dedup_hits +=
      static_cast<std::uint64_t>(steps.size() - plan.rows_.size());

  // Resolve every row state once. The table may grow by the window's rows
  // and their victims; reserving that room first keeps each reference
  // state() returns valid to the end of the window (no state is erased
  // here: only a checkpoint rewind or drop_row_states erases).
  reserve_states(plan.rows_.size() * (1 + kDistances.size()));
  auto& resolved = arena().hammered;
  resolved.resize(plan.rows_.size());
  // Sense every hammered row once at its first activation, so pre-existing
  // dose materializes before the burst restores it. (Later activations of
  // the same row within the burst sense a just-restored row: a no-op.)
  for (std::size_t r = 0; r < plan.rows_.size(); ++r) {
    const auto& hr = plan.rows_[r];
    RowState& rs = state(hr.row, start);
    sense_and_restore(hr.row, rs, start + hr.first_offset);
    resolved[r].state = &rs;
  }
  for (std::size_t r = 0; r < plan.rows_.size(); ++r) {
    const auto& victims = plan.rows_[r].victims;
    for (std::size_t slot = 0; slot < kDistances.size(); ++slot) {
      resolved[r].victims[slot] =
          victims[slot] >= 0 ? &state(victims[slot], start) : nullptr;
    }
  }

  // One ledger add per folded dose entry and victim.
  for (const auto& dose : plan.doses_) {
    const SenseArena::HammeredRow& hr = resolved[dose.row];
    for (std::size_t slot = 0; slot < kDistances.size(); ++slot) {
      RowState* victim = hr.victims[slot];
      if (victim == nullptr) continue;
      victim->ledger.add(-kDistances[slot], hr.state->version, hr.state->bits,
                         dose.unit, dose.count * iterations);
    }
  }
  // The defense sees the window once, folded per distinct row.
  if (defense_) {
    if (plan.defense_rows_.empty()) {
      throw std::logic_error("apply: plan made for a bank without defense");
    }
    defense_->on_window({plan.defense_rows_, plan.defense_acts_,
                         plan.defense_recency_, iterations, end});
  }
  counters_.activations +=
      static_cast<std::uint64_t>(steps.size()) * iterations;

  // Hammered rows were restored by their own final activation.
  for (std::size_t r = 0; r < plan.rows_.size(); ++r) {
    resolved[r].state->ledger.clear();
    resolved[r].state->last_restore = last_round + plan.rows_[r].last_offset;
  }
  return end;
}

}  // namespace hbmrd::dram
