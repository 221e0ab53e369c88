// The `.hbmidx` precomputed threshold index (docs/SERVING.md).
//
// A campaign measures HC_first / HC_nth / retention for thousands of rows;
// answering later "what is HC_first of row R under pattern P?" questions by
// re-simulating costs milliseconds per query. The index serializes those
// per-row thresholds into a compact little-endian columnar file so a query
// server can answer them with pointer arithmetic over one read-only buffer:
//
//   file   := magic "HBMIDX1\n" ‖ section*
//   section:= u32 type ‖ u64 payload_len ‖ payload ‖ u32 crc32c(type‖len‖payload)
//   types  := 1 manifest (exactly one, first)
//             2 directory (exactly one, second)
//             3 records   (one per population, in directory order)
//
// The manifest pins the identity the answers are a pure function of —
// (platform seed, chip index, mapping scheme, geometry, search bounds) —
// so a loader can refuse an index built for a different chip. The
// directory lists populations (bank coordinate × data pattern × aggressor
// on-time) with their row range and the absolute file offset of their
// fixed-size record array: looking up row R is `records_offset +
// (R - row_lo) * record_size`, no per-row parsing.
//
// Record layout (fixed record_size = 12 + 8 * hc_depth bytes):
//   byte 0      rung_count  — rungs 1..rung_count were measured
//   byte 1      flags       — bit 0: retention field is valid
//   bytes 2-3   reserved (0)
//   bytes 4-11  f64 min retention at reference temperature, seconds
//   then hc_depth u64 rungs; rung k = smallest hammer count inducing k
//   bitflips, kNoFlip = measured but no k-th flip within the manifest's
//   max_hammer_count, 0 = not measured (only legal beyond rung_count).
//
// Retention-only data rides in per-bank populations keyed with
// kRetentionPatternId (pattern is meaningless for retention); their
// records use the same layout with rung_count 0.
//
// Durability: every section is CRC32C-trailed and the writer goes through
// Store::atomic_replace, so a torn write, bit rot, or power cut yields a
// file the loader rejects with an actionable IndexError — it never serves
// a corrupt cell (tests/serve_index_test.cpp drives this through
// fault::FaultyStore schedules).
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "util/store.h"

namespace hbmrd::serve {

inline constexpr char kIndexMagic[8] = {'H', 'B', 'M', 'I',
                                        'D', 'X', '1', '\n'};
inline constexpr std::uint32_t kIndexVersion = 2;
inline constexpr std::uint32_t kSectionManifest = 1;
inline constexpr std::uint32_t kSectionDirectory = 2;
inline constexpr std::uint32_t kSectionRecords = 3;

/// Rung value: measured, and max_hammer_count did not induce the k-th flip.
inline constexpr std::uint64_t kNoFlip = ~0ull;
/// pattern_id of the per-bank retention populations.
inline constexpr std::uint32_t kRetentionPatternId = 0xFFFFFFFFu;

/// The index file failed validation (CRC, manifest, structure). The loader
/// throws instead of serving anything from a file it cannot fully trust.
class IndexError : public std::runtime_error {
 public:
  explicit IndexError(const std::string& what) : std::runtime_error(what) {}
};

/// Identity block: the answers in the index are a pure function of these.
struct IndexManifest {
  std::uint64_t platform_seed = 0;
  std::uint32_t chip_index = 0;
  std::string chip_label;
  std::uint32_t mapping_scheme = 0;  // dram::MappingScheme as integer
  std::uint32_t channels = 0;
  std::uint32_t pseudo_channels = 0;
  std::uint32_t banks = 0;
  std::uint32_t rows = 0;
  std::uint32_t row_bits = 0;
  /// Rungs stored per record (HC_first .. HC_hc_depth'th).
  std::uint32_t hc_depth = 0;
  /// Search bound the rungs were measured under (study::HcSearchConfig).
  std::uint64_t max_hammer_count = 1u << 20;

  [[nodiscard]] std::size_t record_size() const {
    return 12 + 8 * static_cast<std::size_t>(hc_depth);
  }
};

/// Population key: one bank coordinate under one data pattern and
/// aggressor on-time (or the bank's retention population).
struct PopulationKey {
  std::uint32_t channel = 0;
  std::uint32_t pseudo_channel = 0;
  std::uint32_t bank = 0;
  std::uint32_t pattern_id = 0;  // index into study::kAllPatterns, or
                                 // kRetentionPatternId
  std::uint64_t on_cycles = 0;   // aggressor on-time (0 = minimum)

  [[nodiscard]] friend bool operator<(const PopulationKey& a,
                                      const PopulationKey& b) {
    return std::tie(a.channel, a.pseudo_channel, a.bank, a.pattern_id,
                    a.on_cycles) < std::tie(b.channel, b.pseudo_channel,
                                            b.bank, b.pattern_id,
                                            b.on_cycles);
  }
  [[nodiscard]] friend bool operator==(const PopulationKey& a,
                                       const PopulationKey& b) {
    return !(a < b) && !(b < a);
  }
};

/// Zero-copy view of one row record inside the loaded buffer.
class RecordView {
 public:
  RecordView(const char* bytes, std::uint32_t hc_depth)
      : bytes_(bytes), hc_depth_(hc_depth) {}

  [[nodiscard]] int rung_count() const {
    return static_cast<unsigned char>(bytes_[0]);
  }
  [[nodiscard]] bool has_retention() const {
    return (static_cast<unsigned char>(bytes_[1]) & 1) != 0;
  }
  [[nodiscard]] double retention_s() const {
    std::uint64_t bits = 0;
    std::memcpy(&bits, bytes_ + 4, 8);
    double value = 0.0;
    std::memcpy(&value, &bits, 8);
    return value;
  }
  /// Rung k (1-based); k must be in [1, hc_depth].
  [[nodiscard]] std::uint64_t rung(int k) const {
    std::uint64_t value = 0;
    std::memcpy(&value, bytes_ + 12 + 8 * (static_cast<std::size_t>(k) - 1),
                8);
    return value;
  }
  [[nodiscard]] std::uint32_t hc_depth() const { return hc_depth_; }

 private:
  const char* bytes_;
  std::uint32_t hc_depth_;
};

/// One population: its key, row range [row_lo, row_hi), and the offset of
/// its record array in the loaded buffer.
struct Population {
  PopulationKey key;
  std::uint32_t row_lo = 0;
  std::uint32_t row_hi = 0;  // exclusive
  std::size_t records_offset = 0;  // into the loaded file buffer

  [[nodiscard]] bool covers(std::uint32_t row) const {
    return row >= row_lo && row < row_hi;
  }
};

/// A loaded, fully validated index: one read-only buffer plus a directory.
/// Lookups are pointer arithmetic; no allocation after load().
class Index {
 public:
  /// Reads and validates `path` through `store`. Throws IndexError when
  /// anything — magic, section framing, CRC, manifest geometry, directory
  /// cross-references — fails; throws util::StoreError on I/O failure.
  [[nodiscard]] static Index load(util::Store& store,
                                  const std::string& path);

  /// Parses and validates an in-memory image (the load() workhorse;
  /// exposed for tests). `origin` labels error messages.
  [[nodiscard]] static Index parse(std::string bytes,
                                   const std::string& origin);

  [[nodiscard]] const IndexManifest& manifest() const { return manifest_; }
  [[nodiscard]] const std::vector<Population>& populations() const {
    return populations_;
  }

  /// O(log populations) key lookup; nullptr when absent.
  [[nodiscard]] const Population* find(const PopulationKey& key) const;

  /// Record of `row` in `population`; the caller checked covers(row).
  [[nodiscard]] RecordView record(const Population& population,
                                  std::uint32_t row) const {
    const auto offset =
        population.records_offset +
        static_cast<std::size_t>(row - population.row_lo) *
            manifest_.record_size();
    return RecordView(bytes_.data() + offset, manifest_.hc_depth);
  }

  [[nodiscard]] std::size_t file_bytes() const { return bytes_.size(); }

 private:
  Index() = default;

  std::string bytes_;  // the whole file, records read in place
  IndexManifest manifest_;
  std::vector<Population> populations_;           // directory order
  std::map<PopulationKey, std::size_t> by_key_;   // key -> index
};

/// Accumulates measurements and serializes them into a `.hbmidx` image.
class IndexBuilder {
 public:
  explicit IndexBuilder(IndexManifest manifest);

  /// Sets rung k (1-based, <= hc_depth) of (key, row). `value` is the
  /// hammer count, or kNoFlip for "no k-th flip within max_hammer_count".
  void set_rung(const PopulationKey& key, std::uint32_t row, int k,
                std::uint64_t value);

  /// Sets the min-retention field of (key, row); conventionally used with
  /// kRetentionPatternId bank populations.
  void set_retention(const PopulationKey& key, std::uint32_t row,
                     double seconds);

  [[nodiscard]] const IndexManifest& manifest() const { return manifest_; }
  [[nodiscard]] std::size_t population_count() const { return rows_.size(); }
  [[nodiscard]] std::size_t row_count() const;

  /// Serializes the full image (magic + sections, CRC-trailed).
  [[nodiscard]] std::string serialize() const;

  /// Serializes and durably writes via Store::atomic_replace.
  void write(util::Store& store, const std::string& path) const;

 private:
  struct Record {
    std::uint8_t rung_count = 0;
    bool has_retention = false;
    double retention_s = 0.0;
    std::vector<std::uint64_t> rungs;  // size hc_depth, 0 = unset
  };

  Record& record_for(const PopulationKey& key, std::uint32_t row);

  IndexManifest manifest_;
  std::map<PopulationKey, std::map<std::uint32_t, Record>> rows_;
};

}  // namespace hbmrd::serve
