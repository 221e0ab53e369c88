#include "serve/index.h"

#include <algorithm>

#include "util/crc32c.h"

namespace hbmrd::serve {

namespace {

// -- Little-endian byte serialization (explicit, host-order independent) --

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}

/// Bounds-checked little-endian reader over the loaded buffer.
class Reader {
 public:
  Reader(const std::string& bytes, std::size_t offset, std::size_t end,
         const std::string& origin, const std::string& where)
      : bytes_(bytes), pos_(offset), end_(end), origin_(origin),
        where_(where) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return end_ - pos_; }

  std::uint16_t u16() { return static_cast<std::uint16_t>(read(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(read(4)); }
  std::uint64_t u64() { return read(8); }

  std::string str(std::size_t n) {
    need(n);
    std::string out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  void need(std::size_t n) const {
    if (end_ - pos_ < n) {
      throw IndexError(origin_ + ": " + where_ +
                       " truncated: refusing to serve");
    }
  }

 private:
  std::uint64_t read(int n) {
    need(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  const std::string& bytes_;
  std::size_t pos_;
  std::size_t end_;
  const std::string& origin_;
  std::string where_;
};

struct SectionView {
  std::uint32_t type = 0;
  std::size_t payload_offset = 0;
  std::size_t payload_len = 0;
};

[[noreturn]] void reject(const std::string& origin, const std::string& what) {
  throw IndexError(origin + ": " + what + ": refusing to serve");
}

std::string manifest_payload(const IndexManifest& m) {
  std::string out;
  put_u32(out, kIndexVersion);
  put_u64(out, m.platform_seed);
  put_u32(out, m.chip_index);
  put_u16(out, static_cast<std::uint16_t>(m.chip_label.size()));
  out += m.chip_label;
  put_u32(out, m.mapping_scheme);
  put_u32(out, m.channels);
  put_u32(out, m.pseudo_channels);
  put_u32(out, m.banks);
  put_u32(out, m.rows);
  put_u32(out, m.row_bits);
  put_u32(out, m.hc_depth);
  put_u64(out, m.max_hammer_count);
  put_u32(out, static_cast<std::uint32_t>(m.record_size()));
  return out;
}

void append_section(std::string& out, std::uint32_t type,
                    const std::string& payload) {
  std::string framed;
  put_u32(framed, type);
  put_u64(framed, payload.size());
  framed += payload;
  const auto crc = util::crc32c(framed);
  out += framed;
  put_u32(out, crc);
}

/// Section header (type + len) plus CRC trailer.
constexpr std::size_t kSectionOverhead = 4 + 8 + 4;

}  // namespace

// -- IndexBuilder -----------------------------------------------------------

IndexBuilder::IndexBuilder(IndexManifest manifest)
    : manifest_(std::move(manifest)) {
  if (manifest_.hc_depth == 0 || manifest_.hc_depth > 255) {
    throw IndexError("index builder: hc_depth must be in [1, 255]");
  }
  if (manifest_.chip_label.size() > 0xFFFF) {
    throw IndexError("index builder: chip label too long");
  }
}

IndexBuilder::Record& IndexBuilder::record_for(const PopulationKey& key,
                                               std::uint32_t row) {
  auto& record = rows_[key][row];
  if (record.rungs.empty()) record.rungs.assign(manifest_.hc_depth, 0);
  return record;
}

void IndexBuilder::set_rung(const PopulationKey& key, std::uint32_t row,
                            int k, std::uint64_t value) {
  if (k < 1 || static_cast<std::uint32_t>(k) > manifest_.hc_depth) {
    throw IndexError("index builder: rung " + std::to_string(k) +
                     " out of range [1, " +
                     std::to_string(manifest_.hc_depth) + "]");
  }
  if (row >= manifest_.rows) {
    throw IndexError("index builder: row " + std::to_string(row) +
                     " out of range");
  }
  auto& record = record_for(key, row);
  record.rungs[static_cast<std::size_t>(k) - 1] = value;
  record.rung_count = std::max(record.rung_count,
                               static_cast<std::uint8_t>(k));
}

void IndexBuilder::set_retention(const PopulationKey& key, std::uint32_t row,
                                 double seconds) {
  if (row >= manifest_.rows) {
    throw IndexError("index builder: row " + std::to_string(row) +
                     " out of range");
  }
  auto& record = record_for(key, row);
  record.has_retention = true;
  record.retention_s = seconds;
}

std::size_t IndexBuilder::row_count() const {
  std::size_t n = 0;
  for (const auto& [key, rows] : rows_) n += rows.size();
  return n;
}

std::string IndexBuilder::serialize() const {
  const auto record_size = manifest_.record_size();

  struct Entry {
    PopulationKey key;
    std::uint32_t row_lo = 0;
    std::uint32_t row_hi = 0;
    const std::map<std::uint32_t, Record>* records = nullptr;
  };
  std::vector<Entry> entries;
  for (const auto& [key, rows] : rows_) {
    if (rows.empty()) continue;
    entries.push_back(
        {key, rows.begin()->first, rows.rbegin()->first + 1, &rows});
  }

  const auto manifest_bytes = manifest_payload(manifest_);

  // Directory payload size is known up front, which pins the absolute
  // records_offset of every population before anything is written.
  const std::size_t directory_len =
      4 + entries.size() * (4 + 4 + 4 + 4 + 8 + 4 + 4 + 8);

  std::size_t cursor = sizeof(kIndexMagic);
  cursor += kSectionOverhead + manifest_bytes.size();  // manifest section
  cursor += kSectionOverhead + directory_len;          // directory section

  std::string directory;
  put_u32(directory, static_cast<std::uint32_t>(entries.size()));
  std::vector<std::size_t> payload_offsets;
  for (const auto& entry : entries) {
    const std::size_t payload_offset = cursor + 4 + 8;  // past type + len
    payload_offsets.push_back(payload_offset);
    put_u32(directory, entry.key.channel);
    put_u32(directory, entry.key.pseudo_channel);
    put_u32(directory, entry.key.bank);
    put_u32(directory, entry.key.pattern_id);
    put_u64(directory, entry.key.on_cycles);
    put_u32(directory, entry.row_lo);
    put_u32(directory, entry.row_hi);
    put_u64(directory, payload_offset);
    const std::size_t payload_len =
        static_cast<std::size_t>(entry.row_hi - entry.row_lo) * record_size;
    cursor += kSectionOverhead + payload_len;
  }

  std::string out;
  out.reserve(cursor);
  out.append(kIndexMagic, sizeof(kIndexMagic));
  append_section(out, kSectionManifest, manifest_bytes);
  append_section(out, kSectionDirectory, directory);

  std::size_t next = 0;
  for (const auto& entry : entries) {
    std::string payload;
    payload.reserve(static_cast<std::size_t>(entry.row_hi - entry.row_lo) *
                    record_size);
    auto it = entry.records->begin();
    static const Record kEmpty;
    for (std::uint32_t row = entry.row_lo; row < entry.row_hi; ++row) {
      const Record* record = &kEmpty;
      if (it != entry.records->end() && it->first == row) {
        record = &it->second;
        ++it;
      }
      payload.push_back(static_cast<char>(record->rung_count));
      payload.push_back(static_cast<char>(record->has_retention ? 1 : 0));
      payload.push_back(0);
      payload.push_back(0);
      put_f64(payload, record->retention_s);
      for (std::uint32_t k = 0; k < manifest_.hc_depth; ++k) {
        put_u64(payload,
                record->rungs.empty() ? 0 : record->rungs[k]);
      }
    }
    if (out.size() + 4 + 8 != payload_offsets[next]) {
      throw IndexError("index builder: internal offset accounting error");
    }
    ++next;
    append_section(out, kSectionRecords, payload);
  }
  return out;
}

void IndexBuilder::write(util::Store& store, const std::string& path) const {
  store.atomic_replace(path, serialize());
}

// -- Index ------------------------------------------------------------------

Index Index::load(util::Store& store, const std::string& path) {
  auto bytes = store.read(path);
  if (!bytes) {
    throw IndexError(path + ": index file missing or unreadable");
  }
  return parse(std::move(*bytes), path);
}

Index Index::parse(std::string bytes, const std::string& origin) {
  Index index;
  index.bytes_ = std::move(bytes);
  const auto& buf = index.bytes_;

  if (buf.size() < sizeof(kIndexMagic) ||
      std::memcmp(buf.data(), kIndexMagic, sizeof(kIndexMagic)) != 0) {
    reject(origin, "not a .hbmidx file (bad magic)");
  }

  // -- Section walk: framing + CRC over every section.
  std::vector<SectionView> sections;
  std::size_t pos = sizeof(kIndexMagic);
  while (pos < buf.size()) {
    Reader header(buf, pos, buf.size(), origin,
                  "section header at offset " + std::to_string(pos));
    const auto type = header.u32();
    const auto len = header.u64();
    if (len > buf.size() || header.pos() + len + 4 > buf.size()) {
      reject(origin, "section at offset " + std::to_string(pos) +
                         " overruns the file (torn write?)");
    }
    const auto payload_offset = header.pos();
    const auto framed_len = 4 + 8 + static_cast<std::size_t>(len);
    const auto crc = util::crc32c(
        std::string_view(buf.data() + pos, framed_len));
    Reader trailer(buf, payload_offset + len, buf.size(), origin,
                   "section CRC");
    if (trailer.u32() != crc) {
      reject(origin, "section at offset " + std::to_string(pos) +
                         " failed its CRC32C check (corruption)");
    }
    sections.push_back({type, payload_offset,
                        static_cast<std::size_t>(len)});
    pos = payload_offset + len + 4;
  }
  if (pos != buf.size()) {
    reject(origin, "trailing bytes after the last section");
  }
  if (sections.size() < 2 || sections[0].type != kSectionManifest ||
      sections[1].type != kSectionDirectory) {
    reject(origin, "expected a manifest section then a directory section");
  }
  for (std::size_t i = 2; i < sections.size(); ++i) {
    if (sections[i].type != kSectionRecords) {
      reject(origin, "unexpected section type " +
                         std::to_string(sections[i].type) +
                         " (want records)");
    }
  }

  // -- Manifest.
  {
    const auto& s = sections[0];
    Reader r(buf, s.payload_offset, s.payload_offset + s.payload_len,
             origin, "manifest");
    const auto version = r.u32();
    if (version != kIndexVersion) {
      reject(origin, "index version " + std::to_string(version) +
                         " unsupported (want " +
                         std::to_string(kIndexVersion) + ")");
    }
    auto& m = index.manifest_;
    m.platform_seed = r.u64();
    m.chip_index = r.u32();
    m.chip_label = r.str(r.u16());
    m.mapping_scheme = r.u32();
    m.channels = r.u32();
    m.pseudo_channels = r.u32();
    m.banks = r.u32();
    m.rows = r.u32();
    m.row_bits = r.u32();
    m.hc_depth = r.u32();
    m.max_hammer_count = r.u64();
    const auto record_size = r.u32();
    if (r.remaining() != 0) reject(origin, "manifest has trailing bytes");
    if (m.hc_depth == 0 || m.hc_depth > 255) {
      reject(origin, "manifest hc_depth " + std::to_string(m.hc_depth) +
                         " out of range [1, 255]");
    }
    if (record_size != m.record_size()) {
      reject(origin, "manifest record_size " + std::to_string(record_size) +
                         " disagrees with hc_depth");
    }
    if (m.channels == 0 || m.pseudo_channels == 0 || m.banks == 0 ||
        m.rows == 0 || m.row_bits == 0) {
      reject(origin, "manifest geometry has a zero dimension");
    }
  }
  const auto record_size = index.manifest_.record_size();

  // -- Directory, cross-checked against the records sections.
  {
    const auto& s = sections[1];
    Reader r(buf, s.payload_offset, s.payload_offset + s.payload_len,
             origin, "directory");
    const auto count = r.u32();
    if (count != sections.size() - 2) {
      reject(origin, "directory lists " + std::to_string(count) +
                         " population(s) but the file has " +
                         std::to_string(sections.size() - 2) +
                         " records section(s)");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      Population population;
      population.key.channel = r.u32();
      population.key.pseudo_channel = r.u32();
      population.key.bank = r.u32();
      population.key.pattern_id = r.u32();
      population.key.on_cycles = r.u64();
      population.row_lo = r.u32();
      population.row_hi = r.u32();
      const auto records_offset = r.u64();

      const auto where = "directory entry " + std::to_string(i);
      const auto& m = index.manifest_;
      if (population.key.channel >= m.channels ||
          population.key.pseudo_channel >= m.pseudo_channels ||
          population.key.bank >= m.banks) {
        reject(origin, where + " names a bank outside the geometry");
      }
      if (population.key.pattern_id != kRetentionPatternId &&
          population.key.pattern_id >= 4) {
        reject(origin, where + " has an unknown pattern id " +
                           std::to_string(population.key.pattern_id));
      }
      if (population.row_lo >= population.row_hi ||
          population.row_hi > m.rows) {
        reject(origin, where + " row range [" +
                           std::to_string(population.row_lo) + ", " +
                           std::to_string(population.row_hi) +
                           ") invalid for " + std::to_string(m.rows) +
                           " rows");
      }
      const auto& rs = sections[2 + i];
      if (records_offset != rs.payload_offset) {
        reject(origin, where + " records offset " +
                           std::to_string(records_offset) +
                           " does not match records section " +
                           std::to_string(i) + " at " +
                           std::to_string(rs.payload_offset));
      }
      const auto expected_len =
          static_cast<std::size_t>(population.row_hi - population.row_lo) *
          record_size;
      if (rs.payload_len != expected_len) {
        reject(origin, where + " expects " + std::to_string(expected_len) +
                           " record bytes, records section has " +
                           std::to_string(rs.payload_len));
      }
      population.records_offset = rs.payload_offset;

      if (!index.by_key_
               .emplace(population.key, index.populations_.size())
               .second) {
        reject(origin, where + " duplicates an earlier population key");
      }
      index.populations_.push_back(std::move(population));
    }
    if (r.remaining() != 0) reject(origin, "directory has trailing bytes");
  }

  // -- Record sanity: rung_count within hc_depth for every row.
  for (const auto& population : index.populations_) {
    for (std::uint32_t row = population.row_lo; row < population.row_hi;
         ++row) {
      const auto view = index.record(population, row);
      if (view.rung_count() >
          static_cast<int>(index.manifest_.hc_depth)) {
        reject(origin, "record for row " + std::to_string(row) +
                           " claims more rungs than the manifest depth");
      }
    }
  }

  return index;
}

const Population* Index::find(const PopulationKey& key) const {
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) return nullptr;
  return &populations_[it->second];
}

}  // namespace hbmrd::serve
