// `.hbmidx` format contract (docs/SERVING.md):
//
//   * round-trip: what the builder records is what the loader serves,
//     including kNoFlip rungs, gap rows, retention populations, and the
//     weakest-row heads;
//   * rejection: ANY single-byte corruption, truncation, or trailing
//     garbage makes the loader throw IndexError — it never serves a cell
//     it cannot fully validate;
//   * durability (through fault::FaultyStore): a torn write, injected
//     EIO, or power cut during export leaves either the complete old or
//     the complete new index on disk, never a loadable corrupt one.
#include "serve/index.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "fault/faulty_store.h"
#include "scratch.h"
#include "util/crc32c.h"
#include "util/store.h"

namespace hbmrd::serve {
namespace {

IndexManifest small_manifest(std::uint32_t hc_depth = 3) {
  IndexManifest manifest;
  manifest.platform_seed = 0x5EED;
  manifest.chip_index = 2;
  manifest.chip_label = "Chip 2";
  manifest.mapping_scheme = 0;
  manifest.channels = 8;
  manifest.pseudo_channels = 2;
  manifest.banks = 16;
  manifest.rows = 16384;
  manifest.row_bits = 8192;
  manifest.hc_depth = hc_depth;
  manifest.max_hammer_count = 1u << 20;
  return manifest;
}

/// Two threshold populations + one retention population, with a gap row.
IndexBuilder small_builder() {
  IndexBuilder builder(small_manifest());
  const PopulationKey checkered{0, 0, 0, 2, 0};
  builder.set_rung(checkered, 100, 1, 50000);
  builder.set_rung(checkered, 100, 2, 61000);
  builder.set_rung(checkered, 100, 3, kNoFlip);
  builder.set_rung(checkered, 102, 1, 40000);  // row 101 is a gap
  const PopulationKey on_time{1, 1, 3, 0, 777};
  builder.set_rung(on_time, 5, 1, 33000);
  const PopulationKey retention{0, 0, 0, kRetentionPatternId, 0};
  builder.set_retention(retention, 100, 1.52e2);
  builder.set_retention(retention, 101, 97.25);
  return builder;
}

TEST(ServeIndex, RoundTripsRecordsAndManifest) {
  const auto image = small_builder().serialize();
  const auto index = Index::parse(image, "mem");

  const auto& m = index.manifest();
  EXPECT_EQ(m.platform_seed, 0x5EEDu);
  EXPECT_EQ(m.chip_index, 2u);
  EXPECT_EQ(m.chip_label, "Chip 2");
  EXPECT_EQ(m.hc_depth, 3u);
  EXPECT_EQ(m.record_size(), 12u + 8u * 3u);
  ASSERT_EQ(index.populations().size(), 3u);

  const auto* checkered = index.find({0, 0, 0, 2, 0});
  ASSERT_NE(checkered, nullptr);
  EXPECT_EQ(checkered->row_lo, 100u);
  EXPECT_EQ(checkered->row_hi, 103u);
  const auto row100 = index.record(*checkered, 100);
  EXPECT_EQ(row100.rung_count(), 3);
  EXPECT_EQ(row100.rung(1), 50000u);
  EXPECT_EQ(row100.rung(2), 61000u);
  EXPECT_EQ(row100.rung(3), kNoFlip);
  EXPECT_FALSE(row100.has_retention());
  // The gap row materializes as an empty record, not as absent coverage.
  const auto row101 = index.record(*checkered, 101);
  EXPECT_EQ(row101.rung_count(), 0);
  EXPECT_FALSE(row101.has_retention());
  EXPECT_EQ(index.record(*checkered, 102).rung(1), 40000u);

  const auto* on_time = index.find({1, 1, 3, 0, 777});
  ASSERT_NE(on_time, nullptr);
  EXPECT_EQ(index.record(*on_time, 5).rung(1), 33000u);

  const auto* retention = index.find({0, 0, 0, kRetentionPatternId, 0});
  ASSERT_NE(retention, nullptr);
  const auto ret100 = index.record(*retention, 100);
  EXPECT_TRUE(ret100.has_retention());
  EXPECT_DOUBLE_EQ(ret100.retention_s(), 1.52e2);
  EXPECT_EQ(ret100.rung_count(), 0);

  EXPECT_EQ(index.find({7, 0, 0, 2, 0}), nullptr);
}

TEST(ServeIndex, SerializationIsDeterministic) {
  EXPECT_EQ(small_builder().serialize(), small_builder().serialize());
}

TEST(ServeIndex, RefusesOtherFormatVersions) {
  // The manifest payload opens with the format version (u32, right after
  // the magic and the section's type + length). A version-1 file, which
  // carried per-population threshold heads, must not load even with a
  // valid CRC.
  const auto image = small_builder().serialize();
  const std::size_t frame = sizeof(kIndexMagic);
  std::uint64_t len = 0;
  std::memcpy(&len, image.data() + frame + 4, 8);
  const std::size_t version_at = frame + 12;
  const std::size_t crc_at = version_at + len;
  const auto with_version = [&](std::uint32_t version) {
    auto patched = image;
    std::memcpy(patched.data() + version_at, &version, 4);
    const auto crc = util::crc32c(
        std::string_view(patched).substr(frame, crc_at - frame));
    std::memcpy(patched.data() + crc_at, &crc, 4);
    return patched;
  };
  EXPECT_EQ(with_version(kIndexVersion), image);
  EXPECT_THROW((void)Index::parse(with_version(1), "mem"), IndexError);
  EXPECT_THROW((void)Index::parse(with_version(kIndexVersion + 1), "mem"),
               IndexError);
}

TEST(ServeIndex, RejectsEverySingleByteCorruption) {
  const auto image = small_builder().serialize();
  // Every byte of the file sits under the magic check or a section CRC,
  // so any single-byte flip must be caught. (The whole-file sweep is
  // cheap: the test image is a few KB.)
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    auto corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x41);
    EXPECT_THROW((void)Index::parse(corrupt, "mem"), IndexError)
        << "byte " << i << " corruption was served";
    ++rejected;
  }
  EXPECT_EQ(rejected, image.size());
}

TEST(ServeIndex, RejectsTruncationAndTrailingGarbage) {
  const auto image = small_builder().serialize();
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{4}, std::size_t{7}, std::size_t{8},
        std::size_t{20}, image.size() / 2, image.size() - 1}) {
    EXPECT_THROW((void)Index::parse(image.substr(0, cut), "mem"),
                 IndexError)
        << "truncated at " << cut;
  }
  EXPECT_THROW((void)Index::parse(image + "x", "mem"), IndexError);
  EXPECT_THROW((void)Index::parse(image + std::string(16, '\0'), "mem"),
               IndexError);
  EXPECT_THROW((void)Index::parse("", "mem"), IndexError);
  EXPECT_THROW((void)Index::parse("not an index at all", "mem"),
               IndexError);
}

/// Splits a serialized image into magic + whole framed sections (header,
/// payload, and CRC trailer intact), so tests can splice CRC-valid
/// sections from different images.
std::vector<std::string> split_sections(const std::string& image) {
  std::vector<std::string> parts = {image.substr(0, 8)};
  std::size_t pos = 8;
  while (pos < image.size()) {
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i) {
      len |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(image[pos + 4 + i]))
             << (8 * i);
    }
    const auto framed = 4 + 8 + static_cast<std::size_t>(len) + 4;
    parts.push_back(image.substr(pos, framed));
    pos += framed;
  }
  return parts;
}

TEST(ServeIndex, RejectsCrcValidButInconsistentSections) {
  // Splice CRC-valid sections from two different images: every section
  // passes its own CRC, so only the loader's cross-reference validation
  // (directory vs records sections) can reject the franken-file.
  IndexBuilder a(small_manifest());
  a.set_rung({0, 0, 0, 2, 0}, 100, 1, 50000);  // rows [100, 101): 1 record
  IndexBuilder b(small_manifest());
  b.set_rung({0, 0, 0, 2, 0}, 100, 1, 50000);
  b.set_rung({0, 0, 0, 2, 0}, 103, 1, 60000);  // rows [100, 104): 4 records
  // parts = [magic, manifest, directory, records].
  const auto parts_a = split_sections(a.serialize());
  const auto parts_b = split_sections(b.serialize());
  ASSERT_EQ(parts_a.size(), 4u);
  ASSERT_EQ(parts_b.size(), 4u);

  // B's directory (expects 4 records) over A's records section (holds 1).
  const auto franken =
      parts_b[0] + parts_b[1] + parts_b[2] + parts_a[3];
  EXPECT_THROW((void)Index::parse(franken, "mem"), IndexError);

  // A missing records section: directory count vs section count.
  EXPECT_THROW(
      (void)Index::parse(parts_b[0] + parts_b[1] + parts_b[2], "mem"),
      IndexError);

  // Swapped records sections in a two-population image: both sections are
  // CRC-valid but the directory's absolute offsets no longer match.
  IndexBuilder two(small_manifest());
  two.set_rung({0, 0, 0, 0, 0}, 10, 1, 1000);
  two.set_rung({1, 0, 0, 0, 0}, 10, 1, 2000);
  two.set_rung({1, 0, 0, 0, 0}, 11, 1, 2100);  // different section sizes
  const auto parts_two = split_sections(two.serialize());
  ASSERT_EQ(parts_two.size(), 5u);
  const auto swapped = parts_two[0] + parts_two[1] + parts_two[2] +
                       parts_two[4] + parts_two[3];
  EXPECT_THROW((void)Index::parse(swapped, "mem"), IndexError);
}

TEST(ServeIndex, WriteIsDurableThroughStore) {
  const auto path = scratch_path("durable.hbmidx");
  auto store = util::default_store();
  small_builder().write(*store, path);
  const auto loaded = Index::load(*store, path);
  EXPECT_EQ(loaded.populations().size(), 3u);
  EXPECT_THROW((void)Index::load(*store, scratch_path("missing.hbmidx")),
               IndexError);
  store->remove(path);
}

// -- FaultyStore schedules: the export never leaves a loadable corrupt
// index behind (satellite: .hbmidx durability).

TEST(ServeIndex, PowerCutDuringExportLeavesOldOrNewIndex) {
  const auto path = scratch_path("powercut.hbmidx");
  auto base = util::default_store();

  // Version 1 on disk.
  IndexBuilder v1(small_manifest());
  v1.set_rung({0, 0, 0, 2, 0}, 10, 1, 11111);
  v1.write(*base, path);
  const auto v1_bytes = *base->read(path);

  IndexBuilder v2(small_manifest());
  v2.set_rung({0, 0, 0, 2, 0}, 10, 1, 22222);
  v2.set_rung({0, 0, 0, 2, 0}, 11, 1, 33333);
  const auto v2_bytes = v2.serialize();

  // Crash at the replace write and at the replace fsync: both must leave
  // either complete version on disk, and whichever it is must load.
  for (const auto schedule : {1, 2}) {
    fault::StoreFaultConfig config;
    if (schedule == 1) {
      config.crash_at_write = 1;
    } else {
      config.crash_at_fsync = 1;
    }
    fault::FaultyStore faulty(base, 0xFA17 + schedule, config);
    EXPECT_THROW(v2.write(faulty, path), fault::StoreCrashError);
    const auto on_disk = base->read(path);
    ASSERT_TRUE(on_disk.has_value());
    EXPECT_TRUE(*on_disk == v1_bytes || *on_disk == v2_bytes)
        << "schedule " << schedule
        << " left neither complete version on disk";
    const auto reloaded = Index::load(*base, path);
    EXPECT_EQ(reloaded.manifest().hc_depth, 3u);
  }
  base->remove(path);
}

TEST(ServeIndex, InjectedWriteErrorSurfacesAndLeavesOldIndex) {
  const auto path = scratch_path("eio.hbmidx");
  auto base = util::default_store();
  IndexBuilder v1(small_manifest());
  v1.set_rung({0, 0, 0, 2, 0}, 10, 1, 11111);
  v1.write(*base, path);
  const auto v1_bytes = *base->read(path);

  fault::StoreFaultConfig config;
  config.write_error_rate = 1.0;  // every replace fails with EIO
  fault::FaultyStore faulty(base, 0xE10, config);
  IndexBuilder v2(small_manifest());
  v2.set_rung({0, 0, 0, 2, 0}, 10, 1, 22222);
  EXPECT_THROW(v2.write(faulty, path), util::StoreError);
  EXPECT_EQ(*base->read(path), v1_bytes);
  EXPECT_EQ(Index::load(*base, path)
                .record(*Index::load(*base, path).find({0, 0, 0, 2, 0}),
                        10)
                .rung(1),
            11111u);
  base->remove(path);
}

TEST(ServeIndex, TornOnDiskBytesAreRejectedNotServed) {
  // Model the no-atomic-replace counterfactual: any torn prefix of the
  // image (what a plain overwrite + power cut could leave) must be
  // rejected by the loader.
  const auto path = scratch_path("torn.hbmidx");
  auto store = util::default_store();
  const auto image = small_builder().serialize();
  for (const auto keep :
       {image.size() / 4, image.size() / 2, image.size() - 5}) {
    store->atomic_replace(path, std::string_view(image).substr(0, keep));
    EXPECT_THROW((void)Index::load(*store, path), IndexError)
        << "torn at " << keep;
  }
  store->remove(path);
}

TEST(ServeIndex, BuilderValidatesItsInputs) {
  IndexBuilder builder(small_manifest());
  EXPECT_THROW(builder.set_rung({0, 0, 0, 2, 0}, 0, 0, 1), IndexError);
  EXPECT_THROW(builder.set_rung({0, 0, 0, 2, 0}, 0, 4, 1), IndexError);
  EXPECT_THROW(builder.set_rung({0, 0, 0, 2, 0}, 20000, 1, 1), IndexError);
  EXPECT_THROW(builder.set_retention({0, 0, 0, 2, 0}, 20000, 1.0),
               IndexError);
  auto manifest = small_manifest();
  manifest.hc_depth = 0;
  EXPECT_THROW(IndexBuilder{manifest}, IndexError);
}

}  // namespace
}  // namespace hbmrd::serve
