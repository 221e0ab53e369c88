#include "serve/engine.h"

#include <algorithm>
#include <charconv>

#include "disturb/fault_model.h"
#include "dram/timing.h"
#include "study/hc_first.h"
#include "util/parse.h"

namespace hbmrd::serve {

namespace {

enum class Kind : std::uint64_t { kHc = 0, kBer = 1, kRetention = 2 };

void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, res.ptr);
}

/// Shortest-round-trip formatting: the same double bits always produce the
/// same bytes, which is what makes retention answers byte-identical across
/// the index / overlay / simulation paths.
void append_double(std::string& out, double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, res.ptr);
}

/// Pattern names as printed by study::to_string, cached so the hot path
/// never constructs a std::string.
const std::array<std::string, 4>& pattern_names() {
  static const std::array<std::string, 4> names = [] {
    std::array<std::string, 4> out;
    for (std::size_t i = 0; i < study::kAllPatterns.size(); ++i) {
      out[i] = study::to_string(study::kAllPatterns[i]);
    }
    return out;
  }();
  return names;
}

void tokenize(std::string_view line,
              std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r';
  };
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    std::size_t j = i;
    while (j < line.size() && !is_space(line[j])) ++j;
    if (j > i) tokens.push_back(line.substr(i, j - i));
    i = j;
  }
}

void emit_error(std::string& response, std::size_t line_no,
                std::string_view message, ServeCounters& counters) {
  response += "error,";
  append_u64(response, line_no);
  response += ',';
  response.append(message.data(), message.size());
  response += '\n';
  ++counters.errors;
}

}  // namespace

std::optional<study::DataPattern> parse_pattern(std::string_view name) {
  const auto& names = pattern_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (name == names[i]) return study::kAllPatterns[i];
  }
  return std::nullopt;
}

std::optional<Range> parse_range(std::string_view text,
                                 std::uint32_t limit) {
  const auto dots = text.find("..");
  std::optional<std::uint64_t> lo;
  std::optional<std::uint64_t> hi;
  if (dots == std::string_view::npos) {
    lo = util::parse_u64(text);
    hi = lo;
  } else {
    lo = util::parse_u64(text.substr(0, dots));
    hi = util::parse_u64(text.substr(dots + 2));
  }
  if (!lo || !hi || *lo > *hi || *hi >= limit) return std::nullopt;
  return Range{static_cast<std::uint32_t>(*lo),
               static_cast<std::uint32_t>(*hi)};
}

std::uint64_t simulate_hc_nth(FallbackSession& session,
                              const dram::RowAddress& victim,
                              study::DataPattern pattern,
                              std::uint64_t on_cycles, int k,
                              std::uint64_t max_hammer_count) {
  study::HcSearchConfig config;
  config.pattern = pattern;
  config.on_cycles = static_cast<dram::Cycle>(on_cycles);
  config.max_hammer_count = max_hammer_count;
  const auto hc = study::find_hc_nth(session.canonical(), session.map(),
                                     victim, k, config);
  return hc ? *hc : kNoFlip;
}

int simulate_bitflips_at(FallbackSession& session,
                         const dram::RowAddress& victim,
                         study::DataPattern pattern,
                         std::uint64_t on_cycles,
                         std::uint64_t hammer_count,
                         std::uint64_t search_bound) {
  // flips(count) is DEFINED as #{k : HC_k <= count} with the thresholds
  // searched under `search_bound`: replaying the exporter's exact
  // searches is what makes index and fallback ber answers byte-identical
  // even when `count` lands exactly on a threshold (where a one-shot
  // study::bitflips_at read — or a search under a different bound — can
  // disagree with the recorded boundary by the search's
  // thermal-trajectory epsilon; see the margin note in
  // tests/study_ber_hc_test.cpp).
  int flips = 0;
  while (flips < dram::kRowBits) {
    const auto hc = simulate_hc_nth(session, victim, pattern, on_cycles,
                                    flips + 1, search_bound);
    if (hc == kNoFlip || hc > hammer_count) break;
    ++flips;
  }
  return flips;
}

double simulate_min_retention(FallbackSession& session,
                              const dram::RowAddress& victim) {
  auto& chip = session.canonical();
  const int physical = session.map().to_physical(victim.row);
  return disturb::min_retention_ref_seconds(chip.stack().fault_model(),
                                            victim.bank, physical);
}

bool QueryEngine::overlay_find(const OverlayKey& key, std::uint64_t* value) {
  const std::lock_guard<std::mutex> lock(overlay_mutex_);
  const auto it = overlay_.find(key);
  if (it == overlay_.end()) return false;
  *value = it->second;
  return true;
}

void QueryEngine::overlay_record(const OverlayKey& key,
                                 std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(overlay_mutex_);
  overlay_.emplace(key, value);
}

void QueryEngine::run_batch(std::string_view request, std::string& response,
                            QueryScratch& scratch,
                            FallbackSession* fallback,
                            ServeCounters& counters) {
  ++counters.batches;
  const auto start_bytes = response.size();
  const auto& manifest = index_.manifest();

  // One expanded point query; appends exactly one response line.
  const auto answer_point =
      [&](Kind kind, std::uint64_t k_or_count, std::uint32_t ch,
          std::uint32_t pc, std::uint32_t bank, std::uint32_t row,
          std::uint32_t pattern_id, std::uint64_t on_cycles,
          std::size_t line_no) {
        ++counters.queries;

        // The response prefix is identical for every path serving this
        // query — only the final value cell differs by outcome, and the
        // outcome value itself is path-independent (byte-identity).
        const auto emit_prefix = [&] {
          switch (kind) {
            case Kind::kHc:
              if (k_or_count == 1) {
                response += "hc_first,";
              } else {
                response += "hc_nth,";
                append_u64(response, k_or_count);
                response += ',';
              }
              break;
            case Kind::kBer:
              response += "ber,";
              append_u64(response, k_or_count);
              response += ',';
              break;
            case Kind::kRetention:
              response += "min_retention,";
              break;
          }
          append_u64(response, ch);
          response += ',';
          append_u64(response, pc);
          response += ',';
          append_u64(response, bank);
          response += ',';
          append_u64(response, row);
          if (kind != Kind::kRetention) {
            response += ',';
            response += pattern_names()[pattern_id];
            response += ',';
            append_u64(response, on_cycles);
          }
          response += ',';
        };
        const auto emit_hc_value = [&](std::uint64_t hc) {
          emit_prefix();
          if (hc == kNoFlip) {
            response += "none";
          } else {
            append_u64(response, hc);
          }
          response += '\n';
        };
        const auto emit_u64_value = [&](std::uint64_t value) {
          emit_prefix();
          append_u64(response, value);
          response += '\n';
        };
        const auto emit_double_value = [&](double value) {
          emit_prefix();
          append_double(response, value);
          response += '\n';
        };

        // -- Index hit path: pointer arithmetic, no lock, no allocation.
        if (!bypass_index_) {
          const PopulationKey key{
              ch, pc, bank,
              kind == Kind::kRetention ? kRetentionPatternId : pattern_id,
              kind == Kind::kRetention ? 0 : on_cycles};
          const auto* population = index_.find(key);
          if (population != nullptr && population->covers(row)) {
            const auto record = index_.record(*population, row);
            switch (kind) {
              case Kind::kHc: {
                const auto k = static_cast<int>(k_or_count);
                const int measured = record.rung_count();
                if (k <= measured) {
                  const auto hc = record.rung(k);
                  if (hc != 0) {
                    ++counters.hits;
                    emit_hc_value(hc);
                    return;
                  }
                } else if (measured >= 1 &&
                           record.rung(measured) == kNoFlip) {
                  // Monotone: no `measured`-th flip within the bound
                  // implies no deeper flip either.
                  ++counters.hits;
                  emit_hc_value(kNoFlip);
                  return;
                }
                break;
              }
              case Kind::kBer: {
                const auto count = k_or_count;
                const int m = record.rung_count();
                if (m >= 1) {
                  int below = 0;
                  bool measured_all = true;
                  for (int j = 1; j <= m; ++j) {
                    const auto rung = record.rung(j);
                    if (rung == 0) {
                      measured_all = false;
                      break;
                    }
                    if (rung != kNoFlip && rung <= count) ++below;
                  }
                  // flips(count) == below, provided the next rung proves
                  // no further flip fits under `count` (a kNoFlip rung
                  // only proves it up to the search bound).
                  if (measured_all && below < m) {
                    const auto next = record.rung(below + 1);
                    if (next != kNoFlip ||
                        count <= manifest.max_hammer_count) {
                      ++counters.hits;
                      emit_u64_value(static_cast<std::uint64_t>(below));
                      return;
                    }
                  }
                }
                break;
              }
              case Kind::kRetention:
                if (record.has_retention()) {
                  ++counters.hits;
                  emit_double_value(record.retention_s());
                  return;
                }
                break;
            }
          }

          // -- Overlay: answers recorded from earlier fallbacks.
          const OverlayKey overlay_key{
              static_cast<std::uint64_t>(kind), k_or_count, ch, pc, bank,
              row, pattern_id, on_cycles};
          std::uint64_t recorded = 0;
          if (overlay_find(overlay_key, &recorded)) {
            ++counters.overlay_hits;
            switch (kind) {
              case Kind::kHc:
                emit_hc_value(recorded);
                return;
              case Kind::kBer:
                emit_u64_value(recorded);
                return;
              case Kind::kRetention: {
                double value = 0.0;
                std::memcpy(&value, &recorded, 8);
                emit_double_value(value);
                return;
              }
            }
          }
        }

        // -- Miss: live simulation from canonical state (or a refusal).
        ++counters.misses;
        if (fallback == nullptr || !fallback_enabled_) {
          emit_error(response, line_no, "not in index (fallback disabled)",
                     counters);
          return;
        }
        ++counters.fallback_simulations;
        const dram::RowAddress victim{
            {static_cast<int>(ch), static_cast<int>(pc),
             static_cast<int>(bank)},
            static_cast<int>(row)};
        std::uint64_t recorded = 0;
        switch (kind) {
          case Kind::kHc: {
            const auto hc = simulate_hc_nth(
                *fallback, victim, study::kAllPatterns[pattern_id],
                on_cycles, static_cast<int>(k_or_count),
                manifest.max_hammer_count);
            recorded = hc;
            emit_hc_value(hc);
            break;
          }
          case Kind::kBer: {
            const auto flips = simulate_bitflips_at(
                *fallback, victim, study::kAllPatterns[pattern_id],
                on_cycles, k_or_count,
                std::max(manifest.max_hammer_count, k_or_count));
            recorded = static_cast<std::uint64_t>(flips);
            emit_u64_value(recorded);
            break;
          }
          case Kind::kRetention: {
            const auto seconds = simulate_min_retention(*fallback, victim);
            std::memcpy(&recorded, &seconds, 8);
            emit_double_value(seconds);
            break;
          }
        }
        if (!bypass_index_) {
          const OverlayKey overlay_key{
              static_cast<std::uint64_t>(kind), k_or_count, ch, pc, bank,
              row, pattern_id, on_cycles};
          overlay_record(overlay_key, recorded);
        }
      };

  // One request line; expands ranges / pattern wildcards in order.
  const auto run_line = [&](std::string_view line, std::size_t line_no) {
    tokenize(line, scratch.tokens);
    const auto& tokens = scratch.tokens;
    if (tokens.empty() || tokens[0].front() == '#') return;

    const auto verb = tokens[0];
    Kind kind = Kind::kHc;
    std::uint64_t k_or_count = 1;
    std::size_t arg = 1;
    bool takes_pattern = true;
    if (verb == "hc_first") {
      kind = Kind::kHc;
    } else if (verb == "hc_nth") {
      kind = Kind::kHc;
      if (tokens.size() < 2) {
        emit_error(response, line_no, "hc_nth needs <k>", counters);
        return;
      }
      const auto k = util::parse_u64(tokens[1]);
      if (!k || *k < 1 || *k > 255) {
        emit_error(response, line_no, "bad k (want 1..255)", counters);
        return;
      }
      k_or_count = *k;
      arg = 2;
    } else if (verb == "ber") {
      kind = Kind::kBer;
      if (tokens.size() < 2) {
        emit_error(response, line_no, "ber needs <count>", counters);
        return;
      }
      const auto count = util::parse_u64(tokens[1]);
      if (!count) {
        emit_error(response, line_no, "bad hammer count", counters);
        return;
      }
      k_or_count = *count;
      arg = 2;
    } else if (verb == "min_retention") {
      kind = Kind::kRetention;
      takes_pattern = false;
    } else {
      emit_error(response, line_no, "unknown verb", counters);
      return;
    }

    const std::size_t fixed = takes_pattern ? 5 : 4;
    if (tokens.size() < arg + fixed - 1) {
      emit_error(response, line_no, "too few arguments", counters);
      return;
    }
    const auto channel = util::parse_u64(tokens[arg]);
    const auto pseudo_channel = util::parse_u64(tokens[arg + 1]);
    if (!channel || *channel >= manifest.channels || !pseudo_channel ||
        *pseudo_channel >= manifest.pseudo_channels) {
      emit_error(response, line_no, "bad channel/pseudo-channel", counters);
      return;
    }
    const auto banks = parse_range(tokens[arg + 2], manifest.banks);
    if (!banks) {
      emit_error(response, line_no, "bad bank (or range)", counters);
      return;
    }
    const auto rows = parse_range(tokens[arg + 3], manifest.rows);
    if (!rows) {
      emit_error(response, line_no, "bad row (or range)", counters);
      return;
    }

    std::uint32_t pattern_lo = 0;
    std::uint32_t pattern_hi = 0;
    std::uint64_t on_cycles = 0;
    std::size_t next = arg + 4;
    if (takes_pattern) {
      const auto spec = tokens[arg + 4];
      if (spec == "*") {
        pattern_hi = static_cast<std::uint32_t>(
            study::kAllPatterns.size() - 1);
      } else {
        const auto pattern = parse_pattern(spec);
        if (!pattern) {
          emit_error(response, line_no, "bad pattern (or *)", counters);
          return;
        }
        pattern_lo = pattern_hi =
            static_cast<std::uint32_t>(*pattern);
      }
      next = arg + 5;
      if (next < tokens.size() && tokens[next].rfind("on=", 0) == 0) {
        const auto ns = util::parse_double(tokens[next].substr(3));
        if (!ns || *ns < 0.0 || *ns > 1e12) {
          emit_error(response, line_no, "bad on=<ns>", counters);
          return;
        }
        on_cycles =
            static_cast<std::uint64_t>(dram::ns_to_cycles(*ns));
        ++next;
      }
    }
    if (next != tokens.size()) {
      emit_error(response, line_no, "trailing arguments", counters);
      return;
    }

    for (std::uint32_t bank = banks->lo; bank <= banks->hi; ++bank) {
      for (std::uint32_t row = rows->lo; row <= rows->hi; ++row) {
        for (std::uint32_t pattern = pattern_lo; pattern <= pattern_hi;
             ++pattern) {
          answer_point(kind, k_or_count,
                       static_cast<std::uint32_t>(*channel),
                       static_cast<std::uint32_t>(*pseudo_channel), bank,
                       row, pattern, on_cycles, line_no);
        }
      }
    }
  };

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < request.size()) {
    auto newline = request.find('\n', pos);
    if (newline == std::string_view::npos) newline = request.size();
    ++line_no;
    run_line(request.substr(pos, newline - pos), line_no);
    pos = newline + 1;
  }

  counters.bytes_served += response.size() - start_bytes;
}

}  // namespace hbmrd::serve
