#include "serve/cli.h"

#include <istream>
#include <iterator>
#include <optional>
#include <ostream>

#include "dram/timing.h"
#include "obs/metrics.h"
#include "runner/shard.h"
#include "serve/export.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/parse.h"
#include "util/store.h"

namespace hbmrd::serve {

namespace {

/// Each verb's flags.
std::vector<util::Flag> flags_of(const std::string& verb) {
  constexpr auto kBool = util::FlagKind::kBool;
  constexpr auto kInt = util::FlagKind::kInt;
  constexpr auto kText = util::FlagKind::kString;
  if (verb == "export") {
    return {{"--index", kText, "index file to write"},
            {"--from-campaign", kText, "source: a campaign CSV (or --measure)"},
            {"--measure", kBool, "source: measure the chip live"},
            {"--seed", kInt, "platform seed"},
            {"--chip", kInt, "chip index (default 1)"},
            {"--hc-depth", kInt, "HC_nth rungs per record, 1..255"},
            {"--max-count", kInt, "HC search bound in hammers"},
            {"--channel", kInt, "measure: channel (default 0)"},
            {"--pc", kInt, "measure: pseudo channel (default 0)"},
            {"--bank", kText, "measure: bank N or LO..HI (default 0)"},
            {"--rows", kText, "measure: rows LO..HI (required)"},
            {"--patterns", kText, "measure: patterns P,.. or * (default *)"},
            {"--on", kText, "measure: aggressor on-times NS,.. (default 0)"},
            {"--retention", kBool, "measure: also record retention times"}};
  }
  if (verb == "query") {
    return {{"--index", kText, "answer from this index (or --socket)"},
            {"--socket", kText, "send the batch to this server"},
            {"--batch", kText, "batch file, - for stdin (default -)"},
            {"--force-miss", kBool, "--index: simulate every query"},
            {"--no-fallback", kBool, "--index: refuse queries it lacks"},
            {"--metrics-out", kText, "write serve.* counters as JSON"}};
  }
  return {{"--index", kText, "index file to serve"},
          {"--socket", kText, "Unix socket to listen on"},
          {"--threads", kInt, "worker threads, 1..256 (default 1)"},
          {"--force-miss", kBool, "simulate every query"},
          {"--metrics-out", kText, "write serve.* counters as JSON"}};
}

int usage_error(std::ostream& err, const std::string& what) {
  err << "error: " << what << "\n";
  return 2;
}

void write_metrics(const std::string& path, const ServeCounters& counters,
                   std::uint64_t connections) {
  if (path.empty()) return;
  obs::MetricsRegistry metrics;
  obs::add_counters(metrics, counters);
  metrics.add("serve.connections", connections);
  metrics.write_snapshot(*util::default_store(), path);
}

// -- export -----------------------------------------------------------------

int run_export(const util::Cli& cli, std::ostream& out, std::ostream& err) {
  const auto index_path = cli.get_string("--index", "");
  if (index_path.empty()) return usage_error(err, "--index PATH required");
  const bool from_campaign = cli.has("--from-campaign");
  const bool measure = cli.has("--measure");
  if (from_campaign == measure) {
    return usage_error(err,
                       "pick exactly one of --from-campaign / --measure");
  }

  ExportSpec spec;
  const auto seed = cli.get_int(
      "--seed", static_cast<std::int64_t>(spec.platform_seed));
  const auto chip = cli.get_int("--chip", spec.chip_index);
  const auto depth = cli.get_int("--hc-depth", spec.hc_depth);
  const auto max_count = cli.get_int(
      "--max-count", static_cast<std::int64_t>(spec.max_hammer_count));
  if (seed < 0 || chip < 0 || chip >= dram::kChipCount) {
    return usage_error(err, "bad --seed / --chip");
  }
  if (depth < 1 || depth > 255 || max_count <= 0) {
    return usage_error(err, "bad --hc-depth / --max-count");
  }
  spec.platform_seed = static_cast<std::uint64_t>(seed);
  spec.chip_index = static_cast<std::uint32_t>(chip);
  spec.hc_depth = static_cast<std::uint32_t>(depth);
  spec.max_hammer_count = static_cast<std::uint64_t>(max_count);

  IndexBuilder builder(manifest_for(spec));
  if (from_campaign) {
    const auto report = export_campaign_csv(
        *util::default_store(), cli.get_string("--from-campaign", ""), builder);
    out << "export: ingested " << report.rows_ingested << " row(s), "
        << "skipped " << report.rows_skipped << "\n";
  } else {
    const auto channel = cli.get_int("--channel", 0);
    const auto pc = cli.get_int("--pc", 0);
    if (channel < 0 || channel >= dram::kChannels || pc < 0 ||
        pc >= dram::kPseudoChannels) {
      return usage_error(err, "bad --channel / --pc");
    }
    const auto banks = parse_range(cli.get_string("--bank", "0"),
                                   dram::kBanksPerPseudoChannel);
    if (!banks) return usage_error(err, "bad --bank");
    if (!cli.has("--rows")) {
      return usage_error(err, "--measure needs --rows LO..HI");
    }
    const auto rows =
        parse_range(cli.get_string("--rows", ""), dram::kRowsPerBank);
    if (!rows) return usage_error(err, "bad --rows");

    MeasureSpec measure_spec;
    for (auto bank = banks->lo; bank <= banks->hi; ++bank) {
      measure_spec.banks.push_back({static_cast<int>(channel),
                                    static_cast<int>(pc),
                                    static_cast<int>(bank)});
    }
    for (auto row = rows->lo; row <= rows->hi; ++row) {
      measure_spec.rows.push_back(static_cast<int>(row));
    }
    const auto patterns = cli.get_string("--patterns", "*");
    if (patterns == "*") {
      measure_spec.patterns.assign(study::kAllPatterns.begin(),
                                   study::kAllPatterns.end());
    } else {
      for (const auto& name : util::split_csv_line(patterns)) {
        const auto pattern = parse_pattern(name);
        if (!pattern) return usage_error(err, "bad pattern " + name);
        measure_spec.patterns.push_back(*pattern);
      }
    }
    measure_spec.on_cycles_list.clear();
    const auto on_list = util::split_csv_line(cli.get_string("--on", "0"));
    for (const auto& ns_text : on_list) {
      const auto ns = util::parse_double(ns_text);
      if (!ns || *ns < 0.0 || *ns > 1e12) {
        return usage_error(err, "bad --on value " + ns_text);
      }
      measure_spec.on_cycles_list.push_back(
          static_cast<std::uint64_t>(dram::ns_to_cycles(*ns)));
    }
    measure_spec.retention = cli.has("--retention");

    auto chip_obj = bender::HbmChip(
        dram::chip_profiles(spec.platform_seed)[spec.chip_index]);
    const auto map = study::AddressMap::from_scheme(
        chip_obj.profile().mapping);
    FallbackSession session(chip_obj, map);
    const auto report = export_measured(builder, session, measure_spec);
    out << "export: measured " << report.hc_searches
        << " HC search(es), " << report.retention_rows
        << " retention row(s)\n";
  }
  builder.write(*util::default_store(), index_path);
  out << "export: wrote " << index_path << " ("
      << builder.population_count() << " population(s), "
      << builder.row_count() << " row record(s))\n";
  return 0;
}

// -- query ------------------------------------------------------------------

int run_query(const util::Cli& cli, std::istream& in, std::ostream& out,
              std::ostream& err) {
  const auto index_path = cli.get_string("--index", "");
  const auto socket_path = cli.get_string("--socket", "");
  if (index_path.empty() == socket_path.empty()) {
    return usage_error(err, "pick exactly one of --index / --socket");
  }
  if (!socket_path.empty() &&
      (cli.has("--force-miss") || cli.has("--no-fallback"))) {
    return usage_error(
        err, "--force-miss/--no-fallback are local --index modes");
  }

  std::string batch;
  const auto batch_path = cli.get_string("--batch", "-");
  if (batch_path == "-") {
    batch.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  } else {
    const auto contents = util::default_store()->read(batch_path);
    if (!contents) {
      err << "query: batch file " << batch_path
          << " missing or unreadable\n";
      return 1;
    }
    batch = *contents;
  }

  if (!socket_path.empty()) {
    const auto response = query_over_socket(socket_path, batch);
    if (!response) {
      err << "query: no server at " << socket_path << "\n";
      return 1;
    }
    out << *response;
    return 0;
  }

  auto index = Index::load(*util::default_store(), index_path);
  const auto& manifest = index.manifest();
  auto chip = bender::HbmChip(
      dram::chip_profiles(manifest.platform_seed)[manifest.chip_index]);
  const auto map =
      study::AddressMap::from_scheme(chip.profile().mapping);
  FallbackSession session(chip, map);
  QueryEngine engine(std::move(index));
  engine.set_bypass_index(cli.has("--force-miss"));
  engine.set_fallback_enabled(!cli.has("--no-fallback"));
  QueryScratch scratch;
  std::string response;
  ServeCounters counters;
  engine.run_batch(batch, response, scratch, &session, counters);
  out << response;
  write_metrics(cli.get_string("--metrics-out", ""), counters, 0);
  return 0;
}

// -- serve ------------------------------------------------------------------

int run_serve(const util::Cli& cli, std::ostream& out, std::ostream& err) {
  const auto index_path = cli.get_string("--index", "");
  const auto socket_path = cli.get_string("--socket", "");
  if (index_path.empty() || socket_path.empty()) {
    return usage_error(err, "serve needs --index PATH and --socket PATH");
  }
  const auto threads = cli.get_int("--threads", 1);
  if (threads < 1 || threads > 256) {
    return usage_error(err, "bad --threads (want 1..256)");
  }

  auto index = Index::load(*util::default_store(), index_path);
  BatchServerOptions options;
  options.socket_path = socket_path;
  options.threads = static_cast<int>(threads);
  options.bypass_index = cli.has("--force-miss");
  options.log = &out;
  runner::install_graceful_stop();
  options.should_stop = [] { return runner::graceful_stop_requested(); };
  BatchServer server(std::move(index), options);
  const auto report = server.run();
  write_metrics(cli.get_string("--metrics-out", ""), report.counters,
                report.connections);
  out << "serve: " << report.connections << " connection(s), "
      << report.counters.hits << " index hit(s), "
      << report.counters.fallback_simulations
      << " fallback simulation(s)\n";
  return 0;
}

}  // namespace

bool handles_verb(const std::string& verb) {
  return verb == "export" || verb == "query" || verb == "serve";
}

int cli_main(const std::vector<std::string>& args, std::istream& in,
             std::ostream& out, std::ostream& err) {
  constexpr const char* kVerbs = " (expected export, query or serve)";
  if (args.empty()) return usage_error(err, std::string("no verb") + kVerbs);
  const auto& verb = args[0];
  if (!handles_verb(verb)) {
    return usage_error(err, "unknown verb " + verb + kVerbs);
  }
  try {
    const util::Cli cli(args, flags_of(verb));
    if (cli.has("--help")) {
      out << "usage: hbmrd_shell " << verb << " [flags]\n\n";
      cli.print_flags(out);
      return 0;
    }
    if (verb == "export") return run_export(cli, out, err);
    if (verb == "query") return run_query(cli, in, out, err);
    return run_serve(cli, out, err);
  } catch (const std::invalid_argument& error) {  // util::CliError too
    return usage_error(err, error.what());
  } catch (const std::runtime_error& error) {  // IndexError, StoreError
    err << error.what() << "\n";
    return 1;
  }
}

}  // namespace hbmrd::serve
