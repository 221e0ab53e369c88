// Interactive shell over the simulated HBM2 testbed; see 'help'.
//
// Verb mode (docs/SERVING.md): `hbmrd_shell export|query|serve ...`
// dispatches to the serving layer instead of the REPL — export a
// precomputed threshold index, batch-query it, or run the long-lived
// query server. Usage errors exit 2, runtime failures exit 1.
#include <iostream>
#include <string>
#include <vector>

#include "serve/cli.h"
#include "shell/shell.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  if (argc > 1 && hbmrd::serve::handles_verb(argv[1])) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    return hbmrd::serve::cli_main(args, std::cin, std::cout, std::cerr);
  }
  const auto cli = hbmrd::util::Cli::parse_or_exit(
      argc, argv,
      {{"--seed", hbmrd::util::FlagKind::kInt,
        "platform seed of the REPL's testbed"}},
      "Interactive shell over the simulated HBM2 testbed ('help' lists its\n"
      "commands). Verbs: hbmrd_shell export|query|serve, each with --help.");
  const auto seed = static_cast<std::uint64_t>(cli.get_int(
      "--seed", static_cast<std::int64_t>(hbmrd::dram::kDefaultPlatformSeed)));
  hbmrd::shell::Shell shell(seed);
  return shell.run(std::cin, std::cout) == 0 ? 0 : 1;
}
