// CLI verbs of the serving layer (docs/SERVING.md), dispatched from
// tools/hbmrd_shell.cpp:
//
//   hbmrd_shell export --index PATH (--from-campaign CSV | --measure) ...
//   hbmrd_shell query  (--index PATH [--force-miss] [--no-fallback]
//                       | --socket PATH) [--batch FILE|-] ...
//   hbmrd_shell serve  --index PATH --socket PATH [--threads N] ...
//
// Exit codes follow the repo convention: 0 success, 1 runtime failure
// (bad index, unreachable server, storage error), 2 usage error (unknown
// flag, missing required flag, malformed value) with the one line
// `error: ...` on stderr. Each verb declares its flags as a util::Cli
// table; `--help` prints the usage text and that table. `cli_main` is a
// pure function of (args, streams) so the exit-code audit in
// tests/serve_cli_test.cpp drives it in-process.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace hbmrd::serve {

/// Entry point for the serve verbs; `args[0]` is the verb itself
/// ("export", "query", "serve"). Reads batch text from `in` when
/// `--batch -` (the default) asks for stdin.
int cli_main(const std::vector<std::string>& args, std::istream& in,
             std::ostream& out, std::ostream& err);

/// True when `verb` is one this module handles (the shell's dispatcher).
[[nodiscard]] bool handles_verb(const std::string& verb);

}  // namespace hbmrd::serve
