// Documented process exit codes for the command-line tools, so that
// harnesses (the g10_ensemble executor, CI scripts) can classify a child's
// outcome from its status alone instead of scraping stderr.
//
//   0  success
//   1  internal error (unexpected exception; a bug, not an input problem)
//   2  bad arguments (unknown flag, missing value, a value that does not
//      parse or lies outside its range, invalid combination; common/cli)
//   3  parse failure (unparseable --faults/--dataset spec, malformed model
//      or log file, strict-mode lint/preflight rejection)
//   4  fault abort (the fault schedule is inconsistent with the cluster —
//      e.g. it targets a machine the cluster doesn't have — or the engine
//      aborted while injected faults were active)
//   5  analysis error (inputs parsed but the characterization pipeline
//      could not produce a result)
//   6  interrupted (SIGTERM/SIGINT: in-flight work was cancelled at the
//      next stage boundary and the journal / partial trace was flushed
//      before exiting — an ensemble journal left behind is resumable, and
//      an orphaned ensemble worker whose supervisor died exits with this)
//
// Tools map their failure paths onto these; tests/tools/exit_code_test.cpp
// pins each one. Codes above 6 are reserved.
#pragma once

namespace g10 {

enum ExitCode : int {
  kExitOk = 0,
  kExitInternalError = 1,
  kExitBadArgs = 2,
  kExitParseFailure = 3,
  kExitFaultAbort = 4,
  kExitAnalysisError = 5,
  kExitInterrupted = 6,
};

}  // namespace g10
