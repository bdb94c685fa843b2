// g10_convert — converts run traces between the text log format and the
// binary columnar `.g10t` format (DESIGN.md §16):
//
//   g10_convert --in <trace> --out <trace> [flags]
//                                      (--help lists them and exits 2)
//
// The input format is sniffed from the file's bytes (the .g10t magic, not
// the extension); --to auto converts to the opposite format. Converting
// text -> binary parses once and writes the columnar blocks; binary ->
// text decodes every block and re-renders the canonical log. Both
// directions are lossless: a text log converted to .g10t and back is byte-
// identical (comments and blank lines excepted — the parser drops those,
// so the round trip canonicalizes them away).
//
// --verify re-reads the written output, renders both sides through the
// canonical log writer, and fails loudly on any byte difference — the
// paranoid mode for archiving traces.
//
// --lenient skips malformed text lines / corrupt binary blocks instead of
// stopping at the first one (the converted file then holds the surviving
// records).
//
// Exit codes (src/common/exit_codes.hpp): 0 success, 1 internal error or
// --verify mismatch, 2 bad arguments, 3 unreadable/corrupt input (including
// a truncated or corrupt .g10t header).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"
#include "trace/trace_reader.hpp"

namespace g10 {
namespace {

enum class TraceFormat {
  kAuto,  ///< the opposite of the input's format
  kText,
  kBinary,
};

/// The formats' names on the command line, in usage order.
const std::vector<std::pair<std::string, TraceFormat>> kTraceFormatNames = {
    {"auto", TraceFormat::kAuto},
    {"text", TraceFormat::kText},
    {"binary", TraceFormat::kBinary}};

struct Args {
  std::string in_path;
  std::string out_path;
  TraceFormat to = TraceFormat::kAuto;
  std::uint64_t block_records = trace::kG10tDefaultBlockRecords;
  bool verify = false;
  bool lenient = false;
  int threads = 0;
};

cli::Table flag_table(Args& args) {
  return {"g10_convert --in <trace> --out <trace> [flags]",
          {{"--in <trace>", &args.in_path, "text or .g10t trace to read"},
           {"--out <trace>", &args.out_path, "trace to write"},
           {"--to", cli::one_of(&args.to, kTraceFormatNames),
            "output format; auto = the other one"},
           {"--block-records N", &args.block_records,
            "records per .g10t block", 1},
           {"--verify", cli::Switch{&args.verify},
            "re-read the output, compare canonical bytes"},
           {"--lenient", cli::Switch{&args.lenient},
            "skip damaged lines or blocks"},
           {"--threads N", &args.threads, "decode threads, 0 = auto", 0,
            cli::kMaxConcurrency}}};
}

/// Renders the canonical text form (what write_log emits) of a node log.
std::string render_canonical(const trace::NodeLog& log) {
  std::ostringstream out;
  trace::write_log(out, log);
  return std::move(out).str();
}

int run(const Args& args) {
  trace::TraceReadOptions read_options;
  read_options.recover = args.lenient;
  read_options.threads = args.threads;
  trace::TraceReader::OpenResult opened =
      trace::TraceReader::open(args.in_path, read_options);
  if (!opened.ok()) {
    std::cerr << *opened.error << '\n';
    return kExitParseFailure;
  }
  trace::TraceReader& reader = *opened.reader;

  trace::NodeParseResult parsed = reader.read_nodes();
  if (!parsed.ok() && !args.lenient) {
    std::cerr << args.in_path << ": " << parsed.error_count << " damaged "
              << (reader.is_binary() ? "block(s)" : "line(s)")
              << "; re-run with --lenient to convert the rest:\n";
    for (const auto& error : parsed.errors) {
      std::cerr << "  " << error.message << '\n';
    }
    return kExitParseFailure;
  }
  if (parsed.error_count > 0) {
    std::cout << "lenient: skipped " << parsed.error_count << " damaged "
              << (reader.is_binary() ? "block(s)" : "line(s)") << '\n';
  }

  TraceFormat to = args.to;
  if (to == TraceFormat::kAuto) {
    to = reader.is_binary() ? TraceFormat::kText : TraceFormat::kBinary;
  }

  if (to == TraceFormat::kBinary) {
    trace::G10tWriteOptions write_options;
    write_options.block_records = args.block_records;
    std::string error;
    if (!trace::write_g10t_file(args.out_path, parsed.log, write_options,
                                &error)) {
      std::cerr << error << '\n';
      return kExitInternalError;
    }
  } else {
    std::ofstream out(args.out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << args.out_path << " for writing\n";
      return kExitInternalError;
    }
    trace::write_log(out, parsed.log);
    out.flush();
    if (!out) {
      std::cerr << "write to " << args.out_path << " failed\n";
      return kExitInternalError;
    }
  }

  std::cout << "converted " << args.in_path << " ("
            << (reader.is_binary() ? "binary" : "text") << ") -> "
            << args.out_path << " ("
            << (to == TraceFormat::kBinary ? "binary" : "text")
            << "): " << parsed.log.phase_events.size() << " phase events, "
            << parsed.log.blocking_events.size() << " blocking events, "
            << parsed.log.samples.size() << " samples";
  if (to == TraceFormat::kBinary) {
    trace::TraceReader::OpenResult written =
        trace::TraceReader::open(args.out_path, {});
    if (written.ok() && written.reader->structure() != nullptr) {
      const trace::G10tStructure& structure = *written.reader->structure();
      std::cout << ", " << structure.index.size() << " blocks, "
                << structure.symbols.size() << " symbols, "
                << structure.header.file_size << " bytes";
    }
  }
  std::cout << '\n';

  if (!args.verify) return kExitOk;

  // Round-trip verification: the written file, read back, must render to
  // the exact bytes the input's records render to.
  trace::TraceReadOptions verify_options;
  verify_options.threads = args.threads;
  trace::NodeParseResult reread =
      trace::read_trace_nodes(args.out_path, verify_options);
  if (!reread.ok()) {
    std::cerr << "verify: cannot re-read " << args.out_path << ": "
              << reread.errors.front().message << '\n';
    return kExitInternalError;
  }
  const std::string original = render_canonical(parsed.log);
  const std::string round_tripped = render_canonical(reread.log);
  if (original != round_tripped) {
    std::cerr << "verify: round trip is NOT byte-identical ("
              << original.size() << " vs " << round_tripped.size()
              << " canonical bytes)\n";
    return kExitInternalError;
  }
  std::cout << "verify: round trip byte-identical (" << original.size()
            << " canonical bytes)\n";
  return kExitOk;
}

}  // namespace
}  // namespace g10

int main(int argc, char** argv) {
  g10::Args args;
  const g10::cli::Table table = g10::flag_table(args);
  if (const int rc = g10::cli::parse(table, argc, argv)) return rc;
  if (args.in_path.empty() || args.out_path.empty()) {
    return g10::cli::usage_error(table);
  }
  try {
    return g10::run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return g10::kExitInternalError;
  }
}
