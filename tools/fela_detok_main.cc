// fela-detok: offline detokenizer for FELATRB1 binary traces. Renders
// a transcript through the FELATOK1 token table it carries (the formats
// of every token it uses; sim/trace_io.h), so nothing but the .bin is
// needed: either the human-readable event timeline — byte-identical to
// TraceRecorder::ToString() in-process — or the Chrome trace-event JSON
// for Perfetto (--chrome), byte-identical to the chrome_trace.json the
// run itself would have written.
//
//   fela-detok [--chrome] <trace.bin>
//
// A truncated trace renders everything up to the cut plus an explicit
// end-of-stream marker (text mode); tokens the table lacks (a bare body,
// or a table cut short) render as <token xxxxxxxx?>. Exit codes: 0 ok
// (including truncated input), 2 usage, I/O, malformed header or
// malformed token table.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/tokenize.h"
#include "sim/trace_io.h"

namespace {

bool ReadFile(const std::string& path, std::string* contents) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *contents = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool chrome = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--chrome") {
      chrome = true;
    } else if (a.rfind("--", 0) == 0) {
      std::cerr << "fela-detok: unknown flag " << a << "\n";
      return 2;
    } else if (trace_path.empty()) {
      trace_path = a;
    } else {
      std::cerr << "fela-detok: more than one trace file given\n";
      return 2;
    }
  }
  if (trace_path.empty()) {
    std::cerr << "usage: fela-detok [--chrome] <trace.bin>\n";
    return 2;
  }

  std::string bytes;
  if (!ReadFile(trace_path, &bytes)) {
    std::cerr << "fela-detok: cannot read " << trace_path << "\n";
    return 2;
  }
  fela::obs::BinaryTraceData data;
  std::string error;
  if (!fela::obs::ParseBinaryTrace(bytes, &data, &error)) {
    std::cerr << "fela-detok: " << trace_path << ": " << error << "\n";
    return 2;
  }
  // The parser has already checked every entry hashes to its token and
  // the tokens strictly increase, so registration cannot collide.
  fela::common::TokenRegistry registry;
  for (const auto& [token, fmt] : data.tokens) registry.Register(token, fmt);

  if (chrome) {
    std::cout << fela::obs::RenderChromeTrace(data, &registry);
  } else {
    std::cout << fela::obs::RenderTraceText(data, &registry);
  }
  return 0;
}
