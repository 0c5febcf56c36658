// trace_tool — record and characterize memory traces.
//
//   trace_tool record <workload> <n_ops> <out.trace> [core] [seed]
//   trace_tool stats <in.trace>
//
// `record` captures a synthetic workload stream to a portable text trace;
// `stats` prints the Table X-style characterization of any trace file
// (including externally produced ones in the same format). Numbers are
// parsed strictly: a malformed <n_ops>, [core] or [seed] exits 2.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/check.h"
#include "common/parse.h"
#include "trace/trace_io.h"
#include "trace/workload.h"

using namespace rd;

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s record <workload> <n_ops> <out.trace> [core] "
                 "[seed]\n"
                 "       %s stats <in.trace>\n",
                 argv[0], argv[0]);
    return 2;
  }
  try {
    if (std::strcmp(argv[1], "record") == 0) {
      const trace::Workload* w = nullptr;
      std::size_t n = 0;
      unsigned core = 0;
      std::uint64_t seed = 42;
      try {
        RD_CHECK_MSG(argc >= 5, "record needs <workload> <n_ops> <out>");
        w = &trace::workload_by_name(argv[2]);
        n = parse_uint<std::size_t>("n_ops", argv[3]);
        if (argc > 5) core = parse_uint<unsigned>("core", argv[5]);
        if (argc > 6) seed = parse_uint("seed", argv[6]);
      } catch (const CheckFailure& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
      std::ofstream out(argv[4]);
      RD_CHECK_MSG(static_cast<bool>(out), "cannot open " << argv[4]);
      trace::TraceGen gen(*w, core, seed);
      trace::record_trace(gen, n, out);
      std::printf("recorded %zu ops of %s (core %u, seed %llu) to %s\n", n,
                  w->name.c_str(), core,
                  static_cast<unsigned long long>(seed), argv[4]);
      return 0;
    }
    if (std::strcmp(argv[1], "stats") == 0) {
      std::ifstream in(argv[2]);
      RD_CHECK_MSG(static_cast<bool>(in), "cannot open " << argv[2]);
      const auto ops = trace::load_trace(in);
      const trace::TraceStats st = trace::characterize(ops);
      std::printf("ops            : %zu (%zu reads / %zu writes)\n", st.ops,
                  st.reads, st.writes);
      std::printf("instructions   : %llu\n",
                  static_cast<unsigned long long>(st.instructions));
      std::printf("RPKI / WPKI    : %.3f / %.3f\n", st.rpki(), st.wpki());
      std::printf("archive reads  : %zu (%.1f%% of reads)\n",
                  st.archive_reads,
                  st.reads ? 100.0 * static_cast<double>(st.archive_reads) /
                                 static_cast<double>(st.reads)
                           : 0.0);
      std::printf("footprint      : %llu lines (%.1f MB)\n",
                  static_cast<unsigned long long>(st.distinct_lines),
                  st.footprint_mb());
      return 0;
    }
    std::fprintf(stderr, "unknown subcommand: %s\n", argv[1]);
    return 2;
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
