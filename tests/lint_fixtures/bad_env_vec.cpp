// Seeded violations for the bench knobs: a near-miss name that looks like
// the real READDUO_BENCH_FAST knob but is not in the registry must still
// be flagged — a typo would otherwise silently run the full-length
// microbench sampling.
const char* kTypoFast = "READDUO_BENCHFAST";  // expect: env-registry
// The real knobs are registered: no findings.
const char* kFast = "READDUO_BENCH_FAST";
const char* kGate = "READDUO_BENCH_COMPARE";
