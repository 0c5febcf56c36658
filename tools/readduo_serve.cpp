// readduo_serve — the memory service behind a socket (DESIGN.md §12).
//
//   readduo_serve --listen=unix:/tmp/rd.sock --seed=7
//   READDUO_THREADS=4 readduo_serve --listen=tcp:127.0.0.1:0 --oneshot
//
// Binds the framed wire protocol (src/net/) in front of one
// service::MemoryService and runs the poll loop until SIGINT/SIGTERM —
// or, with --oneshot, until at least one client has connected and all
// connections are gone (the harness mode: run_test_sweep.sh lane 7
// starts a server, points readduo_load --connect at it, and the server
// exits by itself when the load generator hangs up).
//
// The first stdout line is `READDUO_SERVE listening <addr>` with the
// resolved address (tcp port 0 is filled in), so scripts can wait for
// readiness and discover the port. Virtual-time results served over the
// wire are bit-identical to an in-process readduo_load run of the same
// (seed, scheme, workload, shards) — the sequence-merge rule in
// MemoryService makes socket arrival interleaving irrelevant.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/parse.h"
#include "config/loader.h"
#include "net/server.h"
#include "trace/workload.h"

using namespace rd;

namespace {

net::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();  // async-signal-safe
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "\n"
      "options:\n"
      "  --listen=<addr>   unix:<path> or tcp:<host>:<port> (port 0 =\n"
      "                    kernel-assigned; default unix:/tmp/rd.sock)\n"
      "  --scheme=<name>   default Hybrid; one of:\n"
      "                    %s\n"
      "  --workload=<name> locality/write-mix template (default mcf)\n"
      "  --device=<file>   device config (overrides READDUO_DEVICE; a\n"
      "                    client hello naming another device is refused)\n"
      "  --seed=<n>        RNG seed (default 42)\n"
      "  --shards=<n>      chips (default 4)\n"
      "  --queue=<n>       per-shard submission queue bound (default 4096)\n"
      "  --batch=<n>       admission batch size (default 256)\n"
      "  --oneshot         exit when the last client disconnects\n"
      "\n"
      "environment:\n"
      "  READDUO_THREADS          service worker threads\n"
      "  READDUO_SERVE_MAX_FRAME  largest accepted frame payload, bytes\n"
      "  READDUO_SERVE_WBUF       per-connection write-buffer bound\n"
      "  READDUO_SERVE_CONNS      accepted-connection cap\n",
      argv0, readduo::scheme_cli_names().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string scheme = "Hybrid";
  std::string workload = "mcf";
  std::string device_path;
  bool oneshot = false;
  net::ServerConfig cfg;
  cfg.listen = "unix:/tmp/rd.sock";
  service::ServiceConfig& svc = cfg.service;
  svc.sim.seed = 42;

  try {
    for (int i = 1; i < argc; ++i) {
      std::string v;
      if (parse_flag(argv[i], "--listen", v)) {
        cfg.listen = v;
      } else if (parse_flag(argv[i], "--device", v)) {
        device_path = v;
      } else if (parse_flag(argv[i], "--scheme", v)) {
        scheme = v;
      } else if (parse_flag(argv[i], "--workload", v)) {
        workload = v;
      } else if (parse_flag(argv[i], "--seed", v)) {
        svc.sim.seed = parse_uint("--seed", v);
      } else if (parse_flag(argv[i], "--shards", v)) {
        svc.num_shards = parse_uint<unsigned>("--shards", v);
      } else if (parse_flag(argv[i], "--queue", v)) {
        svc.queue_capacity = parse_uint<std::size_t>("--queue", v);
      } else if (parse_flag(argv[i], "--batch", v)) {
        svc.batch_size = parse_uint<std::size_t>("--batch", v);
      } else if (std::strcmp(argv[i], "--oneshot") == 0) {
        oneshot = true;
      } else {
        usage(argv[0]);
        return 2;
      }
    }
    svc.scheme = readduo::scheme_by_name(scheme);
    svc.workload = trace::workload_by_name(workload);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // Pin the device before the service builds its chips; the --device
  // flag wins over the READDUO_DEVICE env knob.
  if (!device_path.empty()) {
    config::set_active_device(config::load_device(device_path),
                              device_path);
  }
  net::apply_server_env(cfg);

  net::Server server(cfg);
  server.start();
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // lint: allow(env-registry) readiness banner, not an environment knob
  std::printf("READDUO_SERVE listening %s\n", server.address().c_str());
  std::printf(
      "[serve] scheme=%s device=%s workload=%s shards=%u threads=%u "
      "queue=%zu batch=%zu seed=%llu%s\n",
      scheme.c_str(), config::active_device().name.c_str(),
      workload.c_str(), server.service().num_shards(),
      server.service().worker_threads(), svc.queue_capacity, svc.batch_size,
      static_cast<unsigned long long>(svc.sim.seed), oneshot ? " oneshot" : "");
  std::fflush(stdout);

  server.run(oneshot);
  g_server = nullptr;

  server.service().stop();
  const service::ServiceStats st = server.service().stats();
  const net::ServerCounters ct = server.counters();
  std::printf(
      "[serve] done: conns=%llu shed=%llu frames=%llu bad=%llu crc=%llu "
      "wire_faults=%llu retries=%llu | submitted=%llu completed=%llu "
      "vt=%.1fms\n",
      static_cast<unsigned long long>(ct.conns_accepted),
      static_cast<unsigned long long>(ct.conns_shed),
      static_cast<unsigned long long>(ct.frames_rx),
      static_cast<unsigned long long>(ct.frames_bad),
      static_cast<unsigned long long>(ct.crc_errors),
      static_cast<unsigned long long>(ct.wire_faults),
      static_cast<unsigned long long>(ct.retries_sent),
      static_cast<unsigned long long>(st.submitted),
      static_cast<unsigned long long>(st.completed),
      static_cast<double>(st.virtual_time.v) / 1e6);
  return 0;
}
