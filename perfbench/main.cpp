// perfbench — host-cost benchmark of the ReadDuo stack.
//
//   perfbench --workload=service-mcf --seed=1 --seconds=10 --trace=0
//             [--serve=<readduo_serve binary>] [--mode=run|setup|digest]
//             [--seeds=<a>-<b>]
//
// Drives the library's public entry points for one workload, in units of
// fixed work that repeat until --seconds have passed, and prints one JSON
// line with the unit medians (perfbench/run.py wraps it; NOTES.md says why
// each workload and metric exists). Every unit is built from --seed alone,
// so every unit of a run must end in the same virtual-time digest.
//
//   --mode=run     the measured run (default)
//   --mode=setup   cold set-up only, then print "ready" (setup_s samples)
//   --mode=digest  print the in-process reference digest of each seed in
//                  --seeds (used to pin perfbench/digests.txt)
//
// With --trace=1 the units alternate untraced / traced and the result
// carries per-layer metrics plus the traced-vs-untraced overhead.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/kernels.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "config/apply.h"
#include "config/loader.h"
#include "ecc/bch.h"
#include "memsim/env.h"
#include "memsim/simulator.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/wire_stats.h"
#include "pcm/chip.h"
#include "pcm/line.h"
#include "probes.h"
#include "readduo/schemes.h"
#include "service/memory_service.h"
#include "trace/workload.h"

extern char** environ;

namespace perfbench {
namespace {

using rd::Ns;
using rd::readduo::SchemeKind;

// ---------------------------------------------------------------------------
// Child processes (setup samples, the wire server).

struct Child {
  pid_t pid = -1;
  FILE* out = nullptr;  ///< the child's stdout
};

/// The wire server of the unit in flight, killed if the run aborts.
Child g_server;

Child spawn(const std::vector<std::string>& args) {
  int fds[2];
  RD_CHECK_MSG(::pipe2(fds, O_CLOEXEC) == 0, "pipe2 failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  Child c;
  const int rc =
      posix_spawn(&c.pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  RD_CHECK_MSG(rc == 0, "cannot start " << args[0]);
  c.out = ::fdopen(fds[0], "r");
  return c;
}

std::string read_line(const Child& c) {
  char buf[512];
  if (std::fgets(buf, sizeof buf, c.out) == nullptr) return "";
  std::string s(buf);
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

/// Drain the child's stdout, reap it, and return its peak RSS in MB.
double reap(Child& c, bool* ok) {
  while (!read_line(c).empty()) {
  }
  std::fclose(c.out);
  int status = 0;
  rusage ru{};
  RD_CHECK(::wait4(c.pid, &status, 0, &ru) == c.pid);
  c.pid = -1;
  if (ok != nullptr) *ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Request stream shared by the in-process and wire service workloads: the
// same seed, stream id, rate and draw order as tools/readduo_load.

struct GenReq {
  std::uint64_t line = 0;
  Ns arrival{0};
  bool is_write = false;
  bool archive = false;
};

class Stream {
 public:
  Stream(std::uint64_t seed, const rd::trace::Workload& w)
      : rng_(seed, /*stream=*/0x10ad),
        w_(w),
        write_fraction_(w.wpki / (w.rpki + w.wpki)) {}

  GenReq next() {
    GenReq g;
    g.arrival = t_;
    t_ += gap_;
    g.is_write = rng_.bernoulli(write_fraction_);
    if (!g.is_write && rng_.bernoulli(w_.archive_read_fraction)) {
      g.archive = true;
      g.line = w_.footprint_lines +
               rng_.uniform_below(std::max<std::uint64_t>(1, w_.archive_lines));
    } else {
      g.line = rng_.zipf(w_.footprint_lines, w_.zipf_s);
    }
    return g;
  }

 private:
  rd::Rng rng_;
  const rd::trace::Workload& w_;
  double write_fraction_;
  Ns t_{0};
  /// 2 M requests per virtual second, readduo_load's default rate.
  Ns gap_{rd::from_seconds(1.0 / 2e6).v};
};

std::vector<GenReq> generate(std::uint64_t seed, const rd::trace::Workload& w,
                             std::uint64_t n) {
  Stream s(seed, w);
  std::vector<GenReq> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(s.next());
  return out;
}

rd::service::ServiceConfig service_config(std::uint64_t seed,
                                          const rd::trace::Workload& w) {
  rd::service::ServiceConfig cfg;
  cfg.sim.seed = seed;
  cfg.scheme = SchemeKind::kHybrid;
  cfg.workload = w;
  cfg.num_shards = 4;
  return cfg;  // worker_threads 0 = READDUO_THREADS
}

/// One in-process service run over `n` requests of the stream: the
/// readduo_load producer (submit, yield on a full queue). Traced runs
/// pregenerate the stream to time the generator, and count and time the
/// producer's rejected submissions.
struct ServiceRun {
  rd::service::ServiceStats stats;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

ServiceRun run_service(std::uint64_t seed, const rd::trace::Workload& w,
                       std::uint64_t n, Layers* L) {
  std::vector<GenReq> pre;
  if (L != nullptr) {
    const Clock::time_point t0 = Clock::now();
    pre = generate(seed, w, n);
    L->gen_s += since(t0);
    L->gen_requests += static_cast<double>(n);
  }
  Stream stream(seed, w);
  const Clock::time_point c0 = Clock::now();
  rd::service::MemoryService svc(service_config(seed, w));
  if (L != nullptr) L->construct_s += since(c0);

  ServiceRun out;
  const double cpu0 = process_cpu_s();
  const Clock::time_point b0 = Clock::now();
  for (std::uint64_t i = 1; i <= n; ++i) {
    const GenReq g = L != nullptr ? pre[i - 1] : stream.next();
    rd::service::Request r;
    r.id = i;
    r.line = g.line;
    r.is_write = g.is_write;
    r.archive = g.archive;
    r.arrival = g.arrival;
    if (L == nullptr) {
      while (!svc.submit(r)) std::this_thread::yield();
      continue;
    }
    L->submit_calls += 1;
    if (svc.submit(r)) continue;
    const Clock::time_point p0 = Clock::now();
    do {
      L->submit_rejected += 1;
      std::this_thread::yield();
      L->submit_calls += 1;
    } while (!svc.submit(r));
    L->backpressure_s += since(p0);
  }
  const Clock::time_point d0 = Clock::now();
  svc.drain();
  if (L != nullptr) L->drain_s += since(d0);
  out.wall_s = since(b0);
  out.cpu_s = process_cpu_s() - cpu0;
  out.stats = svc.stats();
  svc.stop();
  return out;
}

std::uint64_t demand_count(const rd::stats::SimMetrics& m) {
  std::uint64_t n = 0;
  for (rd::stats::ReqClass c :
       {rd::stats::ReqClass::kRRead, rd::stats::ReqClass::kMRead,
        rd::stats::ReqClass::kRMRead, rd::stats::ReqClass::kDemandWrite}) {
    n += m.lat(c).count();
  }
  return n;
}

// ---------------------------------------------------------------------------
// Workloads.

/// What one unit did. `requests` is the unit's completed work in the
/// workload's own request unit (see NOTES.md).
struct UnitResult {
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;  ///< per-unit set-up (wire-gcc only)
  double rss_mb = 0.0;   ///< peak RSS of a per-unit server (wire-gcc only)
  std::string digest;
};

/// Where a workload's setup_s comes from.
enum class SetupSource {
  kInProcess,  ///< process start to the end of setup() (one sample)
  kColdChild,  ///< median over fresh --mode=setup child processes
  kPerUnit,    ///< median over the units (each starts its own server)
};

class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  /// Threads the workload keeps busy (host facts).
  virtual unsigned busy_threads() const = 0;
  virtual SetupSource setup_source() const { return SetupSource::kColdChild; }
  /// Process-wide set-up done once before the units (paper-grid).
  virtual void setup() {}
  /// The cold construction a --mode=setup child performs.
  virtual void setup_probe() {}
  virtual UnitResult unit(Layers* L) = 0;
  /// Digest of an independent in-process run of the same inputs.
  virtual std::string reference() { return unit(nullptr).digest; }
  /// Traced-only layer probes run once after the body.
  virtual void probe(Layers&) {}

 protected:
  std::uint64_t seed_;
};

/// In-process MemoryService: Hybrid, mcf template, 4 shards,
/// READDUO_THREADS workers, one yielding producer.
class ServiceMcf final : public Workload {
 public:
  static constexpr std::uint64_t kRequests = 300'000;
  using Workload::Workload;
  unsigned busy_threads() const override {
    return 1 + std::min(4u, rd::parallel_thread_count());
  }
  void setup_probe() override {
    rd::service::MemoryService svc(service_config(seed_, w_));
  }
  UnitResult unit(Layers* L) override {
    const ServiceRun r = run_service(seed_, w_, kRequests, L);
    UnitResult u;
    u.requests = r.stats.completed;
    u.failed = kRequests - std::min(kRequests, r.stats.completed);
    u.wall_s = r.wall_s;
    u.cpu_s = r.cpu_s;
    u.digest = Digest().service(r.stats).hex();
    return u;
  }
  /// Single-shard replay of the unit's stream through a TimedScheme: the
  /// readduo and memsim layers of the service path, timed from outside.
  void probe(Layers& L) override {
    rd::service::ServiceConfig cfg = service_config(seed_, w_);
    rd::memsim::SimConfig sim_cfg = cfg.sim;
    sim_cfg.cpu.num_cores = 0;
    sim_cfg.seed = cfg.sim.seed + 0x9e3779b97f4a7c15ull;  // shard 0's seed
    TimedScheme scheme(rd::readduo::make_scheme(
        cfg.scheme, rd::memsim::make_scheme_env(w_, sim_cfg.cpu, sim_cfg.seed)));
    rd::memsim::Simulator sim(sim_cfg, scheme, w_);

    std::vector<GenReq> shard0;
    for (const GenReq& g : generate(seed_, w_, kRequests)) {
      if (g.line % cfg.num_shards == 0) shard0.push_back(g);
    }
    std::uint64_t done = 0;
    std::uint64_t id = 0;
    const Clock::time_point t0 = Clock::now();
    for (const GenReq& g : shard0) {
      ++id;
      if (g.is_write) {
        while (!sim.external_write(id, g.line, g.arrival)) sim.step_one();
      } else {
        sim.external_read(id, g.line, g.archive, g.arrival);
      }
      if (id % 4096 == 0) done += sim.take_completions().size();
    }
    sim.stop_scrub();
    while (sim.step_one()) {
    }
    done += sim.take_completions().size();
    L.memsim_step_s += since(t0);
    RD_CHECK_MSG(done == shard0.size(), "replay lost requests");
    L.memsim_requests += static_cast<double>(shard0.size());
    L.readduo_calls += static_cast<double>(scheme.calls());
    L.readduo_s += scheme.seconds();
  }

 private:
  const rd::trace::Workload& w_ = rd::trace::workload_by_name("mcf");
};

/// readduo_serve (Hybrid, gcc, 4 shards, READDUO_THREADS workers) driven
/// by one net::Client over a unix socket. Each unit starts a fresh server,
/// so each unit's digest must equal the in-process run of the same seed.
class WireGcc final : public Workload {
 public:
  static constexpr std::uint64_t kRequests = 200'000;
  static constexpr std::size_t kWindow = 256;

  WireGcc(std::uint64_t seed, std::string serve)
      : Workload(seed), serve_(std::move(serve)) {}
  unsigned busy_threads() const override {
    return 2 + std::min(4u, rd::parallel_thread_count());
  }
  SetupSource setup_source() const override { return SetupSource::kPerUnit; }

  UnitResult unit(Layers* L) override {
    UnitResult u;
    const Clock::time_point g0 = Clock::now();
    const std::vector<GenReq> stream = generate(seed_, w_, kRequests);
    if (L != nullptr) {
      L->gen_s += since(g0);
      L->gen_requests += static_cast<double>(kRequests);
    }
    const std::string sock = ".bench_build/pb" + std::to_string(::getpid()) +
                             "-" + std::to_string(units_++) + ".sock";
    ::unlink(sock.c_str());

    // Set-up: server start, its listening banner, connect, hello.
    const Clock::time_point s0 = Clock::now();
    g_server = spawn({serve_, "--listen=unix:" + sock, "--scheme=Hybrid",
                      "--workload=gcc", "--seed=" + std::to_string(seed_),
                      "--shards=4", "--oneshot"});
    const std::string banner = read_line(g_server);
    const std::string kBanner = "READDUO_SERVE listening ";
    RD_CHECK_MSG(banner.rfind(kBanner, 0) == 0,
                 "no listening banner from readduo_serve: " << banner);
    rd::net::Client cli = rd::net::Client::connect_to(banner.substr(kBanner.size()));
    const Clock::time_point h0 = Clock::now();
    hello(cli, L);
    if (L != nullptr) L->hello_s += since(h0);
    u.setup_s = since(s0);

    clockid_t server_clock;
    RD_CHECK(clock_getcpuclockid(g_server.pid, &server_clock) == 0);
    const double cpu0 = process_cpu_s() + clock_seconds(server_clock);
    const Clock::time_point b0 = Clock::now();
    std::array<rd::stats::LatencyHistogram, rd::stats::kNumReqClasses> hist;
    const std::uint64_t completions = drive(cli, stream, hist, L);
    u.wall_s = since(b0);
    u.cpu_s = process_cpu_s() + clock_seconds(server_clock) - cpu0;

    send(cli, rd::net::Op::kStats, 0, "", L);
    const rd::net::Frame sf = cli.recv_frame();
    RD_CHECK_MSG(sf.type == rd::net::type_of(rd::net::Status::kStats),
                 "stats request rejected");
    rd::service::ServiceStats st;
    rd::net::WireServiceInfo info;
    RD_CHECK_MSG(rd::net::decode_stats(sf.payload, st, info),
                 "malformed stats blob");
    send(cli, rd::net::Op::kBye, 0, "", L);
    while (cli.recv_opt().has_value()) {
    }
    cli.close();
    bool exited_ok = false;
    u.rss_mb = reap(g_server, &exited_ok);
    ::unlink(sock.c_str());

    u.requests = completions;
    u.failed = kRequests - std::min(kRequests, completions);
    // Client-merged demand histograms must equal the server's, bit for
    // bit; a mismatch or a failed server exit fails the whole unit.
    bool same = exited_ok && st.completed == kRequests;
    for (std::size_t c = 0;
         c <= static_cast<std::size_t>(rd::stats::ReqClass::kDemandWrite); ++c) {
      same = same && hist[c] == st.metrics.lat(static_cast<rd::stats::ReqClass>(c));
    }
    if (!same) u.failed = kRequests;
    u.digest = Digest().service(st).hex();
    if (L != nullptr) L->wire_requests += static_cast<double>(kRequests);
    return u;
  }

  std::string reference() override {
    return Digest().service(run_service(seed_, w_, kRequests, nullptr).stats).hex();
  }

 private:
  void send(rd::net::Client& cli, rd::net::Op op, std::uint64_t id,
            const std::string& payload, Layers* L) {
    if (L == nullptr) {
      cli.send_frame(op, id, payload);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    std::string out;
    rd::net::encode_frame(op, id, payload, out);
    const Clock::time_point t1 = Clock::now();
    cli.send_raw(out);
    L->send_s += since(t1);
    L->encode_s += std::chrono::duration<double>(t1 - t0).count();
    L->frames_sent += 1;
    L->wire_bytes += static_cast<double>(out.size());
  }

  rd::net::Frame recv(rd::net::Client& cli, Layers* L) {
    if (L == nullptr) return cli.recv_frame();
    const Clock::time_point t0 = Clock::now();
    rd::net::Frame f = cli.recv_frame();
    L->recv_wait_s += since(t0);
    L->wire_bytes += static_cast<double>(rd::net::kHeaderSize + f.payload.size());
    return f;
  }

  void hello(rd::net::Client& cli, Layers* L) {
    std::string body;
    rd::net::put_u64(body, 1);
    const std::string& dev = rd::config::active_device().name;
    rd::net::put_u32(body, static_cast<std::uint32_t>(dev.size()));
    body += dev;
    send(cli, rd::net::Op::kHello, 0, body, L);
    const rd::net::Frame f = recv(cli, L);
    RD_CHECK_MSG(f.type == rd::net::type_of(rd::net::Status::kOk),
                 "hello rejected by server");
  }

  /// readduo_load's pipelined client: a bounded in-flight window with
  /// kRetry resends, then drain. Returns the completions received.
  std::uint64_t drive(
      rd::net::Client& cli, const std::vector<GenReq>& stream,
      std::array<rd::stats::LatencyHistogram, rd::stats::kNumReqClasses>& hist,
      Layers* L) {
    std::map<std::uint64_t, std::pair<rd::net::Op, rd::net::RequestBody>> inflight;
    std::uint64_t completions = 0;
    const auto handle = [&](const rd::net::Frame& f) {
      if (f.type == rd::net::type_of(rd::net::Status::kDone)) {
        rd::net::CompletionBody b;
        RD_CHECK_MSG(rd::net::decode_completion_body(f.payload, b),
                     "malformed completion body");
        RD_CHECK(b.cls < rd::stats::kNumReqClasses);
        hist[b.cls].record(Ns{b.complete.v - b.enqueue.v});
        ++completions;
        RD_CHECK_MSG(inflight.erase(f.id) == 1, "stray completion id");
        return;
      }
      RD_CHECK_MSG(f.type == rd::net::type_of(rd::net::Status::kRetry),
                   "unexpected reply type " << static_cast<unsigned>(f.type));
      const auto it = inflight.find(f.id);
      RD_CHECK_MSG(it != inflight.end(), "retry for unknown seq");
      if (L != nullptr) L->retries += 1;
      send(cli, it->second.first, f.id,
           rd::net::encode_request_body(it->second.second), L);
    };

    std::uint64_t seq = 0;
    for (const GenReq& g : stream) {
      ++seq;
      const rd::net::Op op = g.is_write  ? rd::net::Op::kWrite
                             : g.archive ? rd::net::Op::kScrub
                                         : rd::net::Op::kRead;
      const rd::net::RequestBody body{seq, g.line, g.arrival};
      send(cli, op, seq, rd::net::encode_request_body(body), L);
      inflight.emplace(seq, std::make_pair(op, body));
      while (inflight.size() >= kWindow) handle(recv(cli, L));
      rd::net::Frame f;
      while (cli.try_recv(f)) {
        if (L != nullptr) {
          L->wire_bytes += static_cast<double>(rd::net::kHeaderSize + f.payload.size());
        }
        handle(f);
      }
    }
    const std::uint64_t drain_id = seq + 1;
    std::string drain_body;
    rd::net::put_u64(drain_body, seq);
    send(cli, rd::net::Op::kDrain, drain_id, drain_body, L);
    bool drained = false;
    while (!drained || !inflight.empty()) {
      const rd::net::Frame f = recv(cli, L);
      if (f.id == drain_id) {
        RD_CHECK_MSG(f.type == rd::net::type_of(rd::net::Status::kOk),
                     "drain rejected by server");
        drained = true;
        continue;
      }
      handle(f);
    }
    return completions;
  }

  std::string serve_;
  const rd::trace::Workload& w_ = rd::trace::workload_by_name("gcc");
  unsigned units_ = 0;
};

/// Closed-system Simulator::run() for the six paper schemes x {sphinx3,
/// lbm} on the shared pool. Set-up constructs every scheme once, which
/// builds the R-scrub and M-scrub samplers.
class PaperGrid final : public Workload {
 public:
  static constexpr std::uint64_t kInstructions = 5'000'000;
  using Workload::Workload;
  unsigned busy_threads() const override { return rd::parallel_thread_count(); }
  SetupSource setup_source() const override { return SetupSource::kInProcess; }

  void setup() override {
    for (const Spec& s : specs()) {
      const Clock::time_point t0 = Clock::now();
      rd::readduo::make_scheme(s.kind, env(s));
      setup_make_s_ += since(t0);
    }
  }
  /// Set-up constructions beyond what the same constructions cost warm
  /// in the units (samplers cached) are the sampler builds.
  void probe(Layers& L) override {
    L.sampler_build_s = std::max(0.0, setup_make_s_ - L.make_scheme_s);
    L.make_scheme_s = setup_make_s_;
  }

  UnitResult unit(Layers* L) override {
    const std::vector<Spec> sp = specs();
    struct Out {
      rd::memsim::SimResult sim;
      rd::stats::Counters counters;
      double task_s = 0.0, run_s = 0.0, make_s = 0.0, readduo_s = 0.0;
      std::uint64_t readduo_calls = 0;
    };
    std::vector<Out> out(sp.size());
    const double cpu0 = process_cpu_s();
    const Clock::time_point b0 = Clock::now();
    rd::parallel_for_shards(sp.size(), [&](std::size_t i) {
      const Clock::time_point t0 = Clock::now();
      rd::memsim::SimConfig cfg = sim_config();
      std::unique_ptr<rd::readduo::Scheme> scheme =
          rd::readduo::make_scheme(sp[i].kind, env(sp[i]));
      out[i].make_s = since(t0);
      TimedScheme* timed = nullptr;
      if (L != nullptr) {
        auto t = std::make_unique<TimedScheme>(std::move(scheme));
        timed = t.get();
        scheme = std::move(t);
      }
      rd::memsim::Simulator sim(cfg, *scheme, *sp[i].w);
      const Clock::time_point r0 = Clock::now();
      out[i].sim = sim.run();
      out[i].run_s = since(r0);
      out[i].counters = scheme->counters();
      if (timed != nullptr) {
        out[i].readduo_calls = timed->calls();
        out[i].readduo_s = timed->seconds();
      }
      out[i].task_s = since(t0);
    });
    UnitResult u;
    u.wall_s = since(b0);
    u.cpu_s = process_cpu_s() - cpu0;
    Digest d;
    for (const Out& o : out) {
      d.sim(o.sim).counters(o.counters);
      u.requests += demand_count(o.sim.metrics);
      if (L == nullptr) continue;
      L->memsim_run_s += o.run_s;
      L->memsim_requests += static_cast<double>(demand_count(o.sim.metrics));
      L->readduo_calls += static_cast<double>(o.readduo_calls);
      L->readduo_s += o.readduo_s;
      L->make_scheme_s += o.make_s;
      L->pool_task_s += o.task_s;
    }
    if (L != nullptr) L->pool_capacity_s += rd::parallel_thread_count() * u.wall_s;
    u.digest = d.hex();
    return u;
  }

 private:
  struct Spec {
    SchemeKind kind;
    const rd::trace::Workload* w;
  };
  static std::vector<Spec> specs() {
    std::vector<Spec> out;
    for (const char* name : {"sphinx3", "lbm"}) {
      for (SchemeKind k : {SchemeKind::kIdeal, SchemeKind::kScrubbing,
                           SchemeKind::kMMetric, SchemeKind::kHybrid,
                           SchemeKind::kLwt, SchemeKind::kSelect}) {
        out.push_back({k, &rd::trace::workload_by_name(name)});
      }
    }
    return out;
  }
  rd::memsim::SimConfig sim_config() const {
    rd::memsim::SimConfig cfg;
    rd::config::apply_device(rd::config::active_device(), cfg);
    cfg.instructions_per_core = kInstructions;
    cfg.seed = seed_;
    return cfg;
  }
  rd::readduo::SchemeEnv env(const Spec& s) const {
    return rd::memsim::make_scheme_env(*s.w, sim_config().cpu, seed_);
  }

  double setup_make_s_ = 0.0;
};

/// Functional MlcChip: Hybrid readout, BCH-8, M-scrub. Writes every line,
/// then reads all lines back after each step of the chip clock, so the
/// R->M fallback fires on a fixed share of reads.
class ChipHybrid final : public Workload {
 public:
  static constexpr std::size_t kLines = 1024;
  /// Chip-clock steps (seconds) before each read pass: the passes read
  /// at ages 2, 16, 128, 1024, 4096 and 16384 s. R-sensing starts to fail
  /// BCH-8 past ~2000 s, and the 640 s M-scrub runs 25 times on the way.
  static constexpr std::array<double, 6> kSteps = {2.0,   14.0,   112.0,
                                                   896.0, 3072.0, 12288.0};

  explicit ChipHybrid(std::uint64_t seed) : Workload(seed) {
    rd::Rng rng(seed, /*stream=*/0xc41b);
    payload_.assign(kLines, std::vector<std::uint8_t>(64));
    for (auto& p : payload_) {
      for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
    }
  }
  unsigned busy_threads() const override { return 1; }
  void setup_probe() override { rd::pcm::MlcChip chip(config()); }

  UnitResult unit(Layers* L) override {
    rd::pcm::MlcChip chip(config());
    UnitResult u;
    Digest d;
    const double cpu0 = process_cpu_s();
    const Clock::time_point b0 = Clock::now();
    for (std::size_t l = 0; l < kLines; ++l) {
      if (L == nullptr) {
        chip.write(l, payload_[l]);
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      chip.write(l, payload_[l]);
      L->chip_write_s += since(t0);
      L->chip_writes += 1;
    }
    u.requests += kLines;
    for (double step : kSteps) {
      const Clock::time_point a0 = Clock::now();
      chip.advance_time(step);
      if (L != nullptr) L->chip_advance_s += since(a0);
      for (std::size_t l = 0; l < kLines; ++l) {
        const Clock::time_point t0 = Clock::now();
        const rd::pcm::ChipReadResult r = chip.read(l);
        if (L != nullptr) {
          L->chip_read_s += since(t0);
          L->chip_reads += 1;
        }
        // A read returns the written payload or reports uncorrectable; a
        // silent mismatch is a failed operation.
        if (r.corrected && r.data != payload_[l]) ++u.failed;
        d.u64(r.used_m_sense).u64(r.corrected).u64(r.errors_corrected);
      }
      u.requests += kLines;
    }
    u.wall_s = since(b0);
    u.cpu_s = process_cpu_s() - cpu0;
    const rd::pcm::ChipStats& s = chip.stats();
    if (L != nullptr) L->chip_m_fallbacks += static_cast<double>(s.m_fallbacks);
    d.u64(s.reads).u64(s.m_fallbacks).u64(s.writes).u64(s.scrub_passes);
    d.u64(s.scrub_rewrites).u64(s.cells_retired).u64(s.uncorrectable);
    d.u64(s.injected_faults).f64(chip.now());
    u.digest = d.hex();
    return u;
  }

  /// BCH-8 and MlcLine kernels on the unit's payloads and age mix.
  void probe(Layers& L) override {
    const rd::ecc::BchCode bch(/*m=*/10, /*t=*/8, /*data_bits=*/512);
    const rd::drift::MetricConfig& r_cfg = rd::config::active_device().r_metric;
    rd::Rng rng(seed_, /*stream=*/0x5e75);
    for (const std::vector<std::uint8_t>& p : payload_) {
      rd::BitVec data(512);
      for (std::size_t i = 0; i < 512; ++i) data.set(i, (p[i / 8] >> (i % 8)) & 1);
      Clock::time_point t0 = Clock::now();
      const rd::BitVec cw = bch.encode(data);
      L.ecc_encode_s += since(t0);
      L.ecc_encodes += 1;
      rd::pcm::MlcLine line(cw.size());
      line.write_full(cw, 0.0, rng, r_cfg);
      double age = 0.0;
      for (double step : kSteps) {
        age += step;
        t0 = Clock::now();
        rd::BitVec sensed = line.read(age, r_cfg);
        const Clock::time_point t1 = Clock::now();
        bch.decode(sensed);
        L.ecc_decode_s += since(t1);
        L.line_sense_s += std::chrono::duration<double>(t1 - t0).count();
        L.ecc_decodes += 1;
        L.line_senses += 1;
      }
    }
  }

 private:
  rd::pcm::ChipConfig config() const {
    rd::pcm::ChipConfig cfg;
    cfg.num_lines = kLines;
    cfg.readout = rd::pcm::ReadoutPolicy::kHybrid;
    cfg.scrub_interval_s = 640.0;
    cfg.scrub_w = 1;
    cfg.scrub_with_m = true;
    cfg.seed = seed_;
    return cfg;
  }

  std::vector<std::vector<std::uint8_t>> payload_;
};

// ---------------------------------------------------------------------------
// Driver.

/// Milliseconds of a fixed single-thread integer + L1/L2 kernel, median
/// of three: how fast the host runs plain code at this moment. Recorded
/// with the result so a slow run can be traced to the host.
double host_probe_ms() {
  std::vector<double> t;
  std::vector<std::uint64_t> table(1 << 15);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x & (table.size() - 1)] += x;
    }
    t.push_back(1e3 * since(t0));
  }
  if (table[x & 7] == 1) std::fprintf(stderr, " ");  // keep the loop live
  return median(t);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string mode = "run";
  std::string serve;
  std::uint64_t seed_lo = 0, seed_hi = 0;
};

std::unique_ptr<Workload> make_workload(const Args& a, std::uint64_t seed) {
  if (a.workload == "service-mcf") return std::make_unique<ServiceMcf>(seed);
  if (a.workload == "wire-gcc") return std::make_unique<WireGcc>(seed, a.serve);
  if (a.workload == "paper-grid") return std::make_unique<PaperGrid>(seed);
  if (a.workload == "chip-hybrid") return std::make_unique<ChipHybrid>(seed);
  RD_CHECK_MSG(false, "unknown workload: " << a.workload);
  return nullptr;
}

/// Cold set-up in fresh processes: spawn to "ready", median of `n`.
double sample_cold_setup(const Args& a, int n) {
  std::vector<double> s;
  for (int i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    Child c = spawn({"/proc/self/exe", "--mode=setup", "--workload=" + a.workload,
                     "--seed=" + std::to_string(a.seed)});
    const std::string line = read_line(c);
    s.push_back(since(t0));
    bool ok = false;
    reap(c, &ok);
    RD_CHECK_MSG(ok && line == "ready", "set-up child failed");
  }
  return median(s);
}

class JsonMetrics {
 public:
  void add(const std::string& name, double v, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" + unit + "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string join(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.6g", out.empty() ? "" : ",", x);
    out += buf;
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void add_layer_metrics(JsonMetrics& m, const Layers& x, double overhead_rps) {
  const double self_s = x.memsim_run_s + x.memsim_step_s - x.readduo_s;
  m.add("readduo.calls", x.readduo_calls, "count");
  m.add("readduo.self_s", x.readduo_s, "s");
  m.add("readduo.ns_per_call", 1e9 * ratio(x.readduo_s, x.readduo_calls), "ns");
  m.add("memsim.run_s", x.memsim_run_s, "s");
  m.add("memsim.step_s", x.memsim_step_s, "s");
  m.add("memsim.requests", x.memsim_requests, "count");
  m.add("memsim.ns_per_request",
        1e9 * ratio(x.memsim_run_s + x.memsim_step_s, x.memsim_requests), "ns");
  m.add("memsim.self_s", x.memsim_requests > 0 ? self_s : 0.0, "s");
  m.add("service.submit_calls", x.submit_calls, "count");
  m.add("service.submit_rejected", x.submit_rejected, "count");
  m.add("service.accept_ratio",
        ratio(x.submit_calls - x.submit_rejected, x.submit_calls), "ratio");
  m.add("service.backpressure_s", x.backpressure_s, "s");
  m.add("service.drain_s", x.drain_s, "s");
  m.add("service.construct_s", x.construct_s, "s");
  m.add("common.pool_busy_ratio", ratio(x.pool_task_s, x.pool_capacity_s), "ratio");
  m.add("net.encode_ns", 1e9 * ratio(x.encode_s, x.frames_sent), "ns");
  m.add("net.send_s", x.send_s, "s");
  m.add("net.recv_wait_s", x.recv_wait_s, "s");
  m.add("net.frames_sent", x.frames_sent, "count");
  m.add("net.retries", x.retries, "count");
  m.add("net.bytes_per_req", ratio(x.wire_bytes, x.wire_requests), "B");
  m.add("net.hello_s", x.hello_s, "s");
  m.add("pcm.write_ns", 1e9 * ratio(x.chip_write_s, x.chip_writes), "ns");
  m.add("pcm.read_ns", 1e9 * ratio(x.chip_read_s, x.chip_reads), "ns");
  m.add("pcm.advance_s", x.chip_advance_s, "s");
  m.add("pcm.m_fallback_ratio", ratio(x.chip_m_fallbacks, x.chip_reads), "ratio");
  m.add("ecc.encode_ns", 1e9 * ratio(x.ecc_encode_s, x.ecc_encodes), "ns");
  m.add("ecc.decode_ns", 1e9 * ratio(x.ecc_decode_s, x.ecc_decodes), "ns");
  m.add("pcm.line_sense_ns", 1e9 * ratio(x.line_sense_s, x.line_senses), "ns");
  m.add("drift.sampler_build_s", x.sampler_build_s, "s");
  m.add("readduo.make_scheme_s", x.make_scheme_s, "s");
  m.add("trace.gen_ns_per_req", 1e9 * ratio(x.gen_s, x.gen_requests), "ns");
  m.add("trace.overhead_rps", overhead_rps, "1/s");
}

int run(const Args& a, Clock::time_point t_main) {
  std::unique_ptr<Workload> w = make_workload(a, a.seed);
  w->setup();
  const double setup_once_s = since(t_main);
  const double probe_start_ms = host_probe_ms();
  const SetupSource source = w->setup_source();
  const double cold_setup_s =
      source == SetupSource::kColdChild ? sample_cold_setup(a, 21) : 0.0;

  // Body: whole units until --seconds have passed (at least 3 per kind);
  // a traced run alternates untraced and traced units.
  std::vector<UnitResult> plain, traced;
  Layers layers;
  const Clock::time_point body0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t min_units = 3;
    if (since(body0) >= a.seconds && plain.size() >= min_units &&
        (!a.trace || traced.size() >= min_units)) {
      break;
    }
    const bool trace_unit = a.trace && i % 2 == 1;
    (trace_unit ? traced : plain).push_back(w->unit(trace_unit ? &layers : nullptr));
  }
  const double rss_mb = self_peak_rss_mb();

  // Every unit, traced ones included, must end in the same digest, and so
  // must an independent in-process run of the same inputs (for wire-gcc,
  // the in-process service the wire run has to reproduce).
  const std::string digest = plain.front().digest;
  const std::string reference = w->reference();
  bool consistent = reference == digest;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> rps, traced_rps, cpu_us, unit_setup, unit_rss;
  for (const UnitResult& u : plain) {
    rps.push_back(ratio(static_cast<double>(u.requests), u.wall_s));
    cpu_us.push_back(1e6 * ratio(u.cpu_s, static_cast<double>(u.requests)));
    unit_setup.push_back(u.setup_s);
    unit_rss.push_back(u.rss_mb);
  }
  for (const UnitResult& u : traced) {
    traced_rps.push_back(ratio(static_cast<double>(u.requests), u.wall_s));
  }
  for (const std::vector<UnitResult>* v : {&plain, &traced}) {
    for (const UnitResult& u : *v) {
      attempted += u.requests + u.failed;
      failed += u.failed;
      if (u.digest != digest) {
        consistent = false;
        failed += u.requests;
      }
    }
  }
  if (reference != digest) failed = attempted;
  const double probe_end_ms = host_probe_ms();

  JsonMetrics m;
  if (!a.trace) {
    const bool per_unit = source == SetupSource::kPerUnit;
    m.add("throughput_rps", median(rps), "1/s");
    m.add("cpu_us_per_req", median(cpu_us), "us");
    m.add("setup_s",
          per_unit                                ? median(unit_setup)
          : source == SetupSource::kInProcess ? setup_once_s
                                                  : cold_setup_s,
          "s");
    m.add("peak_rss_mb",
          per_unit ? *std::max_element(unit_rss.begin(), unit_rss.end()) : rss_mb,
          "MB");
  } else {
    Layers x;
    x.add(layers, 1.0 / static_cast<double>(traced.size()));
    w->probe(x);
    add_layer_metrics(m, x, median(traced_rps) - median(rps));
  }

  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"units\":%zu,\"traced_units\":%zu,"
      "\"attempted\":%llu,\"failed\":%llu,\"digest\":\"%s\",\"reference\":\"%s\","
      "\"consistent\":%s,\"busy_threads\":%u,\"kernel_mode\":%d,\"simd\":\"%s\","
      "\"host_probe_ms\":[%.4g,%.4g],\"unit_rps\":[%s],\"metrics\":%s}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), plain.size(),
      traced.size(), static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), digest.c_str(), reference.c_str(),
      consistent ? "true" : "false", w->busy_threads(),
      static_cast<int>(rd::kernels_mode()), rd::simd_level_name(rd::simd_level()),
      probe_start_ms, probe_end_ms, join(rps).c_str(), m.str().c_str());
  return 0;
}

bool flag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

int main_impl(int argc, char** argv) {
  const Clock::time_point t_main = Clock::now();
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (flag(argv[i], "--workload", v)) {
      a.workload = v;
    } else if (flag(argv[i], "--seed", v)) {
      a.seed = std::stoull(v);
    } else if (flag(argv[i], "--seconds", v)) {
      a.seconds = std::stod(v);
    } else if (flag(argv[i], "--trace", v)) {
      a.trace = v == "1";
    } else if (flag(argv[i], "--mode", v)) {
      a.mode = v;
    } else if (flag(argv[i], "--serve", v)) {
      a.serve = v;
    } else if (flag(argv[i], "--seeds", v)) {
      const std::size_t dash = v.find('-');
      a.seed_lo = std::stoull(v.substr(0, dash));
      a.seed_hi = dash == std::string::npos ? a.seed_lo : std::stoull(v.substr(dash + 1));
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (a.mode == "setup") {
    make_workload(a, a.seed)->setup_probe();
    std::printf("ready\n");
    std::fflush(stdout);
    return 0;
  }
  if (a.mode == "digest") {
    for (std::uint64_t s = a.seed_lo; s <= a.seed_hi; ++s) {
      std::unique_ptr<Workload> w = make_workload(a, s);
      w->setup();
      std::printf("%s %llu %s\n", a.workload.c_str(),
                  static_cast<unsigned long long>(s), w->reference().c_str());
      std::fflush(stdout);
    }
    return 0;
  }
  RD_CHECK_MSG(a.mode == "run", "unknown mode: " << a.mode);
  return run(a, t_main);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    if (perfbench::g_server.pid > 0) {
      ::kill(perfbench::g_server.pid, SIGKILL);
      ::waitpid(perfbench::g_server.pid, nullptr, 0);
    }
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
