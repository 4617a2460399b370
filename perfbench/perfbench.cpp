// perfbench — ksim's end-to-end benchmark with a traced per-layer run.
//
//   perfbench --workload model_grid|jit_jobs|daemon --seed N --seconds S
//             --trace 0|1 [--spans-out FILE]
//
// Builds every input during set-up, runs one workload in a closed loop for
// S seconds, checks every operation against a reference recorded during
// set-up, and prints the metrics as the last stdout line (one JSON object).
// --trace 0 prints the end-to-end metrics; --trace 1 interleaves traced and
// untraced work and prints the per-layer metrics plus the tracing overhead.
// Only public entry points are called, and they are timed from outside.
// perfbench/README.md maps every metric to its layer and workload.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/program.h"
#include "analysis/translatability.h"
#include "api/report.h"
#include "api/session.h"
#include "ckpt/checkpoint.h"
#include "isa/kisa.h"
#include "ksimd/protocol.h"
#include "ksimd/server.h"
#include "support/error.h"
#include "support/json.h"
#include "stats.h"

namespace {

using namespace ksim;
using Clock = std::chrono::steady_clock;
namespace pb = perfbench;

// Set-up runs at least kSetupReps times per process, and more (up to
// kSetupMaxReps) while less than kSetupMinSeconds have been spent on it;
// setup_s is the median.
constexpr int kSetupReps = 5;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupMinSeconds = 2.0;
// ksimd scheduler slice: preemption can only happen at slice boundaries, so
// the slice is small enough that every batch job crosses several of them.
constexpr uint64_t kSliceInstructions = 100'000;
// The traced run times one in this many cycle-model calls.
constexpr uint64_t kCycleSampleEvery = 64;

const char* const kPrograms[] = {"cjpeg", "djpeg", "fft", "qsort", "aes", "dct"};
const char* const kIsas[] = {"RISC", "VLIW4"};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// -- command line -------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    check(i + 1 < argc, "missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--spans-out") a.spans_out = value;
    else throw Error("unknown flag " + flag);
  }
  check(a.workload == "model_grid" || a.workload == "jit_jobs" || a.workload == "daemon",
        "--workload must be model_grid, jit_jobs or daemon");
  check(a.seconds > 0, "--seconds must be positive");
  return a;
}

// -- simulated results ----------------------------------------------------------

/// The simulated totals one operation (or one pass) produces.  They do not
/// depend on host speed, engine tier or seed.
struct Totals {
  uint64_t instructions = 0;
  uint64_t operations = 0;
  uint64_t cycles = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_misses = 0;
  uint64_t mispredictions = 0;

  bool operator==(const Totals&) const = default;
  void add(const Totals& o) {
    instructions += o.instructions;
    operations += o.operations;
    cycles += o.cycles;
    l1_misses += o.l1_misses;
    l2_misses += o.l2_misses;
    mispredictions += o.mispredictions;
  }
  std::string str() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "instructions=%llu operations=%llu cycles=%llu l1_misses=%llu "
                  "l2_misses=%llu mispredictions=%llu",
                  static_cast<unsigned long long>(instructions),
                  static_cast<unsigned long long>(operations),
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(l1_misses),
                  static_cast<unsigned long long>(l2_misses),
                  static_cast<unsigned long long>(mispredictions));
    return buf;
  }
};

/// One pass's totals per workload, as the current simulator produces them.
/// A change that only makes ksim faster leaves these unchanged; a mismatch
/// marks the run incorrect.
const std::map<std::string, std::string> kExpectedFingerprint = {
    {"model_grid", "instructions=20762175 operations=26205366 cycles=22770953 "
                   "l1_misses=115366 l2_misses=7400 mispredictions=62654"},
    {"jit_jobs", "instructions=6920725 operations=8735122 cycles=0 "
                 "l1_misses=0 l2_misses=0 mispredictions=0"},
    {"daemon", "instructions=13841450 operations=17470244 cycles=9013662 "
               "l1_misses=57683 l2_misses=3700 mispredictions=0"},
};

Totals totals_of(api::Session& s, const api::Report& r) {
  Totals t;
  t.instructions = r.stats.instructions;
  t.operations = r.stats.operations;
  t.cycles = r.cycles;
  t.mispredictions = r.bp_mispredictions;
  if (const cycle::MemoryHierarchy* mem = s.participants().memory) {
    t.l1_misses = mem->l1().stats().misses;
    t.l2_misses = mem->l2().stats().misses;
  }
  return t;
}

// -- fixture: images, configs, references ---------------------------------------

struct Image {
  std::string program;
  std::string isa;
  api::ProgramImage image;
};

struct Job {
  api::RunConfig cfg;
  const Image* image = nullptr;
  Totals ref;
  uint64_t output_bytes = 0;
};

struct Fixture {
  std::vector<std::unique_ptr<Image>> images;
  std::vector<Job> jobs;   ///< one pass; daemon: the batch tenants' jobs
  std::vector<Job> urgent; ///< daemon: the urgent tenant's jobs
  Totals fingerprint;
};

api::RunConfig make_config(const Image& img, const std::string& model,
                           const std::string& bp, bool jit) {
  api::RunConfig c;
  c.workload = img.program;
  c.isa = img.isa;
  c.model = model;
  c.bp_kind = bp;
  c.use_jit = jit;
  c.echo_output = false;
  return c;
}

/// "" when a finished session is what the program should produce, else why
/// not.  `ref` is null while the reference itself is being recorded.
std::string check_session(const Job& job, sim::StopReason reason,
                          const api::Report& r, const std::string& output,
                          const Totals& got, const Totals* ref) {
  if (reason != sim::StopReason::Exited)
    return job.image->image.label + ": stopped with " + sim::to_string(reason);
  if (r.exit_code != 0)
    return job.image->image.label + ": exit code " + std::to_string(r.exit_code);
  if (output.find(job.image->program + " OK") == std::string::npos)
    return job.image->image.label + ": no \"" + job.image->program + " OK\" line";
  if (ref != nullptr && !(got == *ref))
    return job.image->image.label + " " + job.cfg.model + ": got " + got.str() +
           ", reference " + ref->str();
  return {};
}

void record_reference(Job& job) {
  api::Session s(job.cfg, job.image->image);
  const sim::StopReason reason = s.run();
  const api::Report r = s.report(reason);
  const Totals t = totals_of(s, r);
  const std::string why =
      check_session(job, reason, r, s.simulator().libc().output(), t, nullptr);
  check(why.empty(), "reference run failed: " + why);
  job.ref = t;
  job.output_bytes = r.output_bytes;
}

Fixture build_fixture(const std::string& workload, std::vector<double>* build_ms) {
  Fixture fx;
  for (const char* program : kPrograms)
    for (const char* isa : kIsas) {
      api::RunConfig cfg;
      cfg.workload = program;
      cfg.isa = isa;
      const auto t0 = Clock::now();
      api::ProgramImage image = api::resolve_input(cfg);
      build_ms->push_back(ms_between(t0, Clock::now()));
      fx.images.push_back(std::make_unique<Image>(Image{program, isa, std::move(image)}));
    }
  for (const auto& img : fx.images) {
    const auto add = [&](std::vector<Job>& to, api::RunConfig cfg) {
      to.push_back(Job{std::move(cfg), img.get(), {}, 0});
    };
    if (workload == "model_grid") {
      add(fx.jobs, make_config(*img, "ilp", "", true));
      add(fx.jobs, make_config(*img, "aie", "", true));
      add(fx.jobs, make_config(*img, "doe", "gshare", true));
    } else if (workload == "jit_jobs") {
      add(fx.jobs, make_config(*img, "none", "", true));
    } else {
      add(fx.jobs, make_config(*img, "doe", "", false));
      add(fx.urgent, make_config(*img, "none", "", true));
    }
  }
  for (std::vector<Job>* list : {&fx.jobs, &fx.urgent})
    for (Job& job : *list) {
      record_reference(job);
      fx.fingerprint.add(job.ref);
    }
  return fx;
}

/// Deterministic Fisher-Yates shuffle of indices 0..n-1.
std::vector<size_t> shuffled(size_t n, std::mt19937_64& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  return order;
}

// -- the cycle layer's timing probe ---------------------------------------------

/// Forwards every call to the session's own cycle model and times one call
/// in kCycleSampleEvery with the steady clock.  Installed in front of
/// Session::model() through Simulator::set_cycle_model for traced runs.
class SampledModel final : public cycle::CycleModel {
public:
  explicit SampledModel(cycle::CycleModel* inner) : inner_(inner) {}

  void on_instruction(const isa::DecodedInstr& di, const isa::ExecCtx& ctx) override {
    if (++calls_ % kCycleSampleEvery != 0) {
      inner_->on_instruction(di, ctx);
      return;
    }
    const auto t0 = Clock::now();
    inner_->on_instruction(di, ctx);
    sampled_ns_ += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ++sampled_;
  }
  uint64_t cycles() const override { return inner_->cycles(); }
  uint64_t operations() const override { return inner_->operations(); }
  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }
  void save(support::ByteWriter& w) const override { inner_->save(w); }
  void restore(support::ByteReader& r) override { inner_->restore(r); }

  uint64_t calls() const { return calls_; }
  uint64_t sampled() const { return sampled_; }
  double sampled_ns() const { return sampled_ns_; }

private:
  cycle::CycleModel* inner_;
  uint64_t calls_ = 0;
  uint64_t sampled_ = 0;
  double sampled_ns_ = 0.0;
};

// -- in-process workloads (model_grid, jit_jobs) --------------------------------

/// Layer counters summed over the traced operations.
struct LayerCounts {
  double decodes = 0, block_dispatches = 0, chain_hits = 0;
  double jit_translated = 0, jit_dispatches = 0, side_exits = 0, bailouts = 0;
  double model_ops = 0, l1_accesses = 0, port_stalls = 0;
  double l2_accesses = 0, bp_branches = 0;
  double model_calls = 0, model_sampled = 0, model_sampled_ns = 0;
  Totals totals;
};

std::vector<double> flatten(const std::vector<std::vector<double>>& groups) {
  std::vector<double> v;
  for (const std::vector<double>& g : groups) v.insert(v.end(), g.begin(), g.end());
  return v;
}

struct LoopResult {
  pb::Tally tally;
  std::vector<std::vector<double>> job_ms; ///< operation latencies per job
  std::vector<double> session_ms, run_ms, report_ms;
  double wall_s = 0;   ///< whole passes: operations, teardown and checks
  double run_s = 0;    ///< inside Session::run
  double instructions = 0;
  size_t passes = 0;
  /// Per pass: completed operations per wall second, and simulated
  /// instructions per second inside Session::run.  Their medians reject
  /// passes slowed by other load on the host.
  std::vector<double> pass_ops_per_s, pass_ips;
  LayerCounts layers;
};

/// One simulation job: Session construction, run, report rendering.
void run_op(const Job& job, std::vector<double>& job_ms, LoopResult& out, pb::SpanLog* spans,
            uint64_t op_id) {
  try {
    const auto t0 = Clock::now();
    api::Session s(job.cfg, job.image->image);
    const auto t1 = Clock::now();
    std::optional<SampledModel> probe;
    if (spans != nullptr && s.model() != nullptr) {
      probe.emplace(s.model());
      s.simulator().set_cycle_model(&*probe);
    }
    const auto t1b = Clock::now();
    const sim::StopReason reason = s.run();
    const auto t2 = Clock::now();
    const api::Report r = s.report(reason);
    const std::string doc = api::render_report_json(r);
    const auto t3 = Clock::now();

    const Totals got = totals_of(s, r);
    std::string why =
        check_session(job, reason, r, s.simulator().libc().output(), got, &job.ref);
    if (why.empty() && doc.find(job.image->image.label) == std::string::npos)
      why = job.image->image.label + ": report does not name its target";
    if (!why.empty()) {
      out.tally.fail(why);
      return;
    }
    out.tally.ok();
    job_ms.push_back(ms_between(t0, t3));
    out.session_ms.push_back(ms_between(t0, t1));
    out.run_ms.push_back(ms_between(t1b, t2));
    out.report_ms.push_back(ms_between(t2, t3));
    out.run_s += ms_between(t1b, t2) / 1e3;
    out.instructions += static_cast<double>(r.stats.instructions);
    if (spans == nullptr) return;

    const int64_t root = spans->add("op", 0, ms_between(t0, t3), -1, op_id);
    spans->add("api.session", 0, ms_between(t0, t1), root, op_id);
    spans->add("sim.run", ms_between(t0, t1b), ms_between(t0, t2), root, op_id);
    spans->add("api.report", ms_between(t0, t2), ms_between(t0, t3), root, op_id);

    LayerCounts& L = out.layers;
    const sim::SimStats& st = r.stats;
    L.totals.add(got);
    L.decodes += static_cast<double>(st.decodes);
    L.block_dispatches += static_cast<double>(st.block_dispatches);
    L.chain_hits += static_cast<double>(st.block_chain_hits);
    L.jit_translated += static_cast<double>(st.jit_blocks_translated);
    L.jit_dispatches += static_cast<double>(st.jit_dispatches);
    L.side_exits += static_cast<double>(st.jit_side_exits);
    L.bailouts += static_cast<double>(st.jit_bailouts);
    if (probe) {
      L.model_ops += static_cast<double>(probe->operations());
      L.model_calls += static_cast<double>(probe->calls());
      L.model_sampled += static_cast<double>(probe->sampled());
      L.model_sampled_ns += probe->sampled_ns();
    }
    const ckpt::Participants p = s.participants();
    if (p.memory != nullptr) {
      L.l1_accesses += static_cast<double>(p.memory->l1().stats().accesses);
      L.l2_accesses += static_cast<double>(p.memory->l2().stats().accesses);
      L.port_stalls += static_cast<double>(p.memory->limit().stats().port_stalls);
    }
    if (p.predictor != nullptr)
      L.bp_branches += static_cast<double>(p.predictor->stats().branches);
  } catch (const std::exception& e) {
    out.tally.fail(job.image->image.label + ": " + e.what());
  }
}

/// Whole shuffled passes over the fixture's jobs until `seconds` have passed.
/// With `traced` set, odd passes are traced and land there instead.
void run_passes(const Fixture& fx, uint64_t seed, double seconds, LoopResult& plain,
                LoopResult* traced, pb::SpanLog* spans) {
  std::mt19937_64 rng(seed);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  uint64_t op_id = 0;
  plain.job_ms.resize(fx.jobs.size());
  if (traced != nullptr) traced->job_ms.resize(fx.jobs.size());
  const size_t min_passes = traced != nullptr ? 2 : 1;
  for (size_t pass = 0; pass < min_passes || Clock::now() < deadline; ++pass) {
    const bool trace_pass = traced != nullptr && pass % 2 == 1;
    LoopResult& out = trace_pass ? *traced : plain;
    const uint64_t ops0 = out.tally.completed();
    const double run0 = out.run_s, instr0 = out.instructions;
    const auto t0 = Clock::now();
    for (size_t i : shuffled(fx.jobs.size(), rng))
      run_op(fx.jobs[i], out.job_ms[i], out, trace_pass ? spans : nullptr, ++op_id);
    const double wall = ms_between(t0, Clock::now()) / 1e3;
    out.wall_s += wall;
    ++out.passes;
    out.pass_ops_per_s.push_back(static_cast<double>(out.tally.completed() - ops0) / wall);
    out.pass_ips.push_back(ratio(out.instructions - instr0, out.run_s - run0));
  }
}

// -- daemon workload --------------------------------------------------------------

/// An in-process ksimd server on 127.0.0.1 running its accept loop.
class RunningServer {
public:
  explicit RunningServer(const ksimd::SchedulerOptions& options)
      : server_(options, {}), thread_([this] {
          try {
            server_.run();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: ksimd server: %s\n", e.what());
          }
        }) {}
  ~RunningServer() {
    server_.request_stop(/*drain=*/true);
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  ksimd::Server& server() { return server_; }

private:
  ksimd::Server server_;
  std::thread thread_;
};

ksimd::SchedulerOptions daemon_options() {
  ksimd::SchedulerOptions o;
  o.workers = 2;
  o.slice_instructions = kSliceInstructions;
  return o;
}

struct Tenant {
  std::string name;
  int priority = 0;
  const std::vector<Job>* jobs = nullptr;
};

struct ClientResult {
  pb::Tally tally;
  std::vector<std::vector<double>> job_ms; ///< latencies per tenant job
  double instructions = 0;
  uint64_t preempted = 0, resumed = 0, rejected = 0;
  pb::SpanLog spans;
};

/// "" when a streamed ksim.job.done matches the in-process reference.
std::string check_done(const Job& job, const ksimd::Done& done) {
  const std::string& label = job.image->image.label;
  if (done.state != ksimd::JobState::Done)
    return label + ": job " + ksimd::to_string(done.state) + " " + done.error;
  if (done.exit_code != 0) return label + ": exit code " + std::to_string(done.exit_code);
  const support::JsonValue r = support::parse_json(done.report, "ksim.run report");
  const auto num = [&](const char* key) -> uint64_t {
    const support::JsonValue* v = r.find(key);
    return v != nullptr && v->is_number() ? static_cast<uint64_t>(v->number) : 0;
  };
  const support::JsonValue* stop = r.find("stop_reason");
  if (stop == nullptr || !stop->is_string() ||
      stop->string != sim::to_string(sim::StopReason::Exited))
    return label + ": report stop_reason is not exited";
  if (num("instructions") != job.ref.instructions || num("operations") != job.ref.operations ||
      num("cycles") != job.ref.cycles || num("output_bytes") != job.output_bytes)
    return label + " " + job.cfg.model + ": report instructions/cycles differ from reference " +
           job.ref.str();
  return {};
}

/// One submit -> done round trip; returns false when the connection died.
bool daemon_op(ksimd::Client& client, const Tenant& t, size_t index, ClientResult& out,
               bool traced, uint64_t op_id) {
  const Job& job = (*t.jobs)[index];
  ksimd::SubmitRequest req;
  req.tenant = t.name;
  req.priority = t.priority;
  req.config = job.cfg;
  const auto t0 = Clock::now();
  std::optional<Clock::time_point> accepted;
  client.send_line(ksimd::encode(req));
  for (;;) {
    const std::optional<ksimd::Message> msg = client.read_message();
    if (!msg) {
      out.tally.fail(job.image->image.label + ": daemon closed the connection");
      return false;
    }
    if (const auto* rej = std::get_if<ksimd::Rejected>(&*msg)) {
      ++out.rejected;
      out.tally.fail(job.image->image.label + ": rejected " + rej->code);
      return true;
    }
    if (std::holds_alternative<ksimd::Accepted>(*msg)) accepted = Clock::now();
    if (const auto* p = std::get_if<ksimd::Progress>(&*msg)) {
      if (p->kind == ksimd::Progress::Kind::Preempted) ++out.preempted;
      if (p->kind == ksimd::Progress::Kind::Resumed) ++out.resumed;
    }
    if (const auto* done = std::get_if<ksimd::Done>(&*msg)) {
      const auto t1 = Clock::now();
      const std::string why = check_done(job, *done);
      if (!why.empty()) {
        out.tally.fail(why);
        return true;
      }
      out.tally.ok();
      out.job_ms[index].push_back(ms_between(t0, t1));
      out.instructions += static_cast<double>(job.ref.instructions);
      if (traced) {
        const int64_t root = out.spans.add("op", 0, ms_between(t0, t1), -1, op_id);
        if (accepted)
          out.spans.add("ksimd.accept", 0, ms_between(t0, *accepted), root, op_id);
      }
      return true;
    }
  }
}

/// Each tenant cycles through its jobs (reshuffled every pass) over its own
/// connection, one job in flight, until the deadline.
void client_loop(uint16_t port, const Tenant& t, uint64_t seed, Clock::time_point deadline,
                 bool traced, uint64_t op_base, ClientResult* out) {
  out->job_ms.resize(t.jobs->size());
  try {
    ksimd::Client client("127.0.0.1", port);
    std::mt19937_64 rng(seed);
    uint64_t op_id = op_base;
    while (Clock::now() < deadline)
      for (size_t i : shuffled(t.jobs->size(), rng)) {
        if (Clock::now() >= deadline) return;
        if (!daemon_op(client, t, i, *out, traced, ++op_id)) return;
      }
  } catch (const std::exception& e) {
    out->tally.fail(std::string("client ") + t.name + ": " + e.what());
  }
}

struct DaemonResult {
  std::vector<ClientResult> clients; ///< batch-a, batch-b, urgent
  double wall_s = 0;
  /// Latencies per configuration: the batch tenants share theirs.
  std::vector<std::vector<double>> job_ms() const {
    std::vector<std::vector<double>> groups = clients[0].job_ms;
    for (size_t i = 0; i < groups.size(); ++i)
      groups[i].insert(groups[i].end(), clients[1].job_ms[i].begin(),
                       clients[1].job_ms[i].end());
    groups.insert(groups.end(), clients[2].job_ms.begin(), clients[2].job_ms.end());
    return groups;
  }
  uint64_t completed() const {
    uint64_t n = 0;
    for (const ClientResult& c : clients) n += c.tally.completed();
    return n;
  }
};

/// Two batch tenants (DOE, JIT off) and one urgent tenant (no model, JIT on)
/// at a higher priority, three connections, closed loop.
DaemonResult drive_daemon(RunningServer& rs, const Fixture& fx, uint64_t seed,
                          double seconds, bool traced) {
  const std::vector<Tenant> tenants = {
      {"batch-a", 0, &fx.jobs}, {"batch-b", 0, &fx.jobs}, {"urgent", 1, &fx.urgent}};
  DaemonResult d;
  d.clients.resize(tenants.size());
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < tenants.size(); ++i)
    threads.emplace_back(client_loop, rs.server().port(), std::cref(tenants[i]),
                         seed * 1000 + i, deadline, traced, (i + 1) * 1'000'000'000ull,
                         &d.clients[i]);
  for (std::thread& t : threads) t.join();
  d.wall_s = ms_between(t0, Clock::now()) / 1e3;
  return d;
}

/// Set-up for the daemon: one urgent job per image makes the server build
/// and cache all twelve images before anything is timed.
void warm_daemon(RunningServer& rs, const Fixture& fx) {
  ksimd::Client client("127.0.0.1", rs.server().port());
  ClientResult out;
  out.job_ms.resize(fx.urgent.size());
  const Tenant warm{"warm", 1, &fx.urgent};
  for (size_t i = 0; i < fx.urgent.size(); ++i) daemon_op(client, warm, i, out, false, 0);
  check(out.tally.failed() == 0, "daemon warm-up failed: " + out.tally.first_failure());
}

// -- checkpoint layer (daemon, traced) ------------------------------------------

struct CkptLayer {
  std::vector<double> encode_ms, bytes, resume_ms;
};

/// Stops each batch config half-way, encodes it, then parses and resumes it
/// and runs it to completion against the reference.
void measure_checkpoints(const Fixture& fx, CkptLayer& out, pb::Tally& tally) {
  for (const Job& job : fx.jobs) {
    try {
      api::Session s(job.cfg, job.image->image);
      s.set_progress_hook(job.ref.instructions / 2, [](api::Session&) { return true; });
      check(s.run() == sim::StopReason::Checkpoint, "no mid-run stop");
      const ckpt::RunRecord record =
          job.cfg.run_record(job.image->image.exe, job.image->image.label);
      const auto t0 = Clock::now();
      const std::vector<uint8_t> bytes = ckpt::encode_checkpoint(record, s.participants());
      const auto t1 = Clock::now();
      const ckpt::Checkpoint ck = ckpt::parse_checkpoint(bytes);
      api::ResumeOverrides o;
      o.echo_output = false;
      std::unique_ptr<api::Session> resumed = api::Session::resume(ck, o);
      const auto t2 = Clock::now();
      const sim::StopReason reason = resumed->run();
      const api::Report r = resumed->report(reason);
      const std::string why =
          check_session(job, reason, r, resumed->simulator().libc().output(),
                        totals_of(*resumed, r), &job.ref);
      if (!why.empty()) {
        tally.fail("checkpoint round trip: " + why);
        continue;
      }
      tally.ok();
      out.encode_ms.push_back(ms_between(t0, t1));
      out.bytes.push_back(static_cast<double>(bytes.size()));
      out.resume_ms.push_back(ms_between(t1, t2));
    } catch (const std::exception& e) {
      tally.fail(job.image->image.label + " checkpoint: " + e.what());
    }
  }
}

// -- session set-up split (traced, in-process workloads) --------------------------

/// Times the public calls Session::wire makes: Simulator construction plus
/// load, and — only where wire runs it (no model, JIT on) — the JIT veto
/// analysis.  Three repetitions over every job.
void measure_wire(const Fixture& fx, std::vector<double>& ctor_load_ms,
                  std::vector<double>& veto_ms) {
  for (int rep = 0; rep < 3; ++rep)
    for (const Job& job : fx.jobs) {
      const elf::ElfFile& exe = job.image->image.exe;
      const auto t0 = Clock::now();
      sim::Simulator simulator(isa::kisa(), job.cfg.sim_options());
      simulator.load(exe);
      ctor_load_ms.push_back(ms_between(t0, Clock::now()));
      if (!simulator.options().use_jit || job.cfg.model != "none") continue;
      const auto t1 = Clock::now();
      const analysis::Program program = analysis::decode_program(exe, isa::kisa());
      const analysis::FuncAnalyses fa = analysis::analyze_functions(program);
      const analysis::TranslatabilityReport report = analysis::classify_translatability(
          exe, program, fa, simulator.state().ram_size());
      veto_ms.push_back(ms_between(t1, Clock::now()));
      check(!report.functions.empty(), "translatability report is empty");
    }
}

// -- model accuracy ----------------------------------------------------------------

/// Largest |DOE - RTL| / RTL cycle error over the twelve images (Table II's
/// method, DOE with perfect prediction, the RTL replay as reference).
double doe_rtl_error_pct(const Fixture& fx) {
  double worst = 0;
  for (const auto& img : fx.images) {
    uint64_t cycles[2] = {0, 0};
    const char* models[2] = {"doe", "rtl"};
    for (int m = 0; m < 2; ++m) {
      Job job{make_config(*img, models[m], "", true), img.get(), {}, 0};
      api::Session s(job.cfg, img->image);
      const sim::StopReason reason = s.run();
      const api::Report r = s.report(reason);
      const std::string why = check_session(job, reason, r, s.simulator().libc().output(),
                                            totals_of(s, r), nullptr);
      check(why.empty(), "accuracy run failed: " + why);
      cycles[m] = r.cycles;
    }
    check(cycles[1] != 0, "RTL reference reported no cycles");
    worst = std::max(worst, 100.0 *
                                std::fabs(static_cast<double>(cycles[0]) -
                                          static_cast<double>(cycles[1])) /
                                static_cast<double>(cycles[1]));
  }
  return worst;
}

// -- output --------------------------------------------------------------------------

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto s = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6; };
  return s(u.ru_utime) + s(u.ru_stime);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double p50_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : pb::median(v); }

/// Latency p50 (median of the per-configuration medians) and p90 (pooled,
/// nearest rank), with their sample counts printed for the log.
void add_latency(std::vector<Metric>& m, const std::string& prefix,
                 const std::vector<std::vector<double>>& groups) {
  const std::vector<double> pooled = flatten(groups);
  check(!pooled.empty(), "no completed operations for " + prefix);
  const double p50 = pb::median_of_medians(groups);
  const pb::Percentile p90 = pb::percentile(pooled, 0.9);
  std::printf("%s_p50 = %.4f ms over %zu configurations, %s_p90 = %.4f ms "
              "(n=%zu, %zu beyond p90)\n",
              prefix.c_str(), p50, groups.size(), prefix.c_str(), p90.value, p90.samples,
              p90.beyond);
  m.push_back({prefix + "_p50", p50, "ms"});
  m.push_back({prefix + "_p90", p90.value, "ms"});
}

void write_spans(const std::string& path, const std::vector<const pb::SpanLog*>& logs) {
  std::ofstream out(path);
  check(out.good(), "cannot write " + path);
  for (const pb::SpanLog* log : logs) {
    const std::vector<double> self = log->self_times();
    for (size_t i = 0; i < log->spans().size(); ++i) {
      const pb::Span& s = log->spans()[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"op\":%llu,\"start_ms\":%.6f,\"end_ms\":%.6f,"
                    "\"parent\":%lld,\"self_ms\":%.6f}\n",
                    s.name.c_str(), static_cast<unsigned long long>(s.op), s.start_ms,
                    s.end_ms, static_cast<long long>(s.parent), self[i]);
      out << buf;
    }
  }
}

void print_result(bool correct, const pb::Tally& tally, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted());
  line += ", \"failed\": " + std::to_string(tally.failed());
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// -- per-layer metrics -----------------------------------------------------------------

/// Median cost of one steady-clock read as seen between two stamps: what a
/// sampled cycle-model call measures on top of the call itself.
double clock_read_ns() {
  std::vector<double> v;
  for (int i = 0; i < 10001; ++i) {
    const auto t0 = Clock::now();
    v.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }
  return pb::median(v);
}

/// Per-layer values by metric name.
using Layers = std::map<std::string, double>;

/// The tracing overhead: untraced against traced operations per second.
void add_overhead(Layers& L, double plain_ops, double traced_ops) {
  L["trace.ops_per_s"] = traced_ops;
  L["trace.overhead_pct"] = 100.0 * ratio(plain_ops - traced_ops, plain_ops);
}

void add_inprocess_layers(Layers& L, const LoopResult& plain, const LoopResult& traced,
                          const pb::SpanLog& spans, const Fixture& fx) {
  std::vector<double> ctor_load_ms, veto_ms;
  measure_wire(fx, ctor_load_ms, veto_ms);
  const LayerCounts& c = traced.layers;
  const double passes = static_cast<double>(traced.passes);
  const double op_total = sum(flatten(traced.job_ms));
  const double run_total = sum(traced.run_ms);
  const double model_ns =
      c.model_sampled == 0
          ? 0.0
          : std::max(0.0, c.model_sampled_ns / c.model_sampled - clock_read_ns());

  const double totals_cycles = static_cast<double>(c.totals.cycles);
  L["api.session_ms_p50"] = p50_or_zero(traced.session_ms);
  L["sim.ctor_load_ms"] = p50_or_zero(ctor_load_ms);
  L["analysis.jit_veto_ms"] = p50_or_zero(veto_ms);
  L["sim.run_ms_p50"] = p50_or_zero(traced.run_ms);
  L["sim.run_share"] = ratio(run_total, op_total);
  L["sim.instructions"] = static_cast<double>(c.totals.instructions) / passes;
  L["sim.decodes"] = c.decodes / passes;
  L["sim.block_dispatches"] = c.block_dispatches / passes;
  L["sim.chain_hit_ratio"] = ratio(c.chain_hits, c.block_dispatches);
  L["jit.blocks_translated"] = c.jit_translated / passes;
  L["jit.dispatches"] = c.jit_dispatches / passes;
  L["jit.side_exits"] = c.side_exits / passes;
  L["jit.bailouts"] = c.bailouts / passes;
  L["jit.dispatch_ratio"] = ratio(c.jit_dispatches, c.block_dispatches);
  L["cycle.on_instruction_ns"] = model_ns;
  L["cycle.run_share"] = ratio(model_ns * c.model_calls / 1e6, run_total);
  L["cycle.cycles"] = totals_cycles / passes;
  L["cycle.ops_per_cycle"] = ratio(c.model_ops, totals_cycles);
  L["mem.l1.accesses"] = c.l1_accesses / passes;
  L["mem.l1.miss_ratio"] = ratio(static_cast<double>(c.totals.l1_misses), c.l1_accesses);
  L["mem.l2.miss_ratio"] = ratio(static_cast<double>(c.totals.l2_misses), c.l2_accesses);
  L["mem.port_stalls"] = c.port_stalls / passes;
  L["bp.mispredict_ratio"] = ratio(static_cast<double>(c.totals.mispredictions), c.bp_branches);
  L["api.report_ms_p50"] = p50_or_zero(traced.report_ms);
  L["bench.op_self_ms_p50"] = p50_or_zero(spans.self_times("op"));
  add_overhead(L, ratio(static_cast<double>(plain.tally.completed()), plain.wall_s),
               ratio(static_cast<double>(traced.tally.completed()), traced.wall_s));
}

/// Every traced run prints this metric set; a layer the workload does not
/// exercise reads 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"toolchain.build_ms", "ms"},     {"api.session_ms_p50", "ms"},
    {"sim.ctor_load_ms", "ms"},       {"analysis.jit_veto_ms", "ms"},
    {"sim.run_ms_p50", "ms"},         {"sim.run_share", "share"},
    {"sim.instructions", "count"},    {"sim.decodes", "count"},
    {"sim.block_dispatches", "count"}, {"sim.chain_hit_ratio", "share"},
    {"jit.blocks_translated", "count"}, {"jit.dispatches", "count"},
    {"jit.side_exits", "count"},      {"jit.bailouts", "count"},
    {"jit.dispatch_ratio", "share"},  {"cycle.on_instruction_ns", "ns"},
    {"cycle.run_share", "share"},     {"cycle.cycles", "count"},
    {"cycle.ops_per_cycle", "ops/cycle"}, {"mem.l1.accesses", "count"},
    {"mem.l1.miss_ratio", "share"},   {"mem.l2.miss_ratio", "share"},
    {"mem.port_stalls", "count"},     {"bp.mispredict_ratio", "share"},
    {"api.report_ms_p50", "ms"},      {"ksimd.accept_ms_p50", "ms"},
    {"ksimd.preemptions_per_job", "1/job"}, {"ksimd.resumes", "count"},
    {"ksimd.rejected", "count"},      {"ksimd.image_builds", "count"},
    {"ksimd.image_hits", "count"},    {"ksimd.peak_rss_mb", "MB"},
    {"ckpt.encode_ms", "ms"},
    {"ckpt.bytes", "bytes"},          {"ckpt.resume_ms", "ms"},
    {"bench.op_self_ms_p50", "ms"},   {"trace.ops_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
};

// -- main ---------------------------------------------------------------------------------

int bench_main(const Args& a) {
  const bool daemon = a.workload == "daemon";
  std::vector<double> build_ms, setup_s;
  Fixture fx;
  std::unique_ptr<RunningServer> server;
  // The daemon's bounded peak_rss_mb is taken before any server thread runs
  // a job: glibc keeps the freed 16 MiB session buffers in per-thread arenas,
  // so the process peak after serving jumps in 16 MiB steps from run to run
  // (69-127 MB).  That peak is the per-layer ksimd.peak_rss_mb.
  double pre_server_rss_mb = 0;
  for (int rep = 0; rep < kSetupReps || (rep < kSetupMaxReps && sum(setup_s) < kSetupMinSeconds);
       ++rep) {
    server.reset();
    fx = Fixture{};
    const auto t0 = Clock::now();
    fx = build_fixture(a.workload, &build_ms);
    if (daemon) {
      if (rep == 0) pre_server_rss_mb = peak_rss_mb();
      server = std::make_unique<RunningServer>(daemon_options());
      warm_daemon(*server, fx);
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  const std::string fingerprint = fx.fingerprint.str();
  bool correct = fingerprint == kExpectedFingerprint.at(a.workload);
  std::printf("fingerprint %s %s%s\n", a.workload.c_str(), fingerprint.c_str(),
              correct ? "" : " (EXPECTED DIFFERENT)");

  std::vector<Metric> m;
  pb::Tally tally;
  if (!a.trace) {
    double ops_per_s = 0, sim_mips = 0;
    std::vector<std::vector<double>> all_ms, urgent_ms;
    if (daemon) {
      const DaemonResult d = drive_daemon(*server, fx, a.seed, a.seconds, false);
      for (const ClientResult& c : d.clients) tally.merge(c.tally);
      all_ms = d.job_ms();
      urgent_ms = d.clients.back().job_ms;
      ops_per_s = static_cast<double>(d.completed()) / d.wall_s;
      double instr = 0;
      for (const ClientResult& c : d.clients) instr += c.instructions;
      sim_mips = instr / d.wall_s / 1e6;
    } else {
      LoopResult r;
      const double cpu0 = cpu_seconds();
      run_passes(fx, a.seed, a.seconds, r, nullptr, nullptr);
      std::printf("loop: %.3f s wall, %.3f s process CPU, %zu passes\n", r.wall_s,
                  cpu_seconds() - cpu0, r.passes);
      tally.merge(r.tally);
      all_ms = urgent_ms = r.job_ms;
      ops_per_s = pb::median(r.pass_ops_per_s);
      sim_mips = pb::median(r.pass_ips) / 1e6;
    }
    const double rss = daemon ? pre_server_rss_mb : peak_rss_mb();
    server.reset();
    m.push_back({"ops_per_s", ops_per_s, "1/s"});
    add_latency(m, "op_ms", all_ms);
    add_latency(m, "urgent_ms", urgent_ms);
    m.push_back({"sim_mips", sim_mips, "MIPS"});
    m.push_back({"peak_rss_mb", rss, "MB"});
    m.push_back({"setup_s", pb::median(setup_s), "s"});
    m.push_back({"doe_rtl_err_pct", doe_rtl_error_pct(fx), "%"});
  } else {
    Layers L;
    L["toolchain.build_ms"] = pb::median(build_ms);
    std::vector<const pb::SpanLog*> logs;
    pb::SpanLog spans;
    DaemonResult plain_d, traced_d;
    if (daemon) {
      plain_d = drive_daemon(*server, fx, a.seed, a.seconds / 2, false);
      traced_d = drive_daemon(*server, fx, a.seed + 1, a.seconds / 2, true);
      const api::ImageCache::Stats cache = server->server().scheduler().image_cache_stats();
      server.reset();
      for (const DaemonResult* d : {&plain_d, &traced_d})
        for (const ClientResult& c : d->clients) tally.merge(c.tally);
      std::vector<double> accept_ms;
      uint64_t preempted = 0, resumed = 0, rejected = 0;
      for (const ClientResult& c : traced_d.clients) {
        const std::vector<double> acc = c.spans.durations("ksimd.accept");
        accept_ms.insert(accept_ms.end(), acc.begin(), acc.end());
        preempted += c.preempted;
        resumed += c.resumed;
        rejected += c.rejected;
        logs.push_back(&c.spans);
      }
      CkptLayer ck;
      measure_checkpoints(fx, ck, tally);
      const double jobs = static_cast<double>(traced_d.completed());
      L["ksimd.accept_ms_p50"] = p50_or_zero(accept_ms);
      L["ksimd.preemptions_per_job"] = ratio(static_cast<double>(preempted), jobs);
      L["ksimd.resumes"] = static_cast<double>(resumed);
      L["ksimd.rejected"] = static_cast<double>(rejected);
      L["ksimd.image_builds"] = static_cast<double>(cache.misses);
      L["ksimd.image_hits"] = static_cast<double>(cache.hits);
      L["ksimd.peak_rss_mb"] = peak_rss_mb();
      L["ckpt.encode_ms"] = p50_or_zero(ck.encode_ms);
      L["ckpt.bytes"] = p50_or_zero(ck.bytes);
      L["ckpt.resume_ms"] = p50_or_zero(ck.resume_ms);
      add_overhead(L, static_cast<double>(plain_d.completed()) / plain_d.wall_s,
                   jobs / traced_d.wall_s);
    } else {
      LoopResult plain, traced;
      run_passes(fx, a.seed, a.seconds, plain, &traced, &spans);
      tally.merge(plain.tally);
      tally.merge(traced.tally);
      add_inprocess_layers(L, plain, traced, spans, fx);
      logs.push_back(&spans);
    }
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = L.find(name);
      m.push_back({name, it == L.end() ? 0.0 : it->second, unit});
      std::printf("%s = %.6g %s\n", name.c_str(), m.back().value, unit.c_str());
    }
    if (!a.spans_out.empty()) write_spans(a.spans_out, logs);
  }
  if (tally.failed() != 0)
    std::printf("%llu of %llu operations failed; first: %s\n",
                static_cast<unsigned long long>(tally.failed()),
                static_cast<unsigned long long>(tally.attempted()),
                tally.first_failure().c_str());
  correct = correct && tally.failed() == 0;
  print_result(correct, tally, m);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  try {
    return bench_main(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
