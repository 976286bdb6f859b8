// One whole-federation run of the benchmark, in its own process.
//
// The public pipeline is timed stage by stage:
//   workload::generate_federation_workload -> core::Federation(...) ->
//   load_workload -> run()
// and the run's outputs are checked before anything is reported: every
// loaded job has exactly one outcome and the GridBank is balanced.  The
// FNV-1a outcome digest (the tuple set bench::parallel_kernel_run hashes)
// is printed so run.py can compare it across repetitions,
// thread counts and against the pinned default-seed digest.
//
// With --traced the run also records the per-layer view from outside the
// program: spans around each stage, a kernel dispatch probe (FEL peak and
// host gaps between dispatches), the obs::MetricsRegistry counters, and
// two layer replays that feed this run's recorded inputs back through a
// layer's public API and time the calls (market clearing and cluster
// availability search).
//
// Usage: perfbench_workload --workload NAME --seed N [--traced]
//                           [--fel heap]
//        perfbench_workload --build-info
// Prints one JSON object on stdout; exits 1 when a check fails.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/availability_profile.hpp"
#include "cluster/catalog.hpp"
#include "core/federation.hpp"
#include "market/auction_engine.hpp"
#include "obs/observer.hpp"
#include "workload/synthetic.hpp"

#if !GRIDFED_TRACE
#error "perfbench needs the observability layer (GRIDFED_TRACE=ON)"
#endif

namespace {

using namespace gridfed;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

// ---- workloads ----------------------------------------------------------------

struct Workload {
  std::size_t clusters = 0;
  core::FederationConfig config;
};

constexpr std::uint32_t kOftPercent = 30;
constexpr std::uint32_t kMaxThreads = 4;

bool make_workload(const std::string& name, Workload& w) {
  if (name == "auction-direct") {
    w = {100, bench::parallel_kernel_config(0)};
  } else if (name == "auction-direct-par") {
    w = {100, bench::parallel_kernel_config(
                  std::min(kMaxThreads, usable_cpus()))};
  } else if (name == "auction-tree") {
    w = {100, bench::parallel_kernel_config(0)};
    w.config.transport.kind = transport::TransportKind::kTree;
    w.config.coalitions.enabled = true;
    w.config.coalitions.bucket_size = bench::kBenchCoalitionBucket;
  } else if (name == "economy-dbc") {
    w = {200, core::make_config(core::SchedulingMode::kEconomy)};
  } else {
    return false;
  }
  return true;
}

// ---- host-speed probe -----------------------------------------------------------

/// Receives the probe's result so the compiler cannot drop its work.
volatile double g_probe_sink = 0.0;

/// Times a fixed kernel of ordered-map and binary-heap work, the operations
/// the simulator's hot paths are made of, but none of the program's code.
/// On a shared host the CPU's speed drifts by up to 2x over minutes; the
/// kernel's time, taken right before and after run(), tracks that drift, so
/// run.py can correct run()'s wall time for it.
double host_probe_seconds() {
  std::mt19937_64 rng(42);
  std::map<double, unsigned> profile;
  std::priority_queue<double, std::vector<double>, std::greater<>> fel;
  double acc = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (unsigned i = 0; i < 250000; ++i) {
    const auto key = static_cast<double>(rng() % 100000);
    profile[key] = i;
    const auto it = profile.lower_bound(static_cast<double>(rng() % 100000));
    if (it != profile.end()) {
      acc += it->second;
      if (profile.size() > 20000) profile.erase(it);
    }
    fel.push(key + i);
    if (fel.size() > 30000) {
      acc += fel.top();
      fel.pop();
    }
  }
  const double seconds = seconds_between(t0, Clock::now());
  g_probe_sink = acc;
  return seconds;
}

// ---- traced-run instruments ---------------------------------------------------

struct Span {
  const char* name;
  double start_s;
  double end_s;
  int parent;  ///< index into the span list, -1 for the root
};

/// Spans recorded in memory, relative to the process's first span, and
/// written out with the result when the run ends.
class SpanLog {
 public:
  int open(const char* name, int parent) {
    spans_.push_back({name, since_origin(), -1.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_s = since_origin(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] double duration(int id) const {
    return span(id).end_s - span(id).start_s;
  }

 private:
  double since_origin() const { return seconds_between(origin_, Clock::now()); }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Kernel dispatch probe: FEL size at each dispatch and the host time
/// between consecutive dispatches.
struct DispatchProbe {
  sim::Simulation* sim = nullptr;
  Clock::time_point last{};
  std::size_t fel_peak = 0;
  std::vector<std::uint32_t> gaps_ns;

  static void on_dispatch(void* ctx, sim::SimTime /*t*/) {
    auto* self = static_cast<DispatchProbe*>(ctx);
    const Clock::time_point now = Clock::now();
    if (self->last != Clock::time_point{}) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          now - self->last)
                          .count();
      self->gaps_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(ns, std::numeric_limits<std::uint32_t>::max())));
    }
    self->last = now;
    self->fel_peak = std::max(self->fel_peak, self->sim->pending_events());
  }

  /// Exact q-quantile of the recorded gaps (reorders them).
  double gap_quantile(double q) {
    if (gaps_ns.empty()) return 0.0;
    const auto k = static_cast<std::size_t>(q * static_cast<double>(gaps_ns.size() - 1));
    std::nth_element(gaps_ns.begin(), gaps_ns.begin() + static_cast<std::ptrdiff_t>(k),
                     gaps_ns.end());
    return gaps_ns[k];
  }
};

/// The FNV-1a digest of the per-job outcome tuples (id, fate, executor,
/// messages, cost, completion — bitwise, sorted by id): the same tuple
/// set and order bench::parallel_kernel_run hashes.
std::uint64_t outcome_digest(const std::vector<core::JobOutcome>& outcomes) {
  std::vector<const core::JobOutcome*> rows;
  rows.reserve(outcomes.size());
  for (const core::JobOutcome& o : outcomes) rows.push_back(&o);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return a->job.id < b->job.id;
  });
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xFFull;
      h *= 1099511628211ull;
    }
  };
  const auto mix_double = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  for (const core::JobOutcome* o : rows) {
    mix(o->job.id);
    mix(o->accepted ? 1 : 0);
    mix(o->executed_on);
    mix(o->messages);
    mix_double(o->cost);
    mix_double(o->completion);
  }
  return h;
}

/// True when the outcomes hold exactly one record for each of job ids
/// 1..jobs (load_workload numbers jobs from 1 in trace order).
bool one_outcome_per_job(const std::vector<core::JobOutcome>& outcomes,
                         std::uint64_t jobs) {
  if (outcomes.size() != jobs) return false;
  std::vector<bool> seen(jobs + 1, false);
  for (const core::JobOutcome& o : outcomes) {
    if (o.job.id == 0 || o.job.id > jobs || seen[o.job.id]) return false;
    seen[o.job.id] = true;
  }
  return true;
}

struct MarketReplay {
  std::uint64_t books = 0;
  std::uint64_t mismatches = 0;
  double clear_ns = 0.0;
};

/// Rebuilds every forensics book into an AuctionBook and clears it with
/// the run's AuctionEngine settings; the replayed winner must equal the
/// recorded one.
MarketReplay replay_market(const core::FederationConfig& cfg,
                           const obs::ForensicsLedger& ledger,
                           const std::vector<const cluster::Job*>& job_by_id) {
  const market::AuctionEngine engine(
      cfg.auction.clearing, cfg.auction.scoring, cfg.auction.score_time_weight,
      cfg.enforce_budget, cfg.enforce_deadline);
  MarketReplay r;
  double total_ns = 0.0;
  std::vector<federation::ParticipantId> solicited;
  for (const obs::ClearingDecision& d : ledger.decisions()) {
    ++r.books;
    if (d.job >= job_by_id.size() || job_by_id[d.job] == nullptr) {
      ++r.mismatches;
      continue;
    }
    solicited.clear();
    for (const std::uint32_t v : d.solicited) {
      federation::ParticipantId id;
      id.value = v;
      solicited.push_back(id);
    }
    market::AuctionBook book(d.job, solicited);
    for (const obs::ScoredBid& b : d.bids) {
      market::Bid bid;
      bid.bidder.value = b.bidder;
      bid.ask = b.ask;
      bid.completion_estimate = b.completion_estimate;
      bid.feasible = b.feasible;
      book.add(bid);
    }
    const Clock::time_point t0 = Clock::now();
    const std::vector<market::Award> awards =
        engine.clear(*job_by_id[d.job], book.bids());
    total_ns += 1e9 * seconds_between(t0, Clock::now());
    const bool awarded = !awards.empty();
    if (awarded != d.awarded ||
        (awarded && awards.front().bid.bidder.value != d.winner)) {
      ++r.mismatches;
    }
  }
  r.clear_ns = r.books ? total_ns / static_cast<double>(r.books) : 0.0;
  return r;
}

struct ClusterReplay {
  std::uint64_t searches = 0;
  double earliest_start_ns = 0.0;
  double steps_mean = 0.0;
  bool ok = true;
};

/// Replays the accepted jobs through one AvailabilityProfile per cluster
/// in submit order: trim every profile as submit time advances, search
/// every provider that fits the job (one earliest_start each, as batched
/// pricing does), then reserve the recorded execution window on the
/// executor.
ClusterReplay replay_clusters(const std::vector<cluster::ResourceSpec>& specs,
                              const std::vector<core::JobOutcome>& outcomes) {
  std::vector<const core::JobOutcome*> accepted;
  for (const core::JobOutcome& o : outcomes) {
    if (o.accepted) accepted.push_back(&o);
  }
  std::sort(accepted.begin(), accepted.end(), [](const auto* a, const auto* b) {
    return a->job.submit != b->job.submit ? a->job.submit < b->job.submit
                                          : a->job.id < b->job.id;
  });
  std::vector<cluster::AvailabilityProfile> profiles;
  profiles.reserve(specs.size());
  for (const cluster::ResourceSpec& s : specs) profiles.emplace_back(s.processors);

  ClusterReplay r;
  double total_ns = 0.0;
  double steps = 0.0;
  sim::SimTime trimmed = 0.0;
  try {
    for (const core::JobOutcome* o : accepted) {
      const cluster::Job& job = o->job;
      if (job.submit > trimmed) {
        for (cluster::AvailabilityProfile& p : profiles) p.trim(job.submit);
        trimmed = job.submit;
      }
      const cluster::ResourceSpec& origin = specs[job.origin];
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (job.processors > specs[i].processors) continue;
        static_cast<void>(profiles[i].earliest_start(
            job.submit, job.processors,
            cluster::execution_time(job, origin, specs[i])));
        steps += static_cast<double>(profiles[i].step_count());
        ++r.searches;
      }
      total_ns += 1e9 * seconds_between(t0, Clock::now());
      profiles[o->executed_on].reserve(o->start, o->completion, job.processors);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cluster replay failed: %s\n", e.what());
    r.ok = false;
  }
  if (r.searches > 0) {
    r.earliest_start_ns = total_ns / static_cast<double>(r.searches);
    r.steps_mean = steps / static_cast<double>(r.searches);
  }
  return r;
}

// ---- output --------------------------------------------------------------------

class JsonObject {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    raw(key, buf);
  }
  void integer(const char* key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void boolean(const char* key, bool v) { raw(key, v ? "true" : "false"); }
  void str(const char* key, const std::string& v) { raw(key, "\"" + v + "\""); }
  void raw(const char* key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + std::string("\"") + key + "\": " + json;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// What this binary was built as; run.py refuses to record from a
/// non-Release or sanitizer build.
int print_build_info() {
  bool sanitized = std::string(PERFBENCH_SANITIZE) != "OFF" &&
                   std::string(PERFBENCH_SANITIZE) != "";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  JsonObject out;
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.boolean("sanitized", sanitized);
  out.boolean("ndebug", ndebug);
  out.str("compiler", __VERSION__);
  out.integer("usable_cpus", usable_cpus());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload NAME --seed N "
               "[--traced] [--fel heap]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--build-info") {
    return print_build_info();
  }
  std::string name;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  bool heap_fel = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--fel" && has_value && std::string(argv[i + 1]) == "heap") {
      heap_fel = true;
      ++i;
    } else {
      return usage();
    }
  }
  Workload w;
  if (!have_seed || !make_workload(name, w)) return usage();
  w.config.seed = seed;
  if (heap_fel) w.config.fel.kind = sim::FelConfig::Kind::kHeap;
  if (traced) {
    w.config.obs.metrics = true;
    w.config.obs.forensics = true;
  }

  // ---- set-up ---------------------------------------------------------------------
  SpanLog spans;
  const int root = spans.open("perfbench.workload_run", -1);
  const int gen = spans.open("workload.generate", root);
  const std::vector<cluster::ResourceSpec> specs =
      cluster::replicated_specs(w.clusters);
  const auto traces = workload::generate_federation_workload(
      specs, w.config.window, w.config.seed);
  spans.close(gen);
  const int construct = spans.open("core.construct", root);
  auto fed = std::make_unique<core::Federation>(w.config, specs);
  spans.close(construct);
  const int load = spans.open("core.load_workload", root);
  fed->load_workload(traces, workload::PopulationProfile{kOftPercent});
  spans.close(load);
  std::uint64_t jobs = 0;
  for (const auto& trace : traces) jobs += trace.jobs.size();

  // ---- the run ------------------------------------------------------------------
  DispatchProbe probe;
  probe.sim = &fed->simulation();
  if (traced) {
    probe.gaps_ns.reserve(std::size_t{1} << 23);
    // Federation::run() installs its own metrics probe on the global lane,
    // so ours goes in from the first event of the run.  It only sets the
    // probe: outcomes are unchanged (run.py checks the digest).
    fed->simulation().schedule_at(0.0, sim::EventPriority::kCompletion,
                                  [p = &probe] {
                                    p->sim->set_dispatch_probe(
                                        &DispatchProbe::on_dispatch, p);
                                  });
  }
  const double probe_before_s = host_probe_seconds();
  const double cpu0 = process_cpu_seconds();
  const int run_span = spans.open("core.run", root);
  const core::FederationResult result = fed->run();
  spans.close(run_span);
  const double run_s = spans.duration(run_span);
  const double cpu_s = process_cpu_seconds() - cpu0;
  const double probe_after_s = host_probe_seconds();

  const std::vector<core::JobOutcome>& outcomes = fed->outcomes();
  const bool outcomes_ok = one_outcome_per_job(outcomes, jobs) &&
                           result.total_jobs == jobs &&
                           result.total_accepted + result.total_rejected == jobs;
  const bool bank_ok = fed->bank().balanced();

  JsonObject out;
  out.str("workload", name);
  out.integer("seed", seed);
  out.integer("clusters", w.clusters);
  out.integer("threads", w.config.threads);
  out.str("fel", sim::to_string(w.config.fel.kind));
  out.integer("jobs", jobs);
  out.num("generate_s", spans.duration(gen));
  out.num("construct_s", spans.duration(construct));
  out.num("load_s", spans.duration(load));
  out.num("setup_s", spans.span(load).end_s - spans.span(gen).start_s);
  out.num("run_s", run_s);
  out.num("cpu_s", cpu_s);
  out.num("host_probe_s", 0.5 * (probe_before_s + probe_after_s));
  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  out.num("peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0);
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(outcome_digest(outcomes)));
  out.str("digest", digest);
  out.boolean("one_outcome_per_job", outcomes_ok);
  out.boolean("bank_balanced", bank_ok);
  out.num("accept_pct", result.acceptance_pct());
  out.num("wire_msgs_per_job", result.wire_msgs_per_job());
  out.num("wire_bytes_per_job", result.wire_bytes_per_job());
  out.num("mean_response_s", result.fed_response_excl.mean());
  out.integer("events", fed->events_executed());
  out.integer("shards", fed->parallel_shards());
  out.integer("windows", fed->parallel_windows());

  bool replays_ok = true;
  if (traced) {
    const obs::Observer* o = fed->observer();
    const obs::MetricsRegistry& m = *o->metrics();
    const auto count = [&m](obs::Counter c) {
      return static_cast<double>(m.counter(c));
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    std::vector<const cluster::Job*> job_by_id(jobs + 1, nullptr);
    for (const core::JobOutcome& oc : outcomes) {
      if (oc.job.id <= jobs) job_by_id[oc.job.id] = &oc.job;
    }
    const int market_span = spans.open("market.replay", root);
    const MarketReplay market =
        replay_market(w.config, *o->forensics(), job_by_id);
    spans.close(market_span);
    const int cluster_span = spans.open("cluster.replay", root);
    const ClusterReplay clusters = replay_clusters(specs, outcomes);
    spans.close(cluster_span);
    spans.close(root);
    replays_ok = market.mismatches == 0 && clusters.ok;

    const stats::AuctionStats& a = result.auctions;
    const unsigned lanes = std::max(1u, fed->parallel_shards());
    JsonObject layers;
    layers.num("core.enquiries", count(obs::Counter::kEnquiriesStarted));
    layers.num("core.enquiry_decline_ratio",
               ratio(count(obs::Counter::kEnquiriesDeclined),
                     count(obs::Counter::kEnquiriesStarted)));
    layers.num("sim.fel_peak", static_cast<double>(probe.fel_peak));
    layers.num("sim.dispatch_gap_ns.p50", probe.gap_quantile(0.50));
    layers.num("sim.dispatch_gap_ns.p99", probe.gap_quantile(0.99));
    layers.num("sim.parallel.shards", fed->parallel_shards());
    layers.num("sim.parallel.windows",
               static_cast<double>(fed->parallel_windows()));
    layers.num("sim.parallel.events_per_window",
               ratio(static_cast<double>(fed->events_executed()),
                     static_cast<double>(fed->parallel_windows())));
    layers.num("sim.parallel.cpu_util", ratio(cpu_s, run_s * lanes));
    layers.num("market.auctions", static_cast<double>(a.held));
    layers.num("market.bids_priced", count(obs::Counter::kBidsAnswered));
    layers.num("market.bids_per_auction", a.bids_per_auction.mean());
    layers.num("market.feasible_per_auction", a.feasible_per_auction.mean());
    layers.num("market.fill_rate", a.fill_rate());
    layers.num("market.solicit_flushes", count(obs::Counter::kSolicitFlushes));
    layers.num("market.clear_ns", market.clear_ns);
    layers.num("cluster.earliest_start_ns", clusters.earliest_start_ns);
    layers.num("cluster.profile_steps_mean", clusters.steps_mean);
    layers.num("cluster.holds_placed", count(obs::Counter::kHoldsPlaced));
    layers.num("cluster.hold_cancel_ratio",
               ratio(count(obs::Counter::kHoldsCancelled),
                     count(obs::Counter::kHoldsPlaced)));
    layers.num("transport.wire_msgs", static_cast<double>(result.total_messages));
    layers.num("transport.wire_bytes",
               static_cast<double>(result.total_message_bytes));
    layers.num("transport.relay_msgs",
               static_cast<double>(result.overlay_relay_messages));
    layers.num("transport.bids_pruned", static_cast<double>(result.bids_pruned));
    layers.num("transport.prune_ratio",
               ratio(static_cast<double>(result.bids_pruned),
                     a.bids_per_auction.sum()));
    layers.num("coalition.formed", static_cast<double>(result.coalitions_formed));
    layers.num("coalition.local_msgs",
               static_cast<double>(result.coalition_local_messages));
    layers.num("coalition.awards", static_cast<double>(result.coalition_awards));
    layers.num("directory.queries",
               static_cast<double>(result.directory_traffic.queries));
    layers.num("directory.query_msgs",
               static_cast<double>(result.directory_traffic.query_messages));
    out.raw("layers", layers.str());

    JsonObject replay;
    replay.integer("books", market.books);
    replay.integer("winner_mismatches", market.mismatches);
    replay.integer("searches", clusters.searches);
    replay.boolean("cluster_ok", clusters.ok);
    replay.integer("dispatches_probed", probe.gaps_ns.size() + 1);
    out.raw("replay", replay.str());

    std::string list = "[";
    for (std::size_t i = 0; i < spans.spans().size(); ++i) {
      const Span& s = spans.spans()[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                    "\"parent\": %d}",
                    i ? ", " : "", s.name, s.start_s, s.end_s, s.parent);
      list += buf;
    }
    out.raw("spans", list + "]");
  }
  out.boolean("ok", outcomes_ok && bank_ok && replays_ok);
  std::printf("%s\n", out.str().c_str());
  return outcomes_ok && bank_ok && replays_ok ? 0 : 1;
}
