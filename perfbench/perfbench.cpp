/**
 * @file
 * End-to-end benchmark of the TEMPO simulator: simulated references per
 * CPU-second through the public TempoSystem / MultiSystem API, with
 * exact per-layer counts and a separate profiled run for per-layer host
 * time. perfbench/README.md describes the workloads and metrics;
 * perfbench/run.py builds this binary and runs it.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans PATH] [--print-pins]
 *
 * Every workload runs two points, paper_baseline and tempo_full,
 * interleaved. Each repetition builds a fresh system (timed as set-up)
 * and runs it (timed as run), on one thread, CPU time throughout.
 * --trace 0 prints the end-to-end metrics; --trace 1 interleaves
 * untraced and profiled repetitions and prints the per-layer metrics.
 * The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "bench_common.hh"
#include "cli/config_file.hh"
#include "common/profiler.hh"
#include "core/multi_system.hh"
#include "core/tempo_system.hh"

namespace {

using namespace tempo;

/** Default workload seed; fingerprints.txt pins results at it. */
constexpr std::uint64_t kPinSeed = 42;
/** References per timed slice for the per-slice ns/ref tail. */
constexpr std::uint64_t kSliceRefs = 1000;

std::uint64_t
cpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull
        + static_cast<std::uint64_t>(ts.tv_nsec);
}

double
wallS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------
// Stats-neutral Workload wrapper: slices and the allocation window.

/**
 * Counts Workload::next() calls across every app of one run. Every
 * kSliceRefs calls it stamps the thread CPU clock, and it snapshots the
 * allocation counter at the warm-up boundary and at the last reference.
 * All storage is reserved up front, so ticking never allocates.
 */
class SliceClock
{
  public:
    SliceClock(std::uint64_t warmup_calls, std::uint64_t total_calls)
        : warmupCalls_(warmup_calls), totalCalls_(total_calls)
    {
        stamps_.reserve(total_calls / kSliceRefs + 2);
    }

    void
    start()
    {
        stamps_.push_back(cpuNs());
        if (warmupCalls_ == 0)
            allocsBegin_ = perfbench::allocCount();
    }

    void
    tick()
    {
        ++calls_;
        if (calls_ == warmupCalls_)
            allocsBegin_ = perfbench::allocCount();
        if (calls_ == totalCalls_)
            allocsEnd_ = perfbench::allocCount();
        if (calls_ % kSliceRefs == 0)
            stamps_.push_back(cpuNs());
    }

    const std::vector<std::uint64_t> &stamps() const { return stamps_; }
    std::uint64_t windowAllocs() const { return allocsEnd_ - allocsBegin_; }
    std::uint64_t windowRefs() const { return totalCalls_ - warmupCalls_; }

  private:
    std::uint64_t warmupCalls_;
    std::uint64_t totalCalls_;
    std::uint64_t calls_ = 0;
    std::uint64_t allocsBegin_ = 0;
    std::uint64_t allocsEnd_ = 0;
    std::vector<std::uint64_t> stamps_;
};

class SlicedWorkload final : public Workload
{
  public:
    SlicedWorkload(std::unique_ptr<Workload> inner, SliceClock &clock)
        : inner_(std::move(inner)), clock_(clock)
    {
    }

    const std::string &name() const override { return inner_->name(); }

    MemRef
    next() override
    {
        clock_.tick();
        return inner_->next();
    }

    Addr footprintBytes() const override { return inner_->footprintBytes(); }
    unsigned mlpHint() const override { return inner_->mlpHint(); }

  private:
    std::unique_ptr<Workload> inner_;
    SliceClock &clock_;
};

// ---------------------------------------------------------------------
// Workloads.

struct Point {
    const char *label;
    SystemConfig cfg;
};

struct Spec {
    std::string name;
    /** One app runs on TempoSystem; more run together on MultiSystem. */
    std::vector<std::string> apps;
    std::uint64_t refs;   //!< measured references per app
    std::uint64_t warmup; //!< warm-up references per app
    std::vector<Point> points;

    bool multi() const { return apps.size() > 1; }
    std::uint64_t
    totalRefs() const
    {
        return (refs + warmup) * apps.size();
    }
};

/**
 * A committed preset on the machine tempo_sim builds by default (its
 * --seed 42 fixes the OS and page-table seeds, which decide superpage
 * coverage). The machine is the same at every benchmark seed; --seed
 * changes only the workloads' reference streams.
 */
SystemConfig
presetConfig(const std::string &preset, bool mix)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cli::applyConfigFile(
        std::string(PERFBENCH_CONFIG_DIR) + "/" + preset + ".ini", cfg);
    if (mix) {
        // bench/fig16_bliss's machine: LLC x apps, 4 channels, BLISS.
        cfg = bench::multiprogMachine(cfg, bench::fairnessMixes()[0].size());
        cfg.withSched(SchedKind::Bliss);
    }
    cfg.withSeed(kPinSeed);
    return cfg;
}

/**
 * The three workloads (README.md says why each was chosen). The mix
 * runs without simulated warm-up: MultiSystem resets shared-machine
 * counters only when its last core warms up, so with warm-up the
 * per-core and MC/DRAM counters would cover different windows. Returns
 * false for an unknown name.
 */
bool
makeSpec(const std::string &name, Spec &spec)
{
    if (name == "walk_heavy")
        spec = Spec{name, {"xsbench"}, 40000, 20000, {}};
    else if (name == "tlb_resident")
        spec = Spec{name, {"povray.small"}, 100000, 100000, {}};
    else if (name == "shared_mc")
        spec = Spec{name, bench::fairnessMixes()[0], 60000, 0, {}};
    else
        return false;
    for (const char *preset : {"paper_baseline", "tempo_full"})
        spec.points.push_back(Point{preset, presetConfig(preset, spec.multi())});
    return true;
}

// ---------------------------------------------------------------------
// One repetition: build, run, fingerprint, count.

/** Exact counts of one point's measured window. */
struct Counts {
    double refs = 0, walks = 0, tlbLookups = 0, tlbMisses = 0;
    double llcHits = 0, llcMisses = 0;
    double mcRequests = 0, writebacks = 0, queueDelaySum = 0;
    double queueHighWater = 0;
    double rowHits = 0, rowAccesses = 0;
    double prefetches = 0, replayLlcHits = 0, replayMerged = 0;
    double runtime = 0;
};

struct Rep {
    bool ok = false;
    std::string error;
    std::uint64_t fingerprint = 0;
    std::uint64_t setupNs = 0;
    std::uint64_t runNs = 0;
    std::uint64_t refsExecuted = 0; //!< warm-up + measured, all apps
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::uint64_t allocRefs = 0;
    Counts counts;
    prof::Totals prof;
    std::vector<std::uint64_t> stamps; //!< slice stamps (wrapped runs)
};

std::uint64_t
fingerprint(const stats::Report &report)
{
    // FNV-1a over every name and the exact bits of every value. The
    // profile.* keys are host wall-clock and excluded.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &[name, value] : report.entries()) {
        if (name.rfind("profile.", 0) == 0)
            continue;
        mix(name.data(), name.size() + 1);
        mix(&value, sizeof value);
    }
    return h;
}

/** Every statistic of a multiprogrammed run, one prefix per app. */
stats::Report
mixReport(MultiSystem &sys, const MultiResult &r)
{
    stats::Report full;
    auto add = [&full](const std::string &prefix, const auto &source) {
        stats::Report part;
        source.report(part);
        full.merge(prefix, part);
    };
    for (std::size_t i = 0; i < sys.numCores(); ++i) {
        const std::string app = "app" + std::to_string(i) + ".";
        const SimCore &core = sys.core(i);
        add(app, r.appStats[i]);
        add(app + "tlb.", core.tlb);
        add(app + "mmu.", core.mmu);
        add(app + "cache.", core.caches);
        add(app + "vm.", core.addressSpace);
        full.add(app + "finish", r.appFinish[i]);
    }
    add("mc.", sys.machine().mc);
    add("dram.", sys.machine().dram);
    add("energy.", r.energy);
    full.add("runtime", r.runtime);
    return full;
}

/** Exact counts from a report; @p apps > 0 sums the app<i>. keys of a
 * mix report, whose shared LLC is read from app0. */
Counts
countsFrom(const stats::Report &report, std::size_t apps, double runtime)
{
    std::map<std::string, double> v(report.entries().begin(),
                                    report.entries().end());
    auto per_app = [&](const std::string &key) {
        if (apps == 0)
            return v.at(key);
        double sum = 0;
        for (std::size_t i = 0; i < apps; ++i)
            sum += v.at("app" + std::to_string(i) + "." + key);
        return sum;
    };
    auto llc = [&](const std::string &key) {
        return v.at((apps ? "app0.cache.llc." : "cache.llc.") + key);
    };
    Counts c;
    c.refs = per_app("refs");
    c.walks = per_app("walks");
    c.tlbMisses = per_app("tlb.misses");
    c.tlbLookups =
        c.tlbMisses + per_app("tlb.l1_hits") + per_app("tlb.l2_hits");
    c.llcHits = llc("hits");
    c.llcMisses = llc("misses");
    for (const char *kind : {"regular", "replay", "pt_walk",
                             "tempo_prefetch", "imp_prefetch",
                             "writeback"}) {
        const std::string k = std::string("mc.") + kind;
        c.mcRequests += v.at(k + ".served");
        c.queueDelaySum += v.at(k + ".served") * v.at(k + ".avg_queue_delay");
    }
    c.writebacks = v.at("mc.writeback.served");
    c.queueHighWater = v.at("mc.queue_high_water");
    c.rowHits = v.at("dram.row_hits");
    c.rowAccesses =
        c.rowHits + v.at("dram.row_misses") + v.at("dram.row_conflicts");
    c.prefetches = v.at("mc.tempo.prefetches_issued");
    c.replayLlcHits = per_app("replay_llc_hits");
    c.replayMerged = per_app("replay_merged");
    c.runtime = runtime;
    return c;
}

prof::Totals
totalsFromReport(const stats::Report &report)
{
    prof::Totals t;
    for (std::size_t i = 0; i < prof::kNumComponents; ++i) {
        const std::string name =
            prof::componentName(static_cast<prof::Component>(i));
        t.ns[i] = static_cast<std::uint64_t>(
            std::llround(report.get("profile." + name + "_ms") * 1e6));
        t.calls[i] = static_cast<std::uint64_t>(
            report.get("profile." + name + "_calls"));
    }
    return t;
}

/**
 * One repetition of @p point. @p wrapped routes every app through a
 * SlicedWorkload; @p traced turns the profiler on. TempoSystem::run
 * opens its own profiler window; MultiSystem::run opens none, so the
 * benchmark opens one around it.
 */
Rep
runRep(const Spec &spec, const Point &point, std::uint64_t seed,
       bool wrapped, bool traced)
{
    Rep rep;
    prof::setEnabled(traced);
    SliceClock clock(spec.warmup * spec.apps.size(), spec.totalRefs());
    try {
        auto wrap = [&](std::unique_ptr<Workload> w) {
            if (!wrapped)
                return w;
            return std::unique_ptr<Workload>(
                std::make_unique<SlicedWorkload>(std::move(w), clock));
        };
        if (!spec.multi()) {
            const std::uint64_t t0 = cpuNs();
            TempoSystem sys(point.cfg,
                            wrap(makeWorkload(spec.apps[0], seed)));
            const std::uint64_t t1 = cpuNs();
            clock.start();
            const RunResult r = sys.run(spec.refs, spec.warmup);
            const std::uint64_t t2 = cpuNs();
            rep.setupNs = t1 - t0;
            rep.runNs = t2 - t1;
            rep.ok = r.status.ok();
            rep.error = r.status.error;
            stats::Report full = r.report;
            full.add("runtime", r.runtime);
            full.add("dram_ptw", r.dramPtw);
            full.add("dram_replay", r.dramReplay);
            full.add("dram_other", r.dramOther);
            rep.fingerprint = fingerprint(full);
            rep.counts = countsFrom(full, 0, static_cast<double>(r.runtime));
            if (traced)
                rep.prof = totalsFromReport(r.report);
            rep.events = sys.machine().eq.executed();
        } else {
            const std::uint64_t t0 = cpuNs();
            std::vector<std::unique_ptr<Workload>> mix =
                makeMix(spec.apps, seed);
            for (auto &w : mix)
                w = wrap(std::move(w));
            MultiSystem sys(point.cfg, std::move(mix));
            const std::uint64_t t1 = cpuNs();
            clock.start();
            if (traced)
                prof::beginWindow();
            const MultiResult r = sys.run(spec.refs, spec.warmup);
            if (traced)
                rep.prof = prof::endWindow();
            const std::uint64_t t2 = cpuNs();
            rep.setupNs = t1 - t0;
            rep.runNs = t2 - t1;
            rep.ok = r.status.ok();
            rep.error = r.status.error;
            const stats::Report full = mixReport(sys, r);
            rep.fingerprint = fingerprint(full);
            rep.counts = countsFrom(full, spec.apps.size(),
                                    static_cast<double>(r.runtime));
            rep.events = sys.machine().eq.executed();
        }
    } catch (const std::exception &e) {
        rep.ok = false;
        rep.error = e.what();
    }
    prof::setEnabled(false);
    rep.refsExecuted = spec.totalRefs();
    rep.allocs = clock.windowAllocs();
    rep.allocRefs = clock.windowRefs();
    rep.stamps = clock.stamps();
    return rep;
}

// ---------------------------------------------------------------------
// Statistics over repetitions.

/** Quartiles as Python's statistics.quantiles(values, n=4) gives them
 * (the default "exclusive" method); a single value is its own
 * quartiles. */
struct Quartiles {
    double q1 = 0, median = 0, q3 = 0;
    std::size_t n = 0;
};

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    q.n = v.size();
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    if (v.size() == 1) {
        q.q1 = q.median = q.q3 = v[0];
        return q;
    }
    // statistics.quantiles' exclusive method, integer steps included.
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    auto cut = [&](long i) {
        const long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        return (v[j - 1] * static_cast<double>(4 - delta)
                + v[j] * static_cast<double>(delta))
            / 4;
    };
    q.q1 = cut(1);
    q.median = cut(2);
    q.q3 = cut(3);
    return q;
}

/** The p-th percentile (nearest rank) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
    /** Quartiles and sample count of the repetitions behind a
     * host-time metric; n == 0 marks an exact count. */
    Quartiles spread;
    std::string note;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------
// Command line and the measurement loop.

struct Args {
    std::string workload;
    std::uint64_t seed = kPinSeed;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
    bool printPins = false;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--print-pins") {
            args.printPins = true;
            continue;
        }
        if (!(v = value()))
            return false;
        char *end = nullptr;
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v, &end);
            if (!(args.seconds > 0))
                return false;
        } else if (a == "--trace") {
            args.trace = std::strtoul(v, &end, 10) != 0;
        } else if (a == "--spans") {
            args.spansPath = v;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return !args.workload.empty() || args.printPins;
}

/** Pinned "workload point fingerprint" lines at kPinSeed. */
std::map<std::string, std::uint64_t>
loadPins()
{
    std::map<std::string, std::uint64_t> pins;
    std::ifstream in(PERFBENCH_PINS);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, point, hex;
        if (fields >> workload >> point >> hex)
            pins[workload + " " + point] = std::stoull(hex, nullptr, 16);
    }
    return pins;
}

/** A benchmark span: name, CPU-time interval, the repetition it
 * belongs to, and its parent span (0 = none). */
struct Span {
    const char *name;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t rep;
    const char *point;
    std::uint64_t start, end;
};

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    // Chrome trace-event JSON ("X" complete events, microseconds of
    // thread CPU time), loadable in Perfetto.
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %u, \"parent\": %u, \"rep\": %u, "
                     "\"point\": \"%s\"}}%s\n",
                     s.name, static_cast<double>(s.start) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, s.id,
                     s.parent, s.rep, s.point,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

double
refsPerCpuS(const std::vector<Rep> &round)
{
    double refs = 0, ns = 0;
    for (const Rep &rep : round) {
        refs += static_cast<double>(rep.refsExecuted);
        ns += static_cast<double>(rep.runNs);
    }
    return ns > 0 ? refs / (ns / 1e9) : 0;
}

/** CPU ns of each segment of a wrapped repetition's run(): every
 * kSliceRefs-reference slice, then the drain after the last slice. */
std::vector<double>
segments(const Rep &rep)
{
    std::vector<double> seg;
    for (std::size_t i = 1; i < rep.stamps.size(); ++i)
        seg.push_back(static_cast<double>(rep.stamps[i] - rep.stamps[i - 1]));
    seg.push_back(static_cast<double>(rep.stamps.front() + rep.runNs
                                      - rep.stamps.back()));
    return seg;
}

/**
 * Per-slice best of N for one point: each segment's CPU time at its
 * fastest over the rounds. Every repetition of a point simulates the
 * same references, so segment k is the same work in every round, and a
 * burst of host contention that slows it in one round misses it in
 * another.
 */
std::vector<double>
bestSegments(const std::vector<std::vector<Rep>> &rounds, std::size_t point)
{
    std::vector<double> best;
    for (const auto &round : rounds) {
        const Rep &rep = round[point];
        if (!rep.ok || rep.stamps.empty())
            continue;
        const std::vector<double> seg = segments(rep);
        if (best.empty())
            best = seg;
        for (std::size_t i = 0; i < std::min(best.size(), seg.size()); ++i)
            best[i] = std::min(best[i], seg[i]);
    }
    return best;
}

/** Refs per CPU-second of run() with every segment at its fastest. */
double
bestRefsPerCpuS(const std::vector<std::vector<Rep>> &rounds)
{
    double refs = 0, ns = 0;
    for (std::size_t p = 0; p < rounds.front().size(); ++p) {
        refs += static_cast<double>(rounds.front()[p].refsExecuted);
        for (const double seg : bestSegments(rounds, p))
            ns += seg;
    }
    return ns > 0 ? refs / (ns / 1e9) : 0;
}

class Bench
{
  public:
    Bench(const Args &args, Spec spec)
        : args_(args), spec_(std::move(spec))
    {
    }

    int run();

  private:
    /** Run one repetition and check it against @p expect (0 = only
     * check that it ran). Counts the operation and its failure. */
    Rep checked(const Point &point, std::uint64_t seed, bool wrapped,
                bool traced, std::uint64_t expect, const char *what);

    void recordSpans(const Rep &rep, const Point &point);
    void endToEnd(const std::vector<std::vector<Rep>> &rounds);
    void perLayer(const std::vector<std::vector<Rep>> &plain,
                  const std::vector<std::vector<Rep>> &traced);
    void print() const;

    Args args_;
    Spec spec_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
    std::vector<Span> spans_;
    std::uint32_t repId_ = 0;
    /** Simulated runtime of each point at the pinned seed. */
    std::vector<double> pinnedRuntime_;
};

Rep
Bench::checked(const Point &point, std::uint64_t seed, bool wrapped,
               bool traced, std::uint64_t expect, const char *what)
{
    Rep rep = runRep(spec_, point, seed, wrapped, traced);
    ++attempted_;
    if (!rep.ok) {
        ++failed_;
        std::fprintf(stderr, "FAIL %s %s: %s\n", point.label, what,
                     rep.error.c_str());
    } else if (expect && rep.fingerprint != expect) {
        ++failed_;
        std::fprintf(stderr,
                     "FAIL %s %s: fingerprint %016llx, expected %016llx\n",
                     point.label, what,
                     static_cast<unsigned long long>(rep.fingerprint),
                     static_cast<unsigned long long>(expect));
    }
    return rep;
}

void
Bench::recordSpans(const Rep &rep, const Point &point)
{
    const std::uint32_t r = ++repId_;
    const std::uint64_t run_start = rep.stamps.empty() ? 0 : rep.stamps[0];
    const std::uint32_t setup_id = static_cast<std::uint32_t>(spans_.size()) + 1;
    spans_.push_back(Span{"setup", setup_id, 0, r, point.label,
                          run_start - rep.setupNs, run_start});
    const std::uint32_t run_id = setup_id + 1;
    spans_.push_back(Span{"run", run_id, 0, r, point.label, run_start,
                          run_start + rep.runNs});
    for (std::size_t i = 1; i < rep.stamps.size(); ++i) {
        spans_.push_back(Span{"slice",
                              static_cast<std::uint32_t>(spans_.size()) + 1,
                              run_id, r, point.label, rep.stamps[i - 1],
                              rep.stamps[i]});
    }
}

int
Bench::run()
{
    if (!perfbench::allocCounterSelfTest()) {
        std::fprintf(stderr, "FAIL allocation counter self-test\n");
        ++failed_;
    }
    ++attempted_;

    // Correctness gate and host warm-up: each point at the pinned seed
    // must reproduce fingerprints.txt, and at the run's seed an
    // unwrapped run gives the fingerprint every measured (wrapped,
    // possibly profiled) repetition must match.
    const auto pins = loadPins();
    std::vector<std::uint64_t> expect;
    for (const Point &point : spec_.points) {
        const auto pin = pins.find(spec_.name + " " + point.label);
        if (pin == pins.end()) {
            std::fprintf(stderr, "FAIL %s: no pinned fingerprint\n",
                         point.label);
            ++failed_;
        }
        pinnedRuntime_.push_back(
            checked(point, kPinSeed, false, false,
                    pin == pins.end() ? 0 : pin->second, "pinned seed")
                .counts.runtime);
        expect.push_back(
            checked(point, args_.seed, false, false, 0, "unwrapped")
                .fingerprint);
    }

    // Measurement: rounds of both points, order alternating, until the
    // time is up. With --trace 1 untraced and traced rounds alternate.
    std::vector<std::vector<Rep>> plain, traced;
    const double deadline = wallS() + args_.seconds;
    for (std::size_t round = 0; wallS() < deadline || plain.size() < 3;
         ++round) {
        const bool profiled = args_.trace && round % 2 == 1;
        std::vector<Rep> reps(spec_.points.size());
        for (std::size_t k = 0; k < spec_.points.size(); ++k) {
            const std::size_t p =
                (round / (args_.trace ? 2 : 1)) % 2 ? spec_.points.size() - 1 - k
                                                    : k;
            reps[p] = checked(spec_.points[p], args_.seed, true, profiled,
                              expect[p], profiled ? "traced" : "wrapped");
            if (profiled)
                recordSpans(reps[p], spec_.points[p]);
        }
        (profiled ? traced : plain).push_back(std::move(reps));
    }

    if (args_.trace) {
        perLayer(plain, traced);
        if (!args_.spansPath.empty())
            writeSpans(args_.spansPath, spans_);
    } else {
        endToEnd(plain);
    }
    print();
    return 0;
}

void
Bench::endToEnd(const std::vector<std::vector<Rep>> &rounds)
{
    // The host's cache contention comes in bursts and phases (README.md,
    // "Host noise"), so both host-time metrics take every slice at its
    // fastest over the rounds. Per-round figures give the quartiles.
    std::vector<double> rate, round_tail, setup;
    for (const auto &round : rounds) {
        rate.push_back(refsPerCpuS(round));
        std::vector<double> slice_ns;
        for (const Rep &rep : round) {
            setup.push_back(static_cast<double>(rep.setupNs) / 1e9);
            for (std::size_t i = 1; i < rep.stamps.size(); ++i)
                slice_ns.push_back(
                    static_cast<double>(rep.stamps[i] - rep.stamps[i - 1])
                    / kSliceRefs);
        }
        round_tail.push_back(percentile(slice_ns, 90));
    }
    metrics_.push_back({"refs_per_cpu_s", bestRefsPerCpuS(rounds), "refs/s",
                        quartiles(rate),
                        "each slice at its best over the rounds; "
                        "quartiles: per-round rates"});
    std::vector<double> best_slice_ns;
    for (std::size_t p = 0; p < spec_.points.size(); ++p) {
        const std::vector<double> best = bestSegments(rounds, p);
        // The last segment is the drain after the last slice.
        for (std::size_t i = 0; i + 1 < best.size(); ++i)
            best_slice_ns.push_back(best[i] / kSliceRefs);
    }
    metrics_.push_back({"ns_per_ref_p90", percentile(best_slice_ns, 90), "ns",
                        quartiles(round_tail),
                        "p90 of " + std::to_string(best_slice_ns.size())
                            + " best slices of "
                            + std::to_string(kSliceRefs)
                            + " refs; quartiles: per-round p90"});
    const Quartiles uq = quartiles(setup);
    metrics_.push_back({"setup_s", uq.median, "s", uq,
                        "factory + construction, median per point"});
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    metrics_.push_back({"peak_rss_mb",
                        static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
                        {}, "process high-water mark"});
    metrics_.push_back({"tempo_gain",
                        1.0 - pinnedRuntime_.back() / pinnedRuntime_.front(),
                        "fraction", {},
                        "runtime reduction at the pinned seed, slowest app"});
}

void
Bench::perLayer(const std::vector<std::vector<Rep>> &plain,
                const std::vector<std::vector<Rep>> &traced)
{
    static const struct {
        const char *layer;
        prof::Component component;
    } kLayers[] = {
        {"core", prof::Component::Core},
        {"sched", prof::Component::Scheduler},
        {"cache", prof::Component::Cache},
        {"vm", prof::Component::Walker},
        {"mc", prof::Component::Mc},
        {"dram", prof::Component::Dram},
        {"workloads", prof::Component::Workload},
    };
    for (const auto &[layer, component] : kLayers) {
        const std::size_t c = static_cast<std::size_t>(component);
        std::vector<double> self_ns, scopes;
        for (const auto &round : traced) {
            double ns = 0, calls = 0, refs = 0;
            for (const Rep &rep : round) {
                ns += static_cast<double>(rep.prof.ns[c]);
                calls += static_cast<double>(rep.prof.calls[c]);
                refs += static_cast<double>(rep.refsExecuted);
            }
            self_ns.push_back(ns / refs);
            scopes.push_back(calls / refs);
        }
        const Quartiles q = quartiles(self_ns);
        metrics_.push_back({std::string(layer) + ".self_ns_per_ref",
                            q.median, "ns", q, "profiled self-time"});
        metrics_.push_back({std::string(layer) + ".scopes_per_ref",
                            quartiles(scopes).median, "count", {},
                            "profiler scope entries"});
    }

    std::vector<double> traced_ns;
    for (const auto &round : traced)
        traced_ns.push_back(1e9 / refsPerCpuS(round));
    metrics_.push_back({"trace.overhead",
                        bestRefsPerCpuS(plain) / bestRefsPerCpuS(traced), "x",
                        quartiles(traced_ns),
                        "untraced / traced refs per CPU-second, each slice "
                        "at its best; quartiles: traced ns/ref per round"});

    // Workload::next() alone, outside the simulator.
    std::vector<double> next_ns;
    for (std::size_t i = 0; i < spec_.apps.size(); ++i) {
        auto w = makeWorkload(spec_.apps[i], args_.seed + 13 * i);
        Addr sink = 0;
        for (int chunk = 0; chunk < 20; ++chunk) {
            const std::uint64_t t0 = cpuNs();
            for (int k = 0; k < 10000; ++k)
                sink ^= w->next().vaddr;
            next_ns.push_back(static_cast<double>(cpuNs() - t0) / 10000);
        }
        asm volatile("" : : "r"(sink));
    }
    const Quartiles nq = quartiles(next_ns);
    metrics_.push_back({"workloads.next_ns", nq.median, "ns", nq,
                        "standalone next(), median of 10k-call chunks"});

    // Exact counts from the first untraced round: both points summed,
    // TEMPO ratios from the tempo_full point.
    const std::vector<Rep> &round = plain.front();
    Counts sum;
    double events = 0, executed = 0, allocs = 0, alloc_refs = 0;
    for (const Rep &rep : round) {
        const Counts &c = rep.counts;
        sum.refs += c.refs;
        sum.walks += c.walks;
        sum.tlbLookups += c.tlbLookups;
        sum.tlbMisses += c.tlbMisses;
        sum.llcHits += c.llcHits;
        sum.llcMisses += c.llcMisses;
        sum.mcRequests += c.mcRequests;
        sum.writebacks += c.writebacks;
        sum.queueDelaySum += c.queueDelaySum;
        sum.queueHighWater = std::max(sum.queueHighWater, c.queueHighWater);
        sum.rowHits += c.rowHits;
        sum.rowAccesses += c.rowAccesses;
        events += static_cast<double>(rep.events);
        executed += static_cast<double>(rep.refsExecuted);
        allocs += static_cast<double>(rep.allocs);
        alloc_refs += static_cast<double>(rep.allocRefs);
    }
    const Counts &tempo = round.back().counts;
    auto exact = [this](const char *name, double value, const char *unit,
                        const char *note) {
        metrics_.push_back({name, std::isfinite(value) ? value : 0, unit,
                            {}, note});
    };
    exact("sched.events_per_ref", events / executed, "count",
          "events executed / refs executed");
    exact("core.allocs_per_ref", allocs / alloc_refs, "count",
          "operator new calls in the measured window / refs");
    exact("vm.tlb_miss_rate", sum.tlbMisses / sum.tlbLookups, "fraction",
          "");
    exact("vm.walks_per_ref", sum.walks / sum.refs, "count", "");
    exact("cache.llc_miss_rate", sum.llcMisses / (sum.llcHits + sum.llcMisses),
          "fraction", "");
    exact("mc.requests_per_ref", sum.mcRequests / sum.refs, "count", "");
    exact("mc.writebacks_per_ref", sum.writebacks / sum.refs, "count", "");
    exact("mc.queue_high_water", sum.queueHighWater, "count",
          "max over points");
    exact("mc.avg_queue_delay_cycles", sum.queueDelaySum / sum.mcRequests,
          "cycles", "");
    exact("dram.row_hit_rate", sum.rowHits / sum.rowAccesses, "fraction", "");
    exact("tempo.prefetches_per_ref", tempo.prefetches / tempo.refs, "count",
          "tempo_full point");
    exact("tempo.useful_frac",
          (tempo.replayLlcHits + tempo.replayMerged) / tempo.prefetches,
          "fraction", "(replay_llc_hits + replay_merged) / prefetches");
}

void
Bench::print() const
{
    std::printf("# perfbench %s seed=%llu trace=%d: %llu operations, %llu "
                "failed\n",
                spec_.name.c_str(),
                static_cast<unsigned long long>(args_.seed), args_.trace ? 1 : 0,
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    std::printf("# %-27s %12s %-8s %5s %12s %12s %12s  %s\n", "metric",
                "value", "unit", "n", "q1", "median", "q3", "note");
    for (const Metric &m : metrics_) {
        if (m.spread.n)
            std::printf("# %-27s %12.6g %-8s %5zu %12.6g %12.6g %12.6g  %s\n",
                        m.name.c_str(), m.value, m.unit.c_str(), m.spread.n,
                        m.spread.q1, m.spread.median, m.spread.q3,
                        m.note.c_str());
        else
            std::printf("# %-27s %12.6g %-8s %5s %12s %12s %12s  %s\n",
                        m.name.c_str(), m.value, m.unit.c_str(), "exact",
                        "", "", "", m.note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": "
            + jsonNumber(metrics_[i].value) + ", \"unit\": \""
            + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/** Fingerprints of both points of every workload at the pinned seed,
 * in fingerprints.txt format. */
int
printPins()
{
    std::printf("# workload point fingerprint (seed %llu)\n",
                static_cast<unsigned long long>(kPinSeed));
    for (const char *name : {"walk_heavy", "tlb_resident", "shared_mc"}) {
        Spec spec;
        makeSpec(name, spec);
        for (const Point &point : spec.points) {
            const Rep rep = runRep(spec, point, kPinSeed, false, false);
            if (!rep.ok) {
                std::fprintf(stderr, "%s %s failed: %s\n", name,
                             point.label, rep.error.c_str());
                return 1;
            }
            std::printf("%s %s %016llx\n", name, point.label,
                        static_cast<unsigned long long>(rep.fingerprint));
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload walk_heavy|tlb_resident|"
                     "shared_mc --seed N --seconds S --trace 0|1 "
                     "[--spans PATH] | --print-pins\n");
        return 2;
    }
    if (args.printPins)
        return printPins();
    Spec spec;
    if (!makeSpec(args.workload, spec)) {
        std::fprintf(stderr, "error: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    return Bench(args, std::move(spec)).run();
}
