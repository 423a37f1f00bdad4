/**
 * @file
 * Shared pieces of the repository benchmark: the span recorder, the
 * statistics helpers, and the interface each workload implements.
 *
 * A workload is a list of ops. An op is one unit of work a user of the
 * system would wait for (one fig6 job, or one static-analysis call on
 * one program); the benchmark times whole ops for the end-to-end
 * metrics and, in a traced run, records a span around every call it
 * makes into a layer's public function for the per-layer metrics.
 */
#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** Nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Nanoseconds of CPU time used by the calling thread. The benchmark is
 * one thread that neither sleeps nor waits on I/O while it times, so
 * this is its wall time less the time other load on the host kept it
 * off a CPU.
 */
inline std::int64_t
cpuNs()
{
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<std::int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
}

/**
 * A fixed mix of ordinary C++ work (std::map build and lookups, a sort,
 * a switch-dispatch loop) that shares no code with the programs under
 * test. Returns its checksum, the same on every call.
 */
std::uint64_t referenceWork();

/**
 * Host speed over a run, read from the CPU time of referenceWork().
 * On a shared host the same code runs up to a third slower for minutes
 * when other tenants are busy; this reference slows with it, so the
 * end-to-end times are scaled by nominalMs / medianMs() to a fixed host
 * speed.
 */
class HostSpeed
{
  public:
    /** About the reference's median time on the 4-vCPU VM the
     *  benchmark was defined on: the speed times are scaled to. */
    static constexpr double nominalMs = 25.0;

    /** Time the reference once. */
    void sample();
    /** Time it if a second or more has passed since the last sample. */
    void maybeSample();
    double medianMs() const;

  private:
    std::vector<double> ms_;
    std::int64_t last_ = 0;
    std::uint64_t sum_ = 0;
};

/** Span op ids below zero tag calls made outside the op list. */
inline constexpr std::int32_t companionOp = -1;  ///< traced-run extras
inline constexpr std::int32_t setupOp = -2;      ///< input building

/** One timed call. Names are string literals. */
struct Span
{
    const char *name = "";
    std::int64_t start = 0;  ///< ns on the steady clock
    std::int64_t end = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span
    std::int32_t op = companionOp;
};

/**
 * In-memory span recorder. Spans nest: a span begun while another is
 * open becomes its child. Disabled recorders store nothing and read no
 * clock, so an untraced run pays nothing for the Scope objects.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    int begin(const char *name, std::int32_t op);
    void end(int index);

    const std::vector<Span> &spans() const { return spans_; }
    /** Time spent inside begin()/end() outside the recorded intervals. */
    std::int64_t bookkeepingNs() const { return bookkeeping_; }
    /** All spans as one JSON document. */
    std::string toJson() const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::int64_t bookkeeping_ = 0;
};

/** Records one span for its lifetime (nothing when tracing is off). */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, std::int32_t op)
        : tracer_(tracer),
          index_(tracer.enabled() ? tracer.begin(name, op) : -1)
    {
    }
    ~Scope()
    {
        if (index_ >= 0)
            tracer_.end(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its children cover (overlapping children counted once).
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/**
 * Harrell-Davis estimate of the @p p th percentile (0 < p < 100): a
 * weighted mean of all order statistics, with weights from the
 * Beta(p(n+1), (1-p)(n+1)) distribution, so the weight sits on the
 * values near rank p*n. Unlike one order statistic it does not jump
 * when the rank falls in a gap between two ops of very different size,
 * and the noise of a single op is averaged with its neighbours'.
 */
double percentile(std::vector<double> values, double p);

/** Regularized incomplete beta function I_x(a, b), a, b > 0. */
double incompleteBeta(double x, double a, double b);

/**
 * Digest of op key -> behaviour record. Keyed by op, so the order the
 * ops ran in (the seed) does not enter it.
 */
std::string digest(const std::map<std::string, std::string> &records);

/** Work and outcome counters summed over calls ("cpu.insts.scalar"). */
using Counts = std::map<std::string, double>;

/** What one op reports. */
struct OpResult
{
    bool ok = true;
    std::string error;   ///< why the op failed
    std::string record;  ///< behavioural fields for the digest
    double insts = 0;    ///< instructions retired (or walked, statically)
};

/** Where an op puts its spans and counts. */
struct Ctx
{
    Tracer &tracer;
    Counts &counts;
    std::int32_t op;
};

/** A named set of ops over the repository's own programs. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every op's inputs and reference outputs. */
    virtual void setup(Ctx ctx) = 0;

    virtual std::size_t opCount() const = 0;
    /** Stable identity of op @p i, independent of the seed. */
    virtual std::string opKey(std::size_t i) const = 0;
    /**
     * Ops in a lower phase produce inputs for ops in a higher one; the
     * seed permutes ops only within a phase.
     */
    virtual unsigned opPhase(std::size_t) const { return 0; }

    /**
     * Fewest passes a run makes, so that an op's median latency is
     * taken over runs some seconds apart, not from one stretch of host
     * load.
     */
    virtual unsigned minPasses() const { return 1; }

    /** Run op @p i and check its output. Throws on a layer error. */
    virtual OpResult runOp(std::size_t i, Ctx ctx) = 0;

    /** Checks that compare several ops of one pass; may fail ops. */
    virtual void checkPass(std::vector<OpResult> &) {}

    /**
     * Traced run only: calls into every layer the op list leaves idle,
     * so each per-layer metric has a measured value on every workload.
     * Returns how many of its output checks failed.
     */
    virtual int companion(Ctx ctx) = 0;
};

/** fig6 on the cycle tier. */
std::unique_ptr<Workload> makeSimWorkload();
/** The analysis CLIs' suite corpora through the static stack. */
std::unique_ptr<Workload> makeStaticSuite();

/**
 * How often a pass runs each op back to back: up to @c maxRuns times,
 * while the op's runs so far took less than @c budgetMs. Short ops
 * thus get several latency samples per pass at little cost.
 */
struct Repeat
{
    unsigned maxRuns = 1;
    double budgetMs = 0;
};

/** One pass over the op list. */
struct PassResult
{
    std::int64_t wallNs = 0;
    /** Per op id: the CPU-time latency of each of its runs, in ms. */
    std::vector<std::vector<double>> opMs;
    std::vector<OpResult> results;    ///< indexed by op id
};

/** Op ids in run order: a seeded shuffle, then ordered by phase. */
std::vector<std::size_t> opOrder(const Workload &wl, std::uint64_t seed);

/**
 * Run every op in @p order, each as often as @p repeat allows. An op
 * that throws or fails a check is kept in the results with ok = false;
 * nothing is dropped. A repeat must pass its check and reproduce the
 * op's first record, or the op fails. Between ops, @p speed (if given)
 * is sampled about once a second.
 */
PassResult runPass(Workload &wl, const std::vector<std::size_t> &order,
                   Tracer &tracer, Counts &counts, Repeat repeat = {},
                   HostSpeed *speed = nullptr);

/** Layer probes shared by the workloads' companion calls. */
namespace probe
{
/**
 * Build, run and check the fig6 jobs with the given keys on the cycle
 * tier or the fast tier; returns how many failed their check.
 */
int fig6Jobs(Ctx ctx, const std::vector<std::string> &keys, bool fastTier);
/** The static_suite ops and poly calls on the fir programs only. */
int staticStack(Ctx ctx);
/** Assemble every range-stress source. */
void assembler(Ctx ctx);
/** translateOffline on every hinted suite region at W=2/4/8/16. */
void translator(Ctx ctx);
} // namespace probe

/** The benchmark's own checks; prints failures, returns the count. */
int runSelfTests();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
