/**
 * @file
 * The sim_cycle workload: the paper's Figure 6 campaign, one op per
 * lab job, on the cycle tier. Every op compares its output arrays with
 * Workload::goldenRun, the vector-IR interpreter, which shares no code
 * with the scalarizer, the translator or either execution tier. The
 * functional tier runs the jobs it accepts in the traced run's
 * companion calls.
 */
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "lab/experiments.hh"
#include "lab/lab.hh"
#include "sim.hh"

namespace perfbench
{

using liquid::ExecMode;
using liquid::MainMemory;
using liquid::StatGroup;
using liquid::System;

namespace
{

const char *
cycleRunSpan(ExecMode mode)
{
    switch (mode) {
      case ExecMode::ScalarBaseline: return "sim.run.scalar";
      case ExecMode::Liquid: return "sim.run.liquid";
      case ExecMode::NativeSimd: return "sim.run.native";
    }
    throw std::logic_error("unknown ExecMode");
}

const char *
fastRunSpan(ExecMode mode)
{
    switch (mode) {
      case ExecMode::ScalarBaseline: return "fast.run.scalar";
      case ExecMode::NativeSimd: return "fast.run.native";
      case ExecMode::Liquid: break;
    }
    throw std::logic_error("the functional tier has no liquid mode");
}

void
appendStats(std::ostringstream &rec, const StatGroup &group)
{
    for (const auto &[stat, value] : group)
        rec << ';' << group.name() << '.' << stat << '=' << value;
}

/** Counts and digest fields of one finished System. */
void
harvest(System &sys, Ctx ctx, std::ostringstream &rec, OpResult &r)
{
    const ExecMode mode = sys.config().mode;
    const StatGroup &core = sys.core().stats();
    const StatGroup &dcache = sys.core().dcache().stats();
    const double insts = static_cast<double>(core.get("insts"));
    r.insts += insts;
    Counts &c = ctx.counts;
    c[std::string("cpu.insts.") + lab::modeName(mode)] += insts;
    c["cpu.cycles"] += static_cast<double>(sys.cycles());
    c["memory.dcache_accesses"] += static_cast<double>(dcache.get("accesses"));
    c["memory.dcache_misses"] += static_cast<double>(dcache.get("misses"));

    rec << "cycles=" << sys.cycles();
    appendStats(rec, core);
    appendStats(rec, sys.core().icache().stats());
    appendStats(rec, dcache);
    if (mode == ExecMode::Liquid) {
        const StatGroup &xl = sys.translator().stats();
        const StatGroup &uc = sys.ucodeCache().stats();
        c["translator.translations"] +=
            static_cast<double>(xl.get("translations"));
        c["translator.aborts"] += static_cast<double>(xl.get("aborts"));
        c["translator.observed_insts"] +=
            static_cast<double>(xl.get("instsObserved"));
        c["memory.ucode_hits"] += static_cast<double>(uc.get("hits"));
        c["memory.ucode_lookups"] += static_cast<double>(uc.get("lookups"));
        appendStats(rec, xl);
        appendStats(rec, uc);
    }
}

} // namespace

const std::vector<GoldenArray> &
Goldens::get(const lab::Job &job, const liquid::Workload::Build &build,
             Ctx ctx)
{
    auto [it, fresh] = cache_.try_emplace({job.workload, job.repsOverride});
    if (!fresh)
        return it->second;
    liquid::Workload *wl = nullptr;
    for (auto &candidate : suite_) {
        if (candidate->name() == job.workload)
            wl = candidate.get();
    }
    if (!wl)
        throw std::runtime_error("unknown workload " + job.workload);
    wl->setReps(job.repsOverride);  // 0 restores the default

    Scope s(ctx.tracer, "workloads.golden", ctx.op);
    MainMemory mem = MainMemory::forProgram(build.prog);
    wl->goldenRun(build, mem);
    for (const auto &[name, words] : wl->allOutputs()) {
        it->second.push_back(
            {name,
             liquid::Workload::readArray(build.prog, mem, name, words)});
    }
    return it->second;
}

SimOp
prepareSimOp(const lab::Job &job, Goldens &goldens, Ctx ctx)
{
    SimOp op;
    op.job = job;
    {
        Scope s(ctx.tracer, "scalarizer.build", ctx.op);
        op.build = lab::buildJob(job);
    }
    op.golden = goldens.get(job, op.build, ctx);
    return op;
}

namespace
{

/** Empty when every output array matches golden, else the first
 *  mismatch. */
std::string
checkOutputs(const SimOp &op, const MainMemory &mem)
{
    for (const GoldenArray &want : op.golden) {
        const auto got = liquid::Workload::readArray(
            op.build.prog, mem, want.name,
            static_cast<unsigned>(want.words.size()));
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (got[i] != want.words[i]) {
                std::ostringstream os;
                os << op.job.key() << ": array '" << want.name
                   << "' element " << i << " is " << got[i]
                   << ", golden " << want.words[i];
                return os.str();
            }
        }
    }
    return "";
}

} // namespace

OpResult
runCycleOp(const SimOp &op, Ctx ctx)
{
    const liquid::SystemConfig config = op.job.config();
    const char *runSpan = cycleRunSpan(config.mode);
    OpResult r;
    std::ostringstream rec;

    // Warm-start jobs (the paper's "ideal" bar) run twice, the second
    // time with the microcode cache seeded by the first, as
    // lab::runBuilt does.
    std::unique_ptr<System> warm;
    if (op.job.warmStart) {
        {
            Scope s(ctx.tracer, "sim.construct", ctx.op);
            warm = std::make_unique<System>(config, op.build.prog);
        }
        {
            Scope s(ctx.tracer, runSpan, ctx.op);
            warm->run();
        }
        rec << "warmup:";
        harvest(*warm, ctx, rec, r);
        rec << "|";
    }
    std::unique_ptr<System> sys;
    {
        Scope s(ctx.tracer, "sim.construct", ctx.op);
        sys = std::make_unique<System>(config, op.build.prog);
        if (warm)
            sys->ucodeCache().warmStartFrom(warm->ucodeCache());
    }
    {
        Scope s(ctx.tracer, runSpan, ctx.op);
        sys->run();
    }
    harvest(*sys, ctx, rec, r);
    r.record = rec.str();
    r.error = checkOutputs(op, sys->memory());
    r.ok = r.error.empty();
    return r;
}

OpResult
runFastOp(const SimOp &op, Ctx ctx, liquid::fast::Sabotage sabotage)
{
    const liquid::SystemConfig config = op.job.config();
    const char *runSpan = fastRunSpan(config.mode);
    // The same FastConfig lab::runBuilt derives for functional jobs.
    liquid::fast::FastConfig fc;
    fc.simdWidth = config.core.simdWidth;
    fc.faults = config.core.faults;
    fc.maxInsts = config.core.maxInsts;
    fc.sabotage = sabotage;

    std::optional<MainMemory> mem;
    std::unique_ptr<liquid::fast::FastInterp> interp;
    {
        Scope s(ctx.tracer, "fast.setup", ctx.op);
        mem.emplace(MainMemory::forProgram(op.build.prog));
        interp = std::make_unique<liquid::fast::FastInterp>(
            fc, op.build.prog, *mem);
    }
    {
        Scope s(ctx.tracer, runSpan, ctx.op);
        interp->run();
    }
    OpResult r;
    r.insts = static_cast<double>(interp->retired());
    ctx.counts[std::string("fast.insts.") + lab::modeName(config.mode)] +=
        r.insts;
    std::ostringstream rec;
    rec << "retired=" << interp->retired();
    appendStats(rec, interp->stats());
    r.record = rec.str();
    r.error = checkOutputs(op, *mem);
    r.ok = r.error.empty();
    return r;
}

namespace
{

std::vector<lab::Job>
fig6Campaign()
{
    return lab::campaignByName("fig6", /*smoke=*/false).matrix.expand();
}

bool
functionalTierAccepts(const lab::Job &job)
{
    return job.mode != ExecMode::Liquid && !job.warmStart;
}

class SimWorkload : public Workload
{
  public:
    void
    setup(Ctx ctx) override
    {
        Goldens goldens;
        ops_.clear();
        for (const lab::Job &job : fig6Campaign())
            ops_.push_back(prepareSimOp(job, goldens, ctx));
    }

    std::size_t opCount() const override { return ops_.size(); }
    std::string opKey(std::size_t i) const override
    {
        return ops_[i].job.key();
    }
    /** A pass takes about ten seconds, most of it in a few long jobs
     *  that run once per pass; they get the median of three. */
    unsigned minPasses() const override { return 3; }

    OpResult
    runOp(std::size_t i, Ctx ctx) override
    {
        return runCycleOp(ops_[i], ctx);
    }

    int
    companion(Ctx ctx) override
    {
        // The scalar/native jobs on the functional tier, so the
        // functional/cycle speedup compares identical work.
        int failures = 0;
        for (const SimOp &op : ops_) {
            if (functionalTierAccepts(op.job))
                failures += runFastOp(op, ctx).ok ? 0 : 1;
        }
        failures += probe::staticStack(ctx);
        probe::assembler(ctx);
        probe::translator(ctx);
        return failures;
    }

  private:
    std::vector<SimOp> ops_;
};

} // namespace

std::unique_ptr<Workload>
makeSimWorkload()
{
    return std::make_unique<SimWorkload>();
}

int
probe::fig6Jobs(Ctx ctx, const std::vector<std::string> &keys, bool fastTier)
{
    Goldens goldens;
    int failures = 0;
    for (const lab::Job &job : fig6Campaign()) {
        bool wanted = false;
        for (const std::string &key : keys)
            wanted = wanted || job.key() == key;
        if (!wanted)
            continue;
        const SimOp op = prepareSimOp(job, goldens, ctx);
        const OpResult r = fastTier ? runFastOp(op, ctx) : runCycleOp(op, ctx);
        failures += r.ok ? 0 : 1;
    }
    return failures;
}

} // namespace perfbench
