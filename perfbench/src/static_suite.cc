/**
 * @file
 * The static_suite workload: the corpora of the analysis CLIs' --suite
 * runs through the static stack, one op per public-function call on
 * one program (at one width where the call takes one).
 *
 *  - Each of the 15 suite programs is range-solved, verified at
 *    W=2/4/8/16 with facts off and with facts on (liquid-range), scanned
 *    unhinted with ranges (liquid-scan) and proved at W=16
 *    (liquid-proof).
 *  - Each rangeStressCases() program is range-solved and verified both
 *    ways (liquid-range --suite).
 *
 * Checks: no proof is Refuted, facts-on verdicts are never worse than
 * facts-off ones, and every stress case upgrades exactly when
 * RangeStressCase::expectUpgrade says so.
 */
#include <array>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "asm/assembler.hh"
#include "bench.hh"
#include "translator/offline.hh"
#include "verifier/poly.hh"
#include "verifier/proof.hh"
#include "verifier/range.hh"
#include "verifier/scan.hh"
#include "verifier/verifier.hh"
#include "workloads/range_stress.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using liquid::Severity;

namespace
{

constexpr std::array<unsigned, 4> widths{2, 4, 8, 16};

/** One verified region: what the facts-on/off comparison needs. */
struct Verdict
{
    Severity severity = Severity::Ok;
    unsigned discharged = 0;
};

struct StaticProgram
{
    std::string name;
    bool stress = false;
    bool expectUpgrade = false;
    liquid::Program hinted;  ///< W=8, hinted: range and verify
    std::optional<liquid::Program> unhinted;   ///< scan (suite only)
    std::optional<liquid::Program> proofProg;  ///< W=16 (suite only)

    // Produced by this pass's ops.
    liquid::ProgramRanges ranges;
    liquid::ProgramRanges unhintedRanges;
    /** [facts on][width index] -> per-region verdicts. */
    std::array<std::array<std::vector<Verdict>, widths.size()>, 2> verdicts;
    /** [facts on][width index] -> op index. */
    std::array<std::array<std::size_t, widths.size()>, 2> verifyOp{};
    liquid::ScanReport scan;
};

enum class Kind
{
    Solve,
    SolveUnhinted,
    Verify,
    VerifyFacts,
    Scan,
    Prove,
};

struct StaticOp
{
    std::size_t prog = 0;
    Kind kind = Kind::Solve;
    std::size_t widthIndex = 0;
};

class StaticSuite : public Workload
{
  public:
    /** @p only: restrict to one suite program (no stress cases). */
    explicit StaticSuite(std::optional<std::string> only = std::nullopt)
        : only_(std::move(only))
    {
    }

    void
    setup(Ctx ctx) override
    {
        progs_.clear();
        ops_.clear();
        for (const auto &wl : liquid::makeSuite()) {
            if (only_ && wl->name() != *only_)
                continue;
            StaticProgram p;
            p.name = wl->name();
            auto build = [&](unsigned width, bool hinted) {
                Scope s(ctx.tracer, "scalarizer.build", ctx.op);
                return wl->build(liquid::EmitOptions::Mode::Scalarized,
                                 width, hinted)
                    .prog;
            };
            p.hinted = build(8, true);
            p.unhinted = build(8, false);
            p.proofProg = build(16, true);
            progs_.push_back(std::move(p));
        }
        if (!only_) {
            for (const liquid::RangeStressCase &c :
                 liquid::rangeStressCases()) {
                StaticProgram p;
                p.name = c.name;
                p.stress = true;
                p.expectUpgrade = c.expectUpgrade;
                Scope s(ctx.tracer, "asm.assemble", ctx.op);
                p.hinted = liquid::assemble(c.src);
                progs_.push_back(std::move(p));
            }
        }
        for (std::size_t i = 0; i < progs_.size(); ++i) {
            StaticProgram &p = progs_[i];
            ops_.push_back({i, Kind::Solve, 0});
            if (p.unhinted)
                ops_.push_back({i, Kind::SolveUnhinted, 0});
            for (std::size_t w = 0; w < widths.size(); ++w) {
                p.verifyOp[0][w] = ops_.size();
                ops_.push_back({i, Kind::Verify, w});
                p.verifyOp[1][w] = ops_.size();
                ops_.push_back({i, Kind::VerifyFacts, w});
            }
            if (p.unhinted)
                ops_.push_back({i, Kind::Scan, 0});
            if (p.proofProg)
                ops_.push_back({i, Kind::Prove, 0});
        }
    }

    std::size_t opCount() const override { return ops_.size(); }

    std::string
    opKey(std::size_t i) const override
    {
        const StaticOp &op = ops_[i];
        std::string key = "static/" + progs_[op.prog].name + '/';
        switch (op.kind) {
          case Kind::Solve: return key + "range";
          case Kind::SolveUnhinted: return key + "range/unhinted";
          case Kind::Verify:
            return key + "verify/w" + std::to_string(widths[op.widthIndex]);
          case Kind::VerifyFacts:
            return key + "verify_facts/w" +
                   std::to_string(widths[op.widthIndex]);
          case Kind::Scan: return key + "scan";
          case Kind::Prove: return key + "prove";
        }
        return key;
    }

    unsigned
    opPhase(std::size_t i) const override
    {
        const Kind k = ops_[i].kind;
        return k == Kind::Solve || k == Kind::SolveUnhinted ? 0 : 1;
    }

    OpResult
    runOp(std::size_t i, Ctx ctx) override
    {
        const StaticOp &op = ops_[i];
        StaticProgram &p = progs_[op.prog];
        switch (op.kind) {
          case Kind::Solve: {
            Scope s(ctx.tracer, "range.solve", ctx.op);
            p.ranges = liquid::solveProgramRanges(p.hinted);
            return rangesResult(p.ranges);
          }
          case Kind::SolveUnhinted: {
            Scope s(ctx.tracer, "range.solve", ctx.op);
            p.unhintedRanges = liquid::solveProgramRanges(*p.unhinted);
            return rangesResult(p.unhintedRanges);
          }
          case Kind::Verify:
          case Kind::VerifyFacts:
            return verify(p, op, ctx);
          case Kind::Scan:
            return scan(p, ctx);
          case Kind::Prove:
            return prove(p, ctx);
        }
        throw std::logic_error("unknown static op");
    }

    void
    checkPass(std::vector<OpResult> &results) override
    {
        for (const StaticProgram &p : progs_) {
            unsigned upgrades = 0, discharged = 0;
            for (std::size_t w = 0; w < widths.size(); ++w) {
                const auto &off = p.verdicts[0][w];
                const auto &on = p.verdicts[1][w];
                OpResult &r = results[p.verifyOp[1][w]];
                if (off.size() != on.size())
                    fail(r, "facts-on verify saw a different region count");
                for (std::size_t k = 0; k < off.size() && k < on.size();
                     ++k) {
                    if (on[k].severity > off[k].severity)
                        fail(r, "region " + std::to_string(k) +
                                    ": facts-on verdict worse than facts-off");
                    if (off[k].severity == Severity::Warn &&
                        on[k].severity == Severity::Ok)
                        ++upgrades;
                    discharged += on[k].discharged;
                }
            }
            if (!p.stress)
                continue;
            const bool upgraded = upgrades > 0 || discharged > 0;
            std::string why;
            if (p.expectUpgrade && !upgraded)
                why = "expected an upgrade or discharge";
            if (!p.expectUpgrade && upgrades > 0)
                why = "negative control was upgraded";
            if (!why.empty()) {
                for (std::size_t w = 0; w < widths.size(); ++w)
                    fail(results[p.verifyOp[1][w]], p.name + ": " + why);
            }
        }
        // The next pass starts from no verdicts, so an op that threw
        // cannot be judged on stale ones.
        for (StaticProgram &p : progs_) {
            for (auto &byWidth : p.verdicts) {
                for (auto &v : byWidth)
                    v.clear();
            }
        }
    }

    /**
     * analyzePoly on every region the last scan analyzed, timed per
     * region, so poly's share of scan time shows. The call must
     * reproduce the validity summary scan reported.
     */
    int
    polyCalls(Ctx ctx)
    {
        int failures = 0;
        const liquid::ScanOptions defaults;
        for (const StaticProgram &p : progs_) {
            for (const liquid::ScanRegion &r : p.scan.regions) {
                if (!r.polyAnalyzed)
                    continue;
                Scope s(ctx.tracer, "poly.analyze", ctx.op);
                const liquid::PolyRegion poly = liquid::analyzePoly(
                    *p.unhinted, r.entryIndex, defaults.config, defaults.dep);
                ctx.counts["poly.events"] +=
                    static_cast<double>(poly.deps.events.size());
                failures += poly.validity.summary == r.widthValidity ? 0 : 1;
            }
        }
        return failures;
    }

    int
    companion(Ctx ctx) override
    {
        int failures = polyCalls(ctx);
        failures += probe::fig6Jobs(
            ctx, {"fig6/fir/scalar", "fig6/fir/liquid/w8", "fig6/fir/native/w8"},
            false);
        failures += probe::fig6Jobs(
            ctx, {"fig6/fir/scalar", "fig6/fir/native/w8"}, true);
        probe::translator(ctx);
        return failures;
    }

  private:
    static void
    fail(OpResult &r, const std::string &why)
    {
        if (r.ok)
            r.error = why;
        r.ok = false;
    }

    static OpResult
    rangesResult(const liquid::ProgramRanges &pr)
    {
        OpResult r;
        std::ostringstream rec;
        rec << "sound=" << pr.sound << ";rounds=" << pr.rounds
            << ";fns=" << pr.fns.size() << ";facts=" << pr.facts.size();
        r.record = rec.str();
        return r;
    }

    OpResult
    verify(StaticProgram &p, const StaticOp &op, Ctx ctx)
    {
        const bool facts = op.kind == Kind::VerifyFacts;
        liquid::VerifyOptions opts;
        opts.config.simdWidth = widths[op.widthIndex];
        if (facts)
            opts.ranges = &p.ranges;
        liquid::ProgramReport report;
        {
            Scope s(ctx.tracer,
                    facts ? "verifier.verify_facts" : "verifier.verify",
                    ctx.op);
            report = liquid::verifyProgram(p.hinted, opts);
        }
        OpResult r;
        std::ostringstream rec;
        auto &verdicts = p.verdicts[facts][op.widthIndex];
        verdicts.clear();
        for (const liquid::RegionReport &rr : report.regions) {
            verdicts.push_back({rr.verdict, rr.rangeDischarged});
            ctx.counts[std::string("verifier.") +
                       liquid::severityName(rr.verdict)] += 1;
            ctx.counts["depcheck.events"] += rr.dep.eventCount;
            r.insts += rr.analyzedInsts;
            rec << rr.entryIndex << ':' << liquid::severityName(rr.verdict)
                << '/' << liquid::abortReasonName(rr.reason) << "/w"
                << rr.predictedWidth << "/u" << rr.predictedUcode << "/c"
                << rr.predictedCvecs << "/d" << rr.rangeDischarged << "/e"
                << rr.dep.eventCount << "/p" << rr.dep.carriedPairs << "/i"
                << rr.analyzedInsts << ';';
        }
        r.record = rec.str();
        return r;
    }

    static OpResult
    scan(StaticProgram &p, Ctx ctx)
    {
        liquid::ScanOptions opts;
        opts.ranges = &p.unhintedRanges;
        {
            Scope s(ctx.tracer, "scan.scan", ctx.op);
            p.scan = liquid::scanProgram(*p.unhinted, opts);
        }
        OpResult r;
        std::ostringstream rec;
        for (const liquid::ScanRegion &sr : p.scan.regions) {
            rec << sr.entryIndex << ':' << sr.candidate << '/'
                << liquid::severityName(sr.overallVerdict()) << "/best"
                << sr.bestWidth << "/poly" << sr.polyUnbounded << '['
                << sr.widthValidity << ']';
            for (const liquid::WidthPrediction &wp : sr.predictions) {
                r.insts += wp.report.analyzedInsts;
                rec << "/w" << wp.requestedWidth << '='
                    << liquid::severityName(wp.report.verdict) << ','
                    << wp.report.predictedWidth;
            }
            rec << ';';
        }
        r.record = rec.str();
        return r;
    }

    static OpResult
    prove(StaticProgram &p, Ctx ctx)
    {
        liquid::ProgramProof proof;
        {
            Scope s(ctx.tracer, "proof.prove", ctx.op);
            proof = liquid::proveProgram(*p.proofProg, liquid::ProofOptions{});
        }
        OpResult r;
        std::ostringstream rec;
        for (const liquid::RegionProof &rp : proof.regions) {
            const liquid::ProofVerdict overall = rp.overall();
            ctx.counts[std::string("proof.") +
                       liquid::proofVerdictName(overall)] += 1;
            if (overall == liquid::ProofVerdict::Refuted)
                fail(r, p.name + ": region " + rp.entryLabel + " refuted");
            rec << rp.entryIndex << ':'
                << liquid::proofVerdictName(overall);
            for (const liquid::WidthProof &wp : rp.widths) {
                rec << "/w" << wp.width << '='
                    << liquid::proofVerdictName(wp.verdict) << ','
                    << wp.boundWidth << ',' << wp.obligations;
            }
            rec << ';';
        }
        r.record = rec.str();
        return r;
    }

    std::optional<std::string> only_;
    std::vector<StaticProgram> progs_;
    std::vector<StaticOp> ops_;
};

} // namespace

std::unique_ptr<Workload>
makeStaticSuite()
{
    return std::make_unique<StaticSuite>();
}

int
probe::staticStack(Ctx ctx)
{
    StaticSuite fir("fir");
    fir.setup(ctx);
    std::vector<OpResult> results(fir.opCount());
    // Phase order: each program's range solves run before the ops
    // that consume them.
    for (unsigned phase : {0u, 1u}) {
        for (std::size_t i = 0; i < fir.opCount(); ++i) {
            if (fir.opPhase(i) == phase)
                results[i] = fir.runOp(i, ctx);
        }
    }
    fir.checkPass(results);
    int failures = fir.polyCalls(ctx);
    for (const OpResult &r : results)
        failures += r.ok ? 0 : 1;
    return failures;
}

void
probe::assembler(Ctx ctx)
{
    for (const liquid::RangeStressCase &c : liquid::rangeStressCases()) {
        Scope s(ctx.tracer, "asm.assemble", ctx.op);
        liquid::assemble(c.src);
    }
}

void
probe::translator(Ctx ctx)
{
    for (const auto &wl : liquid::makeSuite()) {
        const liquid::Program prog =
            wl->build(liquid::EmitOptions::Mode::Scalarized, 8, true).prog;
        for (const liquid::HintedCall &call : prog.hintedCalls()) {
            for (const unsigned w : widths) {
                Scope s(ctx.tracer, "translator.offline", ctx.op);
                const liquid::OfflineResult res = liquid::translateOffline(
                    prog, call.target, w, call.widthHint);
                ctx.counts[res.ok ? "translator.offline_commits"
                                  : "translator.offline_aborts"] += 1;
            }
        }
    }
}

} // namespace perfbench
