/**
 * @file
 * liquid-verify: static Table-1 conformance verifier.
 *
 * Assembles a .s file and, without executing it on the simulator,
 * predicts what the dynamic translator will do with every outlined
 * region: commit (with the bound width, microcode size, and a
 * cost-model cycle estimate), abort (with the reason), or a
 * runtime-dependent outcome (warn). Commits additionally carry the
 * memory-dependence proof computed by depcheck.
 *
 *   liquid-verify prog.s                # verify at width 8
 *   liquid-verify -w 16 prog.s          # verify against 16 lanes
 *   liquid-verify --no-fallback prog.s  # single-width prediction
 *   liquid-verify --suite               # verify the workload suite
 *   liquid-verify --json prog.s         # machine-readable verdicts
 *
 * Exit status: 0 when no region has an Error verdict, 1 otherwise,
 * 2 on usage/assembly problems.
 */

#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "verifier/range.hh"
#include "verifier/verifier.hh"
#include "workloads/workload.hh"

using namespace liquid;

namespace
{

/**
 * JSON output format identifier; bump on breaking layout changes.
 * v2: byWidth entries became objects {verdict, reason, why, viaRange}
 * and regions gained range{facts, discharged} under --ranges.
 * v3: regions gained validity{summary, structuralUnbounded, okWidths,
 * constraints} under --poly. Purely additive over v2 — every v2 field
 * keeps its name and type, so v2 consumers parse v3 reports unchanged
 * (tests/poly_test.cc locks that in).
 */
constexpr const char *verifySchema = "liquid-verify-v3";
/** Tool revision carried in the JSON header for drift detection. */
constexpr const char *verifyToolVersion = "3.0";

struct Options
{
    std::vector<std::string> files;  ///< the input program, if any
    unsigned width = 8;
    bool fallback = true;
    bool prove = false;
    bool ranges = false;
    bool poly = false;
    bool werror = false;
    bool suite = false;
    bool json = false;
};

/** Parse argv into @p opt; returns a status to exit with, or nullopt. */
std::optional<int>
parseArgs(int argc, char **argv, Options &opt)
{
    const cli::Command cmd{
        "usage: liquid-verify [options] program.s\n"
        "       liquid-verify [options] --suite\n",
        {{"-w, --width N", "SIMD lanes to verify against: 2/4/8/16 (8)",
          cli::width(opt.width)},
         {"--no-fallback", "do not retry failed regions at half width",
          cli::flag(opt.fallback, false)},
         {"--prove", "settle depcheck-unknown widths (and audit commits) "
                     "with the translation-validation prover",
          cli::flag(opt.prove)},
         {"--ranges", "seed the verifier with the interprocedural "
                      "value-range analysis (liquid-range facts)",
          cli::flag(opt.ranges)},
         {"--poly", "attach the width-polymorphic validity set "
                    "(liquid-poly): for which N does the region verify?",
          cli::flag(opt.poly)},
         {"--werror", "treat warn verdicts as errors", cli::flag(opt.werror)},
         {"--json", "machine-readable per-region verdicts on stdout",
          cli::flag(opt.json)},
         {"--suite", "verify every workload-suite kernel instead of a file",
          cli::flag(opt.suite)}},
        &opt.files, 1};
    if (const auto rc = cli::parse(cmd, argc, argv))
        return rc;
    if (opt.files.empty() && !opt.suite) {
        cli::printHelp(std::cout, cmd);
        return 2;
    }
    if (!opt.files.empty() && opt.suite) {
        std::cerr << "--suite does not take an input file\n";
        return 2;
    }
    return std::nullopt;
}

const char *
widthVerdictName(WidthVerdict::Kind kind)
{
    switch (kind) {
      case WidthVerdict::Kind::Safe: return "safe";
      case WidthVerdict::Kind::Unsafe: return "unsafe";
      case WidthVerdict::Kind::Unknown: return "unknown";
    }
    return "?";
}

json::Value
regionJson(const std::string &program, const RegionReport &r)
{
    json::Value v = json::Value::object();
    v.set("program", program);
    v.set("entryLabel", r.entryLabel);
    v.set("entryIndex", r.entryIndex);
    v.set("requestedWidth", r.requestedWidth);
    v.set("widthHint", r.widthHint);
    v.set("verdict", severityName(r.verdict));
    if (r.verdict == Severity::Error) {
        v.set("reason", abortReasonName(r.reason));
        v.set("depMiscompile", r.depMiscompile);
    }
    if (r.predictedWidth) {
        json::Value p = json::Value::object();
        p.set("width", r.predictedWidth);
        p.set("ucodeInsts", r.predictedUcode);
        p.set("cvecs", r.predictedCvecs);
        v.set("predicted", std::move(p));
    }
    if (r.verdict == Severity::Ok && r.predictedSpeedup > 0) {
        json::Value c = json::Value::object();
        c.set("scalarCycles", r.predictedScalarCycles);
        c.set("simdCycles", r.predictedSimdCycles);
        c.set("speedup", r.predictedSpeedup);
        v.set("cost", std::move(c));
    }
    if (r.depAnalyzed) {
        const DepcheckResult &dep = r.dep;
        json::Value d = json::Value::object();
        d.set("analyzed", dep.analyzed);
        d.set("resolved", dep.resolved);
        if (!dep.resolved)
            d.set("unresolvedWhy", dep.unresolvedWhy);
        d.set("carriedPairs", dep.carriedPairs);
        d.set("minDistance", dep.minDistance);
        json::Value accs = json::Value::array();
        for (const MemAccess &a : dep.accesses) {
            json::Value j = json::Value::object();
            j.set("inst", a.instIndex);
            j.set("store", a.isStore);
            j.set("class", accessClassName(a.cls));
            j.set("strideBytes", a.strideBytes);
            j.set("array", a.arrayName);
            accs.push(std::move(j));
        }
        d.set("accesses", std::move(accs));
        json::Value bw = json::Value::object();
        for (std::size_t i = 0; i < DepcheckResult::widths.size(); ++i) {
            const WidthVerdict &wv = dep.byWidth[i];
            json::Value e = json::Value::object();
            e.set("verdict", widthVerdictName(wv.kind));
            if (wv.reason != DepReason::None)
                e.set("reason", depReasonName(wv.reason));
            if (!wv.why.empty())
                e.set("why", wv.why);
            if (wv.viaRange)
                e.set("viaRange", true);
            bw.set(std::to_string(DepcheckResult::widths[i]),
                   std::move(e));
        }
        d.set("byWidth", std::move(bw));
        if (r.verdict == Severity::Ok && r.predictedWidth)
            d.set("proof", dep.proofSummary(r.predictedWidth));
        v.set("dep", std::move(d));
    }
    if (!r.proofVerdict.empty()) {
        json::Value p = json::Value::object();
        p.set("verdict", r.proofVerdict);
        p.set("summary", r.proofSummary);
        v.set("translationProof", std::move(p));
    }
    if (r.polyAnalyzed) {
        json::Value p = json::Value::object();
        p.set("summary", r.polySummary);
        p.set("structuralUnbounded", r.polyUnbounded);
        json::Value ok = json::Value::array();
        for (const unsigned n : r.polyOkWidths)
            ok.push(n);
        p.set("okWidths", std::move(ok));
        json::Value cons = json::Value::array();
        for (const std::string &c : r.polyConstraints)
            cons.push(c);
        p.set("constraints", std::move(cons));
        v.set("validity", std::move(p));
    }
    if (!r.rangeFacts.empty() || r.rangeDischarged > 0) {
        json::Value rg = json::Value::object();
        rg.set("discharged", r.rangeDischarged);
        json::Value facts = json::Value::array();
        for (const std::string &f : r.rangeFacts)
            facts.push(f);
        rg.set("facts", std::move(facts));
        v.set("range", std::move(rg));
    }
    json::Value diags = json::Value::array();
    for (const Diagnostic &d : r.diags) {
        json::Value j = json::Value::object();
        j.set("severity", severityName(d.severity));
        if (d.severity == Severity::Error)
            j.set("reason", abortReasonName(d.reason));
        if (d.instIndex >= 0)
            j.set("inst", d.instIndex);
        j.set("message", d.message);
        diags.push(std::move(j));
    }
    v.set("diags", std::move(diags));
    return v;
}

/** Verify one program, appending its regions to the tallies. */
void
report(const Program &prog, const std::string &name, const Options &opt,
       std::vector<std::pair<std::string, RegionReport>> &regions)
{
    VerifyOptions vopts;
    vopts.config.simdWidth = opt.width;
    vopts.widthFallback = opt.fallback;
    vopts.prove = opt.prove;
    vopts.poly = opt.poly;

    std::optional<ProgramRanges> pr;
    if (opt.ranges) {
        pr.emplace(solveProgramRanges(prog));
        vopts.ranges = &*pr;
    }

    ProgramReport rep = verifyProgram(prog, vopts);
    for (RegionReport &r : rep.regions)
        regions.emplace_back(name, std::move(r));
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (const auto rc = parseArgs(argc, argv, opt))
        return *rc;

    std::vector<std::pair<std::string, RegionReport>> regions;
    try {
        if (opt.suite) {
            for (const auto &wl : makeSuite()) {
                const Workload::Build build = wl->build(
                    EmitOptions::Mode::Scalarized, opt.width, true);
                report(build.prog, wl->name(), opt, regions);
            }
        } else {
            const auto source = cli::readSource(opt.files[0]);
            if (!source)
                return 2;
            const Program prog = assemble(*source);
            report(prog, opt.files[0], opt, regions);
            if (regions.empty() && !opt.json) {
                std::cout << "no hinted regions found\n";
                return 0;
            }
        }

        unsigned ok = 0, warn = 0, error = 0;
        for (const auto &[name, r] : regions) {
            switch (r.verdict) {
              case Severity::Ok: ++ok; break;
              case Severity::Warn: ++warn; break;
              case Severity::Error: ++error; break;
            }
        }

        if (opt.json) {
            json::Value root =
                json::toolReport(verifySchema, verifyToolVersion);
            json::Value arr = json::Value::array();
            for (const auto &[name, r] : regions)
                arr.push(regionJson(name, r));
            root.set("regions", std::move(arr));
            json::Value summary = json::Value::object();
            summary.set("ok", ok);
            summary.set("warn", warn);
            summary.set("error", error);
            root.set("summary", std::move(summary));
            std::cout << root.toString() << '\n';
        } else {
            std::string last_program;
            for (const auto &[name, r] : regions) {
                if (opt.suite && name != last_program) {
                    std::cout << "== " << name << '\n';
                    last_program = name;
                }
                std::cout << formatRegionReport(r);
            }
            std::cout << ok + warn + error << " region(s): " << ok
                      << " ok, " << warn << " warn, " << error
                      << " error\n";
        }
        if (error || (opt.werror && warn))
            return 1;
    } catch (const FatalError &e) {
        std::cerr << e.what() << '\n';
        return 2;
    } catch (const PanicError &e) {
        std::cerr << e.what() << '\n';
        return 2;
    }
    return 0;
}
