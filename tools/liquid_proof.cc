/**
 * @file
 * liquid-proof: symbolic translation validation with counterexample
 * replay.
 *
 * Where liquid-verify predicts *whether* the dynamic translator
 * commits, liquid-proof checks that what it commits is *correct*: each
 * region is symbolically executed twice — once as the scalar loop, once
 * as the microcode the translator produces — and the two runs are
 * proven to agree on the store set and every demanded live-out, per
 * lane, at every requested width. Failed proofs extract a concrete
 * initial-memory counterexample and replay it through the chaos oracle
 * to confirm the divergence is architectural.
 *
 *   liquid-proof prog.s                   # prove at widths 2,4,8,16
 *   liquid-proof --widths 4,8 prog.s      # subset of widths
 *   liquid-proof --symbolic-n prog.s      # width-generic proof first
 *   liquid-proof --suite                  # prove the workload suite
 *   liquid-proof --sabotage               # adversarial self-test
 *   liquid-proof --json --suite           # machine-readable verdicts
 *
 * Exit status: 0 when nothing is Refuted (with --werror, nothing
 * Unknown either) and --sabotage scenarios all pass; 1 otherwise;
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
#include "verifier/proof.hh"
#include "workloads/workload.hh"

using namespace liquid;

namespace
{

/** JSON output format identifier; bump on breaking layout changes. */
constexpr const char *proofSchema = "liquid-proof-v1";
/** Tool revision carried in the JSON header for drift detection. */
constexpr const char *proofToolVersion = "1.0";

struct Options
{
    std::vector<std::string> files;  ///< the input program, if any
    bool suite = false;
    bool sabotage = false;
    bool json = false;
    bool werror = false;
    ProofOptions proof;
};

/** Parse argv into @p opt; returns a status to exit with, or nullopt. */
std::optional<int>
parseArgs(int argc, char **argv, Options &opt)
{
    const cli::Command cmd{
        "usage: liquid-proof [options] program.s\n"
        "       liquid-proof [options] --suite\n"
        "       liquid-proof [options] --sabotage\n",
        {{"--widths A,B,..", "widths to prove, from 2/4/8/16 (all)",
          cli::widths(opt.proof.widths)},
         {"--symbolic-n", "attempt one width-generic proof before the "
                          "per-width proofs",
          cli::flag(opt.proof.symbolicN)},
         {"--no-replay", "do not replay counterexamples through the chaos "
                         "oracle",
          cli::flag(opt.proof.replay, false)},
         {"--werror", "treat unknown verdicts as failures",
          cli::flag(opt.werror)},
         {"--json", "machine-readable report on stdout",
          cli::flag(opt.json)},
         {"--suite", "prove every workload-suite kernel",
          cli::flag(opt.suite)},
         {"--sabotage", "adversarial self-test: every sabotage mode must "
                        "be refuted or rejected",
          cli::flag(opt.sabotage)}},
        &opt.files, 1};
    if (const auto rc = cli::parse(cmd, argc, argv))
        return rc;
    if (opt.files.size() + opt.suite + opt.sabotage != 1) {
        cli::printHelp(std::cout, cmd);
        return 2;
    }
    return std::nullopt;
}

json::Value
ceJson(const Counterexample &ce)
{
    json::Value v = json::Value::object();
    v.set("obligation", ce.obligation);
    v.set("scalarValue", ce.scalarValue);
    v.set("simdValue", ce.simdValue);
    v.set("memOnly", ce.memOnly);
    json::Value assigns = json::Value::array();
    for (const CeAssignment &a : ce.assigns) {
        json::Value j = json::Value::object();
        j.set("sym", a.sym);
        j.set("value", a.value);
        if (a.isMem) {
            j.set("addr", a.addr);
            j.set("size", a.size);
        }
        assigns.push(std::move(j));
    }
    v.set("assigns", std::move(assigns));
    v.set("replayed", ce.replayed);
    v.set("replayConfirmed", ce.replayConfirmed);
    if (!ce.replayNote.empty())
        v.set("replayNote", ce.replayNote);
    if (!ce.replayMismatches.empty()) {
        json::Value m = json::Value::array();
        for (const std::string &s : ce.replayMismatches)
            m.push(json::Value(s));
        v.set("replayMismatches", std::move(m));
    }
    return v;
}

json::Value
widthJson(const WidthProof &wp)
{
    json::Value v = json::Value::object();
    v.set("width", wp.width);
    v.set("boundWidth", wp.boundWidth);
    v.set("verdict", proofVerdictName(wp.verdict));
    v.set("summary", wp.summary);
    v.set("obligations", wp.obligations);
    v.set("closedStructural", wp.closedStructural);
    v.set("closedEnum", wp.closedEnum);
    v.set("unknownObligations", wp.unknownObligations);
    v.set("enumPoints", wp.enumPoints);
    v.set("widthGeneric", wp.widthGeneric);
    if (wp.ce)
        v.set("counterexample", ceJson(*wp.ce));
    return v;
}

json::Value
regionJson(const std::string &program, const RegionProof &rp)
{
    json::Value v = json::Value::object();
    v.set("program", program);
    v.set("entryLabel", rp.entryLabel);
    v.set("entryIndex", rp.entryIndex);
    v.set("widthHint", rp.widthHint);
    v.set("demand", rp.demand.str());
    v.set("overall", proofVerdictName(rp.overall()));
    if (rp.symbolicN.attempted) {
        json::Value s = json::Value::object();
        s.set("proved", rp.symbolicN.proved);
        s.set("summary", rp.symbolicN.summary);
        s.set("obligations", rp.symbolicN.obligations);
        s.set("enumPoints", rp.symbolicN.enumPoints);
        if (!rp.symbolicN.polyValidity.empty()) {
            s.set("polyUnbounded", rp.symbolicN.polyUnbounded);
            s.set("polyValidity", rp.symbolicN.polyValidity);
        }
        v.set("symbolicN", std::move(s));
    }
    json::Value widths = json::Value::array();
    for (const WidthProof &wp : rp.widths)
        widths.push(widthJson(wp));
    v.set("widths", std::move(widths));
    return v;
}

void
printRegion(const std::string &program, const RegionProof &rp)
{
    std::cout << "region ";
    if (!rp.entryLabel.empty())
        std::cout << rp.entryLabel;
    else
        std::cout << "@" << rp.entryIndex;
    std::cout << " [" << program << "]: "
              << proofVerdictName(rp.overall());
    if (!rp.demand.empty())
        std::cout << "  liveOut=[" << rp.demand.str() << "]";
    std::cout << '\n';
    if (rp.symbolicN.attempted) {
        std::cout << "  symbolic-n: "
                  << (rp.symbolicN.proved ? "proved" : "fallback")
                  << " (" << rp.symbolicN.summary << ")\n";
    }
    for (const WidthProof &wp : rp.widths) {
        std::cout << "  w" << wp.width << ": "
                  << proofVerdictName(wp.verdict) << " — " << wp.summary
                  << '\n';
        if (wp.ce) {
            const Counterexample &ce = wp.ce.value();
            std::cout << "    counterexample (" << ce.obligation
                      << "): scalar=" << ce.scalarValue
                      << " simd=" << ce.simdValue << " under";
            for (const CeAssignment &a : ce.assigns)
                std::cout << ' ' << a.sym << '=' << a.value;
            std::cout << '\n';
            if (ce.replayed) {
                std::cout << "    replay: "
                          << (ce.replayConfirmed
                                  ? "confirmed (oracle diverges)"
                                  : "NOT confirmed")
                          << '\n';
            } else if (!ce.replayNote.empty()) {
                std::cout << "    replay: " << ce.replayNote << '\n';
            }
        }
    }
}

struct Tally
{
    unsigned regions = 0;
    unsigned proved = 0;
    unsigned refuted = 0;
    unsigned unknown = 0;
    unsigned noTranslation = 0;
    unsigned widthGeneric = 0;

    void
    add(const RegionProof &rp)
    {
        ++regions;
        switch (rp.overall()) {
          case ProofVerdict::Proved: ++proved; break;
          case ProofVerdict::Refuted: ++refuted; break;
          case ProofVerdict::Unknown: ++unknown; break;
          case ProofVerdict::NoTranslation: ++noTranslation; break;
        }
        if (rp.symbolicN.proved)
            ++widthGeneric;
    }
};

int
runProve(const Options &opt)
{
    std::vector<std::pair<std::string, RegionProof>> regions;

    if (opt.suite) {
        for (const auto &wl : makeSuite()) {
            const Workload::Build build =
                wl->build(EmitOptions::Mode::Scalarized, 16, true);
            ProgramProof pp = proveProgram(build.prog, opt.proof);
            for (RegionProof &rp : pp.regions)
                regions.emplace_back(wl->name(), std::move(rp));
        }
    } else {
        const auto source = cli::readSource(opt.files[0]);
        if (!source)
            return 2;
        const Program prog = assemble(*source);
        ProgramProof pp = proveProgram(prog, opt.proof);
        if (pp.regions.empty() && !opt.json) {
            std::cout << "no hinted regions found\n";
            return 0;
        }
        for (RegionProof &rp : pp.regions)
            regions.emplace_back(opt.files[0], std::move(rp));
    }

    Tally tally;
    for (const auto &[name, rp] : regions)
        tally.add(rp);

    if (opt.json) {
        json::Value root =
            json::toolReport(proofSchema, proofToolVersion);
        root.set("command", "prove");
        json::Value widths = json::Value::array();
        for (const unsigned w : opt.proof.widths)
            widths.push(json::Value(w));
        root.set("widths", std::move(widths));
        root.set("symbolicN", opt.proof.symbolicN);
        json::Value arr = json::Value::array();
        for (const auto &[name, rp] : regions)
            arr.push(regionJson(name, rp));
        root.set("regions", std::move(arr));
        json::Value summary = json::Value::object();
        summary.set("regions", tally.regions);
        summary.set("proved", tally.proved);
        summary.set("refuted", tally.refuted);
        summary.set("unknown", tally.unknown);
        summary.set("noTranslation", tally.noTranslation);
        summary.set("widthGeneric", tally.widthGeneric);
        root.set("summary", std::move(summary));
        std::cout << root.toString() << '\n';
    } else {
        for (const auto &[name, rp] : regions)
            printRegion(name, rp);
        std::cout << tally.regions << " region(s): " << tally.proved
                  << " proved";
        if (tally.widthGeneric)
            std::cout << " (" << tally.widthGeneric << " width-generic)";
        std::cout << ", " << tally.refuted << " refuted, "
                  << tally.unknown << " unknown, " << tally.noTranslation
                  << " untranslated\n";
    }

    if (tally.refuted || (opt.werror && tally.unknown))
        return 1;
    return 0;
}

int
runSabotage(const Options &opt)
{
    const std::vector<SabotageOutcome> outcomes =
        runSabotageSuite(opt.proof);
    unsigned passed = 0;
    for (const SabotageOutcome &o : outcomes)
        passed += o.pass ? 1 : 0;

    if (opt.json) {
        json::Value root =
            json::toolReport(proofSchema, proofToolVersion);
        root.set("command", "sabotage");
        json::Value arr = json::Value::array();
        for (const SabotageOutcome &o : outcomes) {
            json::Value j = json::Value::object();
            j.set("name", o.name);
            j.set("expect", o.expect);
            j.set("verdict", proofVerdictName(o.verdict));
            j.set("replayConfirmed", o.replayConfirmed);
            j.set("pass", o.pass);
            j.set("detail", o.detail);
            arr.push(std::move(j));
        }
        root.set("scenarios", std::move(arr));
        json::Value summary = json::Value::object();
        summary.set("total", static_cast<unsigned>(outcomes.size()));
        summary.set("passed", passed);
        root.set("summary", std::move(summary));
        std::cout << root.toString() << '\n';
    } else {
        for (const SabotageOutcome &o : outcomes) {
            std::cout << (o.pass ? "PASS" : "FAIL") << "  " << o.name
                      << ": expect " << o.expect << ", got "
                      << proofVerdictName(o.verdict);
            if (o.expect == "refuted") {
                std::cout << (o.replayConfirmed ? " (replay confirmed)"
                                                : " (replay missing)");
            }
            if (!o.pass && !o.detail.empty())
                std::cout << " — " << o.detail;
            std::cout << '\n';
        }
        std::cout << passed << "/" << outcomes.size()
                  << " sabotage scenarios behaved as expected\n";
    }
    return passed == outcomes.size() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (const auto rc = parseArgs(argc, argv, opt))
        return *rc;
    try {
        return opt.sabotage ? runSabotage(opt) : runProve(opt);
    } catch (const FatalError &e) {
        std::cerr << e.what() << '\n';
        return 2;
    } catch (const PanicError &e) {
        std::cerr << e.what() << '\n';
        return 2;
    }
}
