/**
 * @file
 * liquid-scan: whole-binary SIMD-region discovery and static speedup
 * prediction.
 *
 * Takes an assembled program with NO scalarizer metadata, recovers the
 * interprocedural CFG (every bl target is an outlined function under
 * the bl/ret convention), checks each function's natural loops against
 * the paper's region-boundary liveness contract, and predicts the
 * translated speedup at each accelerator width via the Table-1 rule
 * automaton, depcheck and the cost model.
 *
 *   liquid-scan prog.s                    # scan one binary
 *   liquid-scan --suite                   # scan the unhinted suite
 *   liquid-scan --widths 2,4,8,16 prog.s  # prediction widths
 *   liquid-scan --json prog.s             # machine-readable report
 *   liquid-scan --suite --validate bench/baseline/BENCH_fig6.json
 *                                         # join predictions against
 *                                         # measured lab results
 *
 * Exit status: 0 when no region is Error-severity (and, with
 * --validate, predicted-vs-measured rankings agree); 1 otherwise;
 * 2 on usage/assembly problems.
 */

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "lab/predict.hh"
#include "verifier/range.hh"
#include "verifier/scan.hh"
#include "workloads/workload.hh"

using namespace liquid;

namespace
{

/**
 * JSON output format identifier; bump on breaking layout changes.
 * v2: regions gained tripCountBound (liquid-range proven iteration
 * bound, present when --ranges proves one).
 * v3: candidate regions gained widthValidity{summary, okWidths,
 * structuralUnbounded} (the liquid-poly predicate on N), and
 * validation summaries report rejected functional-tier rows. Additive
 * over v2.
 */
constexpr const char *scanSchema = "liquid-scan-v3";
/** Tool revision carried in the JSON header for drift detection. */
constexpr const char *scanToolVersion = "3.0";

struct Options
{
    std::vector<std::string> files;  ///< the input program, if any
    std::vector<unsigned> widths{2, 4, 8, 16};
    bool fallback = true;
    bool predict = true;
    bool prove = false;
    bool ranges = false;
    bool werror = false;
    bool suite = false;
    bool json = false;
    std::string validateFile;
};

/** Parse argv into @p opt; returns a status to exit with, or nullopt. */
std::optional<int>
parseArgs(int argc, char **argv, Options &opt)
{
    const cli::Command cmd{
        "usage: liquid-scan [options] program.s\n"
        "       liquid-scan [options] --suite\n",
        {{"--widths LIST", "comma-separated prediction widths (2,4,8,16)",
          cli::widths(opt.widths)},
         {"--no-fallback", "do not retry failed widths at half width",
          cli::flag(opt.fallback, false)},
         {"--no-predict", "discovery and contract checks only",
          cli::flag(opt.predict, false)},
         {"--prove", "back each prediction with the symbolic "
                     "translation-validation prover",
          cli::flag(opt.prove)},
         {"--ranges", "seed discovery and the cost model with the "
                      "interprocedural value-range analysis (trip-count "
                      "bounds, access alignment)",
          cli::flag(opt.ranges)},
         {"--werror", "treat warn verdicts as errors", cli::flag(opt.werror)},
         {"--json", "machine-readable report on stdout",
          cli::flag(opt.json)},
         {"--suite", "scan every suite workload, built without scalarizer "
                     "hints",
          cli::flag(opt.suite)},
         {"--validate FILE", "join suite predictions against measured "
                             "liquid-lab results (implies --suite)",
          cli::value(opt.validateFile)}},
        &opt.files, 1};
    if (const auto rc = cli::parse(cmd, argc, argv))
        return rc;
    opt.suite = opt.suite || !opt.validateFile.empty();
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

json::Value
regNames(const RegSet &set)
{
    json::Value arr = json::Value::array();
    for (const RegId reg : set.regs())
        arr.push(regName(reg));
    return arr;
}

json::Value
regionJson(const std::string &program, const ScanRegion &r)
{
    json::Value v = json::Value::object();
    v.set("program", program);
    v.set("entryLabel", r.entryLabel);
    v.set("entryIndex", r.entryIndex);
    v.set("callSites", r.callSites);
    v.set("hinted", r.hinted);
    if (r.widthHint)
        v.set("widthHint", r.widthHint);
    v.set("blocks", r.blockCount);
    v.set("loops", r.loopCount);
    v.set("irreducible", r.irreducible);
    v.set("liveIn", regNames(r.liveIn));
    v.set("liveOut", regNames(r.liveOutDemanded));
    v.set("iv", regNames(r.ivRegs));
    v.set("contractVerdict", severityName(r.contractVerdict));
    v.set("verdict", severityName(r.overallVerdict()));
    v.set("candidate", r.candidate);
    if (!r.tripCountBound.isTop() && !r.tripCountBound.empty())
        v.set("tripCountBound", r.tripCountBound.str());

    json::Value diags = json::Value::array();
    for (const Diagnostic &d : r.contractDiags) {
        json::Value dj = json::Value::object();
        dj.set("severity", severityName(d.severity));
        if (d.instIndex >= 0)
            dj.set("inst", d.instIndex);
        dj.set("message", d.message);
        diags.push(std::move(dj));
    }
    v.set("contractDiags", std::move(diags));

    json::Value preds = json::Value::array();
    for (const WidthPrediction &p : r.predictions) {
        const RegionReport &rr = p.report;
        json::Value pj = json::Value::object();
        pj.set("requestedWidth", p.requestedWidth);
        pj.set("verdict", severityName(rr.verdict));
        if (rr.verdict == Severity::Error) {
            pj.set("reason", abortReasonName(rr.reason));
            pj.set("reasonDesc", abortReasonDescription(rr.reason));
            pj.set("depMiscompile", rr.depMiscompile);
        }
        if (rr.predictedWidth) {
            pj.set("boundWidth", rr.predictedWidth);
            pj.set("ucodeInsts", rr.predictedUcode);
        }
        if (rr.verdict == Severity::Ok && rr.predictedSpeedup > 0) {
            pj.set("scalarCycles", rr.predictedScalarCycles);
            pj.set("simdCycles", rr.predictedSimdCycles);
            pj.set("speedup", rr.predictedSpeedup);
        }
        if (!rr.proofVerdict.empty()) {
            json::Value proof = json::Value::object();
            proof.set("verdict", rr.proofVerdict);
            proof.set("summary", rr.proofSummary);
            pj.set("translationProof", std::move(proof));
        }
        preds.push(std::move(pj));
    }
    v.set("predictions", std::move(preds));

    if (r.polyAnalyzed) {
        json::Value pv = json::Value::object();
        pv.set("summary", r.widthValidity);
        pv.set("structuralUnbounded", r.polyUnbounded);
        json::Value okw = json::Value::array();
        for (const unsigned n : r.polyOkWidths)
            okw.push(n);
        pv.set("okWidths", std::move(okw));
        v.set("widthValidity", std::move(pv));
    }

    if (r.bestWidth) {
        v.set("bestWidth", r.bestWidth);
        v.set("bestSpeedup", r.bestSpeedup);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (const auto rc = parseArgs(argc, argv, opt))
        return *rc;

    ScanOptions sopts;
    sopts.widths = opt.widths;
    sopts.widthFallback = opt.fallback;
    sopts.predict = opt.predict;
    sopts.prove = opt.prove;

    try {
        // Per-program scan; --ranges solves the interprocedural
        // value-range analysis first and hands the facts to discovery,
        // depcheck and the cost model.
        auto scanOne = [&](const Program &prog) {
            ScanOptions s = sopts;
            std::optional<ProgramRanges> pr;
            if (opt.ranges) {
                pr.emplace(solveProgramRanges(prog));
                s.ranges = &*pr;
            }
            return scanProgram(prog, s);
        };

        std::vector<std::pair<std::string, ScanReport>> reports;
        if (opt.suite) {
            for (const auto &wl : makeSuite()) {
                // No hints: the scan must rediscover every region
                // from the bl/ret convention alone.
                const Workload::Build build =
                    wl->build(EmitOptions::Mode::Scalarized, 8,
                              /*hinted=*/false);
                reports.emplace_back(wl->name(), scanOne(build.prog));
            }
        } else {
            const auto source = cli::readSource(opt.files[0]);
            if (!source)
                return 2;
            const Program prog = assemble(*source);
            reports.emplace_back(opt.files[0], scanOne(prog));
        }

        unsigned regions = 0, candidates = 0;
        unsigned ok = 0, warn = 0, error = 0;
        for (const auto &[name, rep] : reports) {
            regions += static_cast<unsigned>(rep.regions.size());
            candidates += rep.candidateCount();
            for (const ScanRegion &r : rep.regions) {
                switch (r.overallVerdict()) {
                  case Severity::Ok: ++ok; break;
                  case Severity::Warn: ++warn; break;
                  case Severity::Error: ++error; break;
                }
            }
        }

        // Optional differential validation against measured results.
        bool validated = true;
        lab::ValidationSummary validation;
        if (!opt.validateFile.empty()) {
            std::vector<lab::WorkloadPrediction> preds;
            for (const auto &[name, rep] : reports) {
                lab::WorkloadPrediction p;
                p.workload = name;
                p.speedupByWidth = lab::aggregateScanSpeedups(rep);
                preds.push_back(std::move(p));
            }
            const lab::ResultSet measured =
                lab::ResultSet::readFile(opt.validateFile);
            validation = lab::validatePredictions(preds, measured);
            validated = validation.rankAgreement() &&
                        !validation.rows.empty();
        }

        if (opt.json) {
            json::Value root =
                json::toolReport(scanSchema, scanToolVersion);
            json::Value regionArr = json::Value::array();
            for (const auto &[name, rep] : reports) {
                for (const ScanRegion &r : rep.regions)
                    regionArr.push(regionJson(name, r));
            }
            root.set("regions", std::move(regionArr));
            json::Value summary = json::Value::object();
            summary.set("regions", regions);
            summary.set("candidates", candidates);
            summary.set("ok", ok);
            summary.set("warn", warn);
            summary.set("error", error);
            root.set("summary", std::move(summary));
            if (!opt.validateFile.empty())
                root.set("validation", validation.toJson());
            std::cout << root.toString();
        } else {
            for (const auto &[name, rep] : reports) {
                if (opt.suite)
                    std::cout << "== " << name << '\n';
                for (const ScanRegion &r : rep.regions)
                    std::cout << formatScanRegion(r);
            }
            std::cout << regions << " region(s): " << candidates
                      << " candidate(s), " << ok << " ok, " << warn
                      << " warn, " << error << " error\n";
            if (!opt.validateFile.empty()) {
                if (validation.rejectedFunctional > 0) {
                    std::cout << "validation: rejected "
                              << validation.rejectedFunctional
                              << " functional-tier row(s) (no cycle "
                                 "clock under the /fun tier";
                    for (const std::string &k :
                         validation.rejectedFunctionalKeys)
                        std::cout << "; " << k;
                    std::cout << ")\n";
                }
                std::cout << "validation vs " << opt.validateFile
                          << ": " << validation.rows.size()
                          << " joined pair(s), "
                          << validation.discordantPairs << "/"
                          << validation.comparablePairs
                          << " discordant, mean |err| "
                          << validation.meanAbsError << ", max |err| "
                          << validation.maxAbsError << " -> "
                          << (validated ? "RANKS AGREE"
                                        : "RANK DISAGREEMENT")
                          << '\n';
            }
        }

        if (error || (opt.werror && warn) || !validated)
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
