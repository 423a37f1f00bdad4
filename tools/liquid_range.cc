/**
 * @file
 * liquid-range: interprocedural value-range, alignment and trip-count
 * analysis front-end.
 *
 * Solves whole-program ranges for a binary, then runs the static
 * verifier twice — facts-off and facts-on — and reports what the
 * analysis bought: runtime-dependent Warn regions upgraded to concrete
 * verdicts, and pair-budget-exhausted depcheck Unknowns discharged by
 * footprint/congruence separation. Every run is backed by the
 * differential soundness oracle: a scalar-baseline execution with a
 * retire-bus recorder asserting each static fact contains every
 * dynamically observed value.
 *
 *   liquid-range prog.s            # analyze + verify one binary
 *   liquid-range --suite           # stress set + workload-suite gate
 *   liquid-range --widths 4,16     # accelerator widths to verify
 *   liquid-range --json            # machine-readable report
 *   liquid-range --sabotage        # seeded-unsoundness self-test
 *
 * --suite enforces the acceptance gate: every expected stress upgrade
 * happens, at least 3 verdicts are discharged past the pair budget,
 * and the oracle observes zero violations. --sabotage seeds each
 * unsound-transfer mutation in turn and requires the oracle to catch
 * every one.
 *
 * Exit status: 0 on success, 1 when a gate fails (oracle violation,
 * missed upgrade/discharge, uncaught sabotage, or --werror with a
 * facts-on Warn), 2 on usage/assembly problems.
 */

#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "sim/system.hh"
#include "verifier/range.hh"
#include "verifier/verifier.hh"
#include "workloads/range_stress.hh"
#include "workloads/workload.hh"

using namespace liquid;

namespace
{

/** JSON output format identifier; bump on breaking layout changes. */
constexpr const char *rangeSchema = "liquid-range-v1";
/** Tool revision carried in the JSON header for drift detection. */
constexpr const char *rangeToolVersion = "1.0";

struct Options
{
    std::vector<std::string> files;  ///< the input program, if any
    std::vector<unsigned> widths{2, 4, 8, 16};
    bool suite = false;
    bool json = false;
    bool werror = false;
    bool sabotage = false;
    bool oracle = true;
    bool prove = false;
};

/** Parse argv into @p opt; returns a status to exit with, or nullopt. */
std::optional<int>
parseArgs(int argc, char **argv, Options &opt)
{
    const cli::Command cmd{
        "usage: liquid-range [options] program.s\n"
        "       liquid-range [options] --suite\n"
        "       liquid-range [options] --sabotage\n",
        {{"--widths N,N,..", "accelerator widths to verify (2,4,8,16)",
          cli::widths(opt.widths)},
         {"--suite", "analyze the stress set and the workload suite, "
                     "enforcing the upgrade/discharge/oracle gates",
          cli::flag(opt.suite)},
         {"--sabotage", "seed each unsound-transfer mutation and require "
                        "the differential oracle to catch it",
          cli::flag(opt.sabotage)},
         {"--prove", "also run the translation-validation prover (range "
                     "facts shrink its enumeration)",
          cli::flag(opt.prove)},
         {"--no-oracle", "skip the dynamic differential oracle",
          cli::flag(opt.oracle, false)},
         {"--werror", "facts-on Warn verdicts fail the run",
          cli::flag(opt.werror)},
         {"--json", "machine-readable report on stdout",
          cli::flag(opt.json)}},
        &opt.files, 1};
    if (const auto rc = cli::parse(cmd, argc, argv))
        return rc;
    if (opt.files.empty() && !opt.suite && !opt.sabotage) {
        cli::printHelp(std::cout, cmd);
        return 2;
    }
    if (!opt.files.empty() && (opt.suite || opt.sabotage)) {
        std::cerr << "--suite/--sabotage do not take an input file\n";
        return 2;
    }
    return std::nullopt;
}

/** One region verified at one width, facts-off vs facts-on. */
struct RegionRow
{
    std::string label;
    int entryIndex = -1;
    unsigned width = 0;
    Severity before = Severity::Ok;
    Severity after = Severity::Ok;
    unsigned discharged = 0;
    std::vector<std::string> facts;
    std::string proofBefore;
    std::string proofAfter;
};

/** Everything the tool learned about one program. */
struct ProgramOutcome
{
    std::string name;
    bool sound = false;
    unsigned rounds = 0;
    std::vector<RegionRow> rows;
    unsigned upgrades = 0;         ///< rows where Warn turned Ok
    unsigned discharged = 0;       ///< dep verdicts flipped via range
    std::string tripBound;         ///< first region's proven bound
    unsigned oracleChecked = 0;
    std::vector<std::string> oracleViolations;
    bool oracleRan = false;
};

/** Run the differential oracle: scalar execution vs static facts. */
void
runOracle(const Program &prog, const ProgramRanges &pr,
          ProgramOutcome &out)
{
    const SystemConfig sc =
        SystemConfig::make(ExecMode::ScalarBaseline);
    System sys(sc, prog);
    RangeObserver obs(prog, pr);
    sys.core().setRetireSink(&obs);
    sys.run();
    out.oracleRan = true;
    out.oracleChecked = obs.checkedRetires();
    out.oracleViolations = obs.violations();
}

ProgramOutcome
analyzeProgram(const Program &prog, const std::string &name,
               const Options &opt, unsigned sabotage = SabNone)
{
    ProgramOutcome out;
    out.name = name;

    RangeSolveOptions ropt;
    ropt.sabotage = sabotage;
    const ProgramRanges pr = solveProgramRanges(prog, ropt);
    out.sound = pr.sound;
    out.rounds = pr.rounds;

    for (const unsigned w : opt.widths) {
        VerifyOptions off;
        off.config.simdWidth = w;
        off.prove = opt.prove;
        VerifyOptions on = off;
        on.ranges = &pr;

        const ProgramReport before = verifyProgram(prog, off);
        const ProgramReport after = verifyProgram(prog, on);
        for (std::size_t i = 0;
             i < before.regions.size() && i < after.regions.size();
             ++i) {
            const RegionReport &b = before.regions[i];
            const RegionReport &a = after.regions[i];
            RegionRow row;
            row.label = a.entryLabel;
            row.entryIndex = a.entryIndex;
            row.width = w;
            row.before = b.verdict;
            row.after = a.verdict;
            row.discharged = a.rangeDischarged;
            row.facts = a.rangeFacts;
            row.proofBefore = b.proofVerdict;
            row.proofAfter = a.proofVerdict;
            out.discharged += a.rangeDischarged;
            if (b.verdict == Severity::Warn &&
                a.verdict == Severity::Ok)
                ++out.upgrades;
            if (out.tripBound.empty()) {
                const Interval t = pr.tripBound(a.entryIndex);
                if (!t.isTop() && !t.empty())
                    out.tripBound = t.str();
            }
            out.rows.push_back(std::move(row));
        }
    }

    if (opt.oracle)
        runOracle(prog, pr, out);
    return out;
}

json::Value
outcomeJson(const ProgramOutcome &out)
{
    json::Value v = json::Value::object();
    v.set("program", out.name);
    v.set("sound", out.sound);
    v.set("rounds", out.rounds);
    if (!out.tripBound.empty())
        v.set("tripCountBound", out.tripBound);
    json::Value rows = json::Value::array();
    for (const RegionRow &r : out.rows) {
        json::Value j = json::Value::object();
        j.set("region", r.label);
        j.set("entryIndex", r.entryIndex);
        j.set("width", r.width);
        j.set("verdictFactsOff", severityName(r.before));
        j.set("verdictFactsOn", severityName(r.after));
        j.set("discharged", r.discharged);
        if (!r.proofAfter.empty())
            j.set("proof", r.proofAfter);
        json::Value facts = json::Value::array();
        for (const std::string &f : r.facts)
            facts.push(f);
        j.set("facts", std::move(facts));
        rows.push(std::move(j));
    }
    v.set("regions", std::move(rows));
    v.set("upgrades", out.upgrades);
    v.set("discharged", out.discharged);
    json::Value oracle = json::Value::object();
    oracle.set("ran", out.oracleRan);
    oracle.set("checkedRetires", out.oracleChecked);
    json::Value viol = json::Value::array();
    for (const std::string &s : out.oracleViolations)
        viol.push(s);
    oracle.set("violations", std::move(viol));
    v.set("oracle", std::move(oracle));
    return v;
}

void
printOutcome(const ProgramOutcome &out)
{
    std::cout << "== " << out.name << ": "
              << (out.sound ? "sound" : "NOT CONVERGED (facts dropped)")
              << ", " << out.rounds << " round(s)";
    if (!out.tripBound.empty())
        std::cout << ", trip bound " << out.tripBound;
    std::cout << '\n';
    for (const RegionRow &r : out.rows) {
        std::cout << "  " << (r.label.empty() ? "?" : r.label) << " w"
                  << r.width << ": " << severityName(r.before)
                  << " -> " << severityName(r.after);
        if (r.discharged)
            std::cout << " (" << r.discharged
                      << " dep verdict(s) discharged)";
        std::cout << '\n';
        for (const std::string &f : r.facts)
            std::cout << "    fact: " << f << '\n';
    }
    if (out.oracleRan) {
        std::cout << "  oracle: " << out.oracleChecked
                  << " retires checked, " << out.oracleViolations.size()
                  << " violation(s)\n";
        for (const std::string &s : out.oracleViolations)
            std::cout << "    VIOLATION: " << s << '\n';
    }
}

/** The --sabotage self-test: every mutation must be caught. */
struct SabotageRun
{
    const char *name;
    unsigned mode;
    bool caught = false;
    std::string detail;
};

std::vector<SabotageRun>
runSabotage(const Options &opt)
{
    std::vector<SabotageRun> runs = {
        {"unsoundJoin", SabUnsoundJoin, false, ""},
        {"wrapClamp", SabWrapClamp, false, ""},
        {"storeNoHavoc", SabStoreNoHavoc, false, ""},
        {"edgeTighten", SabEdgeTighten, false, ""},
    };
    Options sopt = opt;
    sopt.oracle = true;
    for (SabotageRun &run : runs) {
        for (const RangeStressCase &c : rangeStressCases()) {
            const Program prog = assemble(c.src);
            const ProgramOutcome out =
                analyzeProgram(prog, c.name, sopt, run.mode);
            if (!out.oracleViolations.empty()) {
                run.caught = true;
                run.detail = std::string(c.name) + ": " +
                             out.oracleViolations.front();
                break;
            }
        }
    }
    return runs;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (const auto rc = parseArgs(argc, argv, opt))
        return *rc;

    try {
        if (opt.sabotage) {
            const std::vector<SabotageRun> runs = runSabotage(opt);
            bool all = true;
            json::Value arr = json::Value::array();
            for (const SabotageRun &r : runs) {
                all = all && r.caught;
                if (opt.json) {
                    json::Value j = json::Value::object();
                    j.set("mutation", r.name);
                    j.set("caught", r.caught);
                    j.set("detail", r.detail);
                    arr.push(std::move(j));
                } else {
                    std::cout << r.name << ": "
                              << (r.caught ? "caught" : "NOT CAUGHT");
                    if (r.caught)
                        std::cout << " (" << r.detail << ")";
                    std::cout << '\n';
                }
            }
            if (opt.json) {
                json::Value root =
                    json::toolReport(rangeSchema, rangeToolVersion);
                root.set("sabotage", std::move(arr));
                root.set("allCaught", all);
                std::cout << root.toString() << '\n';
            } else {
                std::cout << (all ? "all mutations caught\n"
                                  : "SELF-TEST FAILED\n");
            }
            return all ? 0 : 1;
        }

        std::vector<ProgramOutcome> outcomes;
        bool gateFailed = false;
        std::vector<std::string> gateFailures;

        if (opt.suite) {
            unsigned discharged = 0;
            for (const RangeStressCase &c : rangeStressCases()) {
                const Program prog = assemble(c.src);
                ProgramOutcome out = analyzeProgram(prog, c.name, opt);
                discharged += out.discharged;
                if (c.expectUpgrade && out.upgrades == 0 &&
                    out.discharged == 0) {
                    gateFailed = true;
                    gateFailures.push_back(
                        std::string(c.name) +
                        ": expected an upgrade or discharge (" +
                        c.blocker + ")");
                }
                if (!c.expectUpgrade && out.upgrades > 0) {
                    gateFailed = true;
                    gateFailures.push_back(
                        std::string(c.name) +
                        ": negative control was upgraded");
                }
                outcomes.push_back(std::move(out));
            }
            if (discharged < 3) {
                gateFailed = true;
                gateFailures.push_back(
                    "discharge gate: " + std::to_string(discharged) +
                    " < 3 dep verdicts discharged past the budget");
            }
            // Workload-suite sweep: the analysis must stay sound and
            // oracle-clean on the fifteen-benchmark programs too.
            for (const auto &wl : makeSuite()) {
                const Workload::Build build = wl->build(
                    EmitOptions::Mode::Scalarized, 8, true);
                outcomes.push_back(
                    analyzeProgram(build.prog, wl->name(), opt));
            }
        } else {
            const auto source = cli::readSource(opt.files[0]);
            if (!source)
                return 2;
            const Program prog = assemble(*source);
            outcomes.push_back(analyzeProgram(prog, opt.files[0], opt));
        }

        unsigned violations = 0;
        unsigned warnAfter = 0;
        for (const ProgramOutcome &out : outcomes) {
            violations +=
                static_cast<unsigned>(out.oracleViolations.size());
            for (const RegionRow &r : out.rows)
                warnAfter += r.after == Severity::Warn ? 1 : 0;
        }
        if (violations > 0) {
            gateFailed = true;
            gateFailures.push_back("oracle: " +
                                   std::to_string(violations) +
                                   " soundness violation(s)");
        }
        if (opt.werror && warnAfter > 0) {
            gateFailed = true;
            gateFailures.push_back("werror: " +
                                   std::to_string(warnAfter) +
                                   " facts-on warn verdict(s)");
        }

        if (opt.json) {
            json::Value root =
                json::toolReport(rangeSchema, rangeToolVersion);
            json::Value arr = json::Value::array();
            for (const ProgramOutcome &out : outcomes)
                arr.push(outcomeJson(out));
            root.set("programs", std::move(arr));
            json::Value gate = json::Value::object();
            gate.set("passed", !gateFailed);
            json::Value fails = json::Value::array();
            for (const std::string &s : gateFailures)
                fails.push(s);
            gate.set("failures", std::move(fails));
            root.set("gate", std::move(gate));
            std::cout << root.toString() << '\n';
        } else {
            for (const ProgramOutcome &out : outcomes)
                printOutcome(out);
            for (const std::string &s : gateFailures)
                std::cout << "GATE: " << s << '\n';
            std::cout << (gateFailed ? "FAILED\n" : "passed\n");
        }
        return gateFailed ? 1 : 0;
    } catch (const FatalError &e) {
        std::cerr << e.what() << '\n';
        return 2;
    } catch (const PanicError &e) {
        std::cerr << e.what() << '\n';
        return 2;
    }
    return 0;
}
