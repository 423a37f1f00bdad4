/**
 * @file
 * liquid-lab: sharded experiment orchestration for the paper's
 * evaluation matrix.
 *
 *   liquid-lab list                        # campaigns and job counts
 *   liquid-lab run --all --jobs 8          # whole matrix -> BENCH_*.json
 *   liquid-lab run --experiment fig6 --render
 *   liquid-lab run --all --smoke           # CI-sized matrix
 *   liquid-lab render BENCH_fig6.json      # paper tables from JSON
 *   liquid-lab diff BENCH_fig6.json bench/baseline/BENCH_fig6.json
 *
 * `run` shards jobs across worker threads (default: all cores) and
 * serves unchanged configurations from a content-addressed on-disk
 * cache. `diff` exits nonzero when a metric regressed past tolerance,
 * making it a CI gate.
 */

#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "chaos/fault_schedule.hh"
#include "common/cli.hh"
#include "fast/tier.hh"
#include "lab/diff.hh"
#include "lab/experiments.hh"
#include "lab/predict.hh"
#include "lab/runner.hh"

using namespace liquid;
using namespace liquid::lab;

namespace
{

int
cmdList(bool smoke)
{
    std::cout << "campaigns (" << (smoke ? "smoke" : "full")
              << " matrix):\n";
    std::size_t total = 0;
    for (const auto &campaign : standardCampaigns(smoke)) {
        const std::size_t n = campaign.matrix.expand().size();
        total += n;
        std::cout << "  " << campaign.name << "  -> "
                  << campaign.outputFile << "  (" << n << " jobs)\n";
    }
    std::cout << "total: " << total << " jobs\n\nworkloads:\n";
    for (const auto &name : suiteWorkloadNames())
        std::cout << "  " << name << '\n';
    return 0;
}

struct RunOptions
{
    std::vector<std::string> experiments;
    bool all = false;  ///< --all: ignore --experiment
    unsigned jobs = 0;
    std::string out = ".";
    std::string cacheDir;
    bool noCache = false;
    bool smoke = false;
    cli::Regex filter;
    bool render = false;
    bool progress = false;
    bool predict = false;
    bool prove = false;
    fast::ExecTier tier = fast::ExecTier::Cycle;
};

/**
 * Re-point every job at the functional tier, dropping the ones only
 * the cycle tier can run: liquid mode (no translator), warm-start (no
 * microcode cache) and cycle-periodic fault schedules (no cycle
 * clock). Dropped jobs are reported, never silently skipped.
 */
std::vector<Job>
toFunctionalTier(std::vector<Job> jobs)
{
    std::vector<Job> converted;
    std::size_t dropped = 0;
    for (Job &job : jobs) {
        const bool periodic =
            job.over.faults &&
            FaultSchedule::parse(*job.over.faults).interruptPeriod != 0;
        if (job.mode == ExecMode::Liquid || job.warmStart || periodic) {
            ++dropped;
            continue;
        }
        job.tier = fast::ExecTier::Functional;
        converted.push_back(std::move(job));
    }
    if (dropped) {
        std::cerr << "  --tier functional: dropped " << dropped
                  << " job(s) that need the cycle tier (liquid mode, "
                     "warm-start or cycle-periodic faults)\n";
    }
    return converted;
}

int
cmdRun(const RunOptions &opt)
{
    std::vector<Campaign> campaigns;
    if (opt.experiments.empty()) {
        campaigns = standardCampaigns(opt.smoke);
    } else {
        for (const auto &name : opt.experiments)
            campaigns.push_back(campaignByName(name, opt.smoke));
    }

    std::filesystem::create_directories(opt.out);
    const std::string cacheDir =
        opt.noCache ? ""
                    : (opt.cacheDir.empty()
                           ? opt.out + "/.liquid-lab-cache"
                           : opt.cacheDir);
    const ResultCache cache(cacheDir);
    Runner runner(opt.jobs);

    // One scan of the unhinted suite covers every campaign's jobs.
    std::vector<WorkloadPrediction> predictions;
    if (opt.predict) {
        ScanOptions sopts;
        sopts.prove = opt.prove;
        predictions = predictSuite(sopts);
    }

    bool shapesOk = true;
    for (const auto &campaign : campaigns) {
        std::vector<Job> jobs = campaign.matrix.expand();
        if (opt.tier == fast::ExecTier::Functional)
            jobs = toFunctionalTier(std::move(jobs));
        if (!opt.filter.text.empty()) {
            std::erase_if(jobs, [&](const Job &job) {
                return !std::regex_search(job.key(), opt.filter.compiled);
            });
        }
        const auto t0 = std::chrono::steady_clock::now();
        RunnerStats stats;
        std::function<void(const JobResult &)> progress;
        std::size_t done = 0;
        if (opt.progress) {
            const std::size_t n = jobs.size();
            progress = [&done, n](const JobResult &r) {
                std::cerr << "  [" << ++done << '/' << n << "] "
                          << r.job.key()
                          << (r.fromCache ? " (cached)" : "") << '\n';
            };
        }
        ResultSet results =
            runner.run(jobs, cache.enabled() ? &cache : nullptr,
                       &stats, std::move(progress));
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();

        unsigned tagged = 0;
        if (opt.predict)
            tagged = tagPredictions(results, predictions);

        const std::string path = opt.out + "/" + campaign.outputFile;
        results.writeFile(path);
        std::cout << campaign.name << ": " << stats.jobs << " jobs ("
                  << stats.simulations << " simulated, "
                  << stats.cacheHits << " cached, " << stats.steals
                  << " stolen) on " << runner.workers()
                  << " workers in " << std::fixed
                  << std::setprecision(2) << secs << "s -> " << path
                  << '\n';
        if (opt.predict)
            std::cout << "  tagged " << tagged
                      << " result(s) with scan predictions\n";

        if (opt.render && campaign.render) {
            std::cout << '\n';
            if (!campaign.render(std::cout, results))
                shapesOk = false;
            std::cout << '\n';
        }
    }
    return shapesOk ? 0 : 1;
}

int
cmdRender(const std::vector<std::string> &files)
{
    bool ok = true;
    for (const auto &file : files) {
        const ResultSet results = ResultSet::readFile(file);
        bool rendered = false;
        for (const auto &campaign : standardCampaigns(false)) {
            const bool present = std::any_of(
                results.results().begin(), results.results().end(),
                [&](const JobResult &r) {
                    return r.job.experiment == campaign.name;
                });
            if (!present)
                continue;
            rendered = true;
            if (!campaign.render(std::cout, results))
                ok = false;
            std::cout << '\n';
        }
        if (!rendered) {
            std::cerr << file
                      << ": no known experiment in result set\n";
            ok = false;
        }
    }
    return ok ? 0 : 1;
}

int
cmdDiff(const std::string &currentFile, const std::string &baselineFile,
        double tolPct,
        const std::map<std::string, double> &counterTols)
{
    const ResultSet current = ResultSet::readFile(currentFile);
    const ResultSet baseline = ResultSet::readFile(baselineFile);
    DiffOptions options;
    options.cycleTolerance = tolPct / 100.0;
    options.counterTolerances = counterTols;
    const DiffReport report = diffResults(baseline, current, options);

    std::cout << "compared " << report.jobsCompared
              << " jobs against " << baselineFile << " (tolerance "
              << tolPct << "%)\n";
    for (const auto &e : report.notes)
        std::cout << "  note: " << e.describe() << '\n';
    for (const auto &e : report.improvements)
        std::cout << "  improvement: " << e.describe() << '\n';
    for (const auto &e : report.regressions)
        std::cout << "  REGRESSION: " << e.describe() << '\n';
    if (!report.ok()) {
        std::cout << "FAIL: " << report.regressions.size()
                  << " regression(s)\n";
        return 1;
    }
    std::cout << "OK\n";
    return 0;
}

/** The `run` command's option table, filling @p opt. */
cli::Command
runCommand(RunOptions &opt)
{
    return {
        "usage: liquid-lab run [options]\n",
        {{"--experiment NAME", "campaign to run (repeatable)",
          cli::list(opt.experiments)},
         {"--all", "every campaign (default)", cli::flag(opt.all)},
         {"--jobs N", "worker threads (default: all cores)",
          cli::value(opt.jobs)},
         {"--out DIR", "output directory (default: .)", cli::value(opt.out)},
         {"--cache DIR", "result cache (default: OUT/.liquid-lab-cache)",
          cli::value(opt.cacheDir)},
         {"--no-cache", "always simulate", cli::flag(opt.noCache)},
         {"--smoke", "reduced trip counts (the CI matrix)",
          cli::flag(opt.smoke)},
         {"--filter REGEX", "only jobs whose key matches",
          cli::regex(opt.filter)},
         {"--render", "also print the paper tables", cli::flag(opt.render)},
         {"--progress", "one line per finished job",
          cli::flag(opt.progress)},
         {"--predict", "tag liquid results with liquid-scan's static "
                       "speedup prediction",
          cli::flag(opt.predict)},
         {"--prove", "with --predict: back each prediction with the "
                     "translation-validation prover and tag its verdict",
          cli::flag(opt.prove)},
         {"--tier TIER",
          "run every job on TIER (cycle|functional); functional drops jobs "
          "that need the cycle tier (liquid mode, warm-start, periodic "
          "faults) with a note, and the results carry no cycle counts "
          "(absent, not zero)",
          cli::choice(opt.tier,
                      {{"cycle", fast::ExecTier::Cycle},
                       {"functional", fast::ExecTier::Functional}})}}};
}

/** Arguments of the `diff` command. */
struct DiffArgs
{
    std::vector<std::string> files;  ///< <results> <baseline>
    double tolPct = 2.0;
    std::map<std::string, double> counterTols;
};

cli::Command
diffCommand(DiffArgs &opt)
{
    // --counter NAME:PCT adds one entry to counterTols.
    const auto counter = [&opt](const std::string &spec) {
        const auto colon = spec.rfind(':');
        double pct = 0;
        if (colon == std::string::npos || colon == 0 ||
            !cli::convert(spec.substr(colon + 1), pct))
            return false;
        opt.counterTols[spec.substr(0, colon)] = pct / 100.0;
        return true;
    };
    return {"usage: liquid-lab diff <results> <baseline> [options]\n",
            {{"--tol PCT", "cycle tolerance in percent (default: 2)",
              cli::value(opt.tolPct)},
             {"--counter NAME:PCT", "also gate counter NAME (repeatable), "
                                    "e.g. --counter fast.insts:0",
              {"NAME:PCT with a finite unsigned PCT", counter}}},
            &opt.files, 2};
}

void
usage()
{
    std::cout << "usage: liquid-lab <command> [options]\n\ncommands:\n"
                 "  list [--smoke]             campaigns, jobs, workloads\n"
                 "  run                        run experiments, write "
                 "BENCH_*.json\n"
                 "  render <file>...           render paper tables\n"
                 "  diff <results> <baseline>  regression gate (nonzero "
                 "on fail)\n\nrun options:\n";
    RunOptions run;
    cli::printOptions(std::cout, runCommand(run).options);
    std::cout << "\ndiff options:\n";
    DiffArgs diff;
    cli::printOptions(std::cout, diffCommand(diff).options);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd.empty() || cmd == "-h" || cmd == "--help") {
        usage();
        return cmd.empty() ? 2 : 0;
    }

    try {
        if (cmd == "list") {
            bool smoke = false;
            const cli::Command list{
                "usage: liquid-lab list [options]\n",
                {{"--smoke", "the CI-sized matrix", cli::flag(smoke)}}};
            if (const auto rc = cli::parse(list, argc, argv, 2))
                return *rc;
            return cmdList(smoke);
        }

        if (cmd == "run") {
            RunOptions opt;
            if (const auto rc = cli::parse(runCommand(opt), argc, argv, 2))
                return *rc;
            if (opt.all)
                opt.experiments.clear();
            return cmdRun(opt);
        }

        if (cmd == "render") {
            std::vector<std::string> files;
            const cli::Command render{
                "usage: liquid-lab render <file>...\n", {}, &files};
            if (const auto rc = cli::parse(render, argc, argv, 2))
                return *rc;
            if (files.empty())
                fatal("render: no input files");
            return cmdRender(files);
        }

        if (cmd == "diff") {
            DiffArgs opt;
            if (const auto rc =
                    cli::parse(diffCommand(opt), argc, argv, 2))
                return *rc;
            if (opt.files.size() != 2)
                fatal("diff: expected <results> <baseline>");
            return cmdDiff(opt.files[0], opt.files[1], opt.tolPct,
                           opt.counterTols);
        }

        std::cerr << "unknown command '" << cmd << "'\n";
        usage();
        return 2;
    } catch (const FatalError &e) {
        std::cerr << e.what() << '\n';
        return 2;
    } catch (const PanicError &e) {
        std::cerr << e.what() << '\n';
        return 1;
    }
}
