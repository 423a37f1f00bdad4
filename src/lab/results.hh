/**
 * @file
 * Structured results for the lab subsystem: every finished Job becomes
 * a JobResult carrying the full RunOutcome (cycles, flattened
 * StatGroup counters, call log); a ResultSet serializes them to the
 * machine-readable BENCH_*.json files that the paper-table renderers,
 * the regression gate and CI consume. Serialization is deterministic:
 * results are sorted by canonical job key and numbers format
 * identically across platforms, so the same matrix produces
 * byte-identical JSON at any --jobs count.
 */

#ifndef LIQUID_LAB_RESULTS_HH
#define LIQUID_LAB_RESULTS_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "lab/lab.hh"
#include "lab/spec.hh"

namespace liquid::lab
{

/**
 * Results file schema identifier. v2 added the execution-tier axis:
 * functional-tier jobs carry "tier": "functional" and OMIT the
 * cycle-shaped fields (cycles, translations, aborts, ucodeDispatches,
 * retranslations, callLog) — absent, not zero. v1 files (all jobs
 * cycle-tier, fields always present) are still read back.
 */
inline constexpr const char *resultsSchema = "liquid-lab-results-v2";
inline constexpr const char *resultsSchemaV1 = "liquid-lab-results-v1";

/** One job's identity plus everything its simulation produced. */
struct JobResult
{
    Job job;
    RunOutcome outcome;
    /**
     * liquid-scan's static speedup prediction for this job's workload
     * at this job's width (0 = untagged). Written by `liquid-lab run
     * --predict` so `liquid-scan --validate` can join prediction and
     * measurement on the job key without re-running the campaign.
     */
    double predictedSpeedup = 0.0;
    /**
     * Translation-proof verdict backing the prediction ("proved",
     * "unknown", "refuted"; empty = untagged). Written by
     * `liquid-lab run --predict --prove`.
     */
    std::string predictedProof;
    /** Served from the on-disk result cache (not serialized). */
    bool fromCache = false;

    json::Value toJson() const;
    static JobResult fromJson(const json::Value &v);
};

/** An ordered, key-addressable collection of job results. */
class ResultSet
{
  public:
    void add(JobResult result);

    /** Sort by canonical job key (serialization order). */
    void sortByKey();

    const std::vector<JobResult> &results() const { return results_; }
    /** Mutable access (the predict layer tags results in place). */
    std::vector<JobResult> &results() { return results_; }
    std::size_t size() const { return results_.size(); }

    /** Lookup by canonical key; nullptr when absent. */
    const JobResult *find(const std::string &key) const;

    /** Lookup by key; fatal() when absent. */
    const JobResult &at(const std::string &key) const;

    /**
     * Cycles of the job with @p key; fatal() when absent — including
     * when the job ran on the functional tier, whose results carry no
     * cycle counts at all (asking for one is a caller bug, not a zero).
     */
    Cycles cycles(const std::string &key) const;

    /** Serialize (sorted copy is NOT implied: call sortByKey first). */
    json::Value toJson() const;
    std::string writeString() const;
    void writeFile(const std::string &path) const;

    static ResultSet fromJson(const json::Value &v);
    static ResultSet readFile(const std::string &path);

  private:
    std::vector<JobResult> results_;
};

} // namespace liquid::lab

#endif // LIQUID_LAB_RESULTS_HH
