#include "lab/results.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "fast/tier.hh"

namespace liquid::lab
{

json::Value
JobResult::toJson() const
{
    json::Value v = json::Value::object();
    v.set("key", job.key());
    v.set("experiment", job.experiment);
    v.set("workload", job.workload);
    v.set("mode", modeName(job.mode));
    v.set("width", job.width);
    if (job.tier == fast::ExecTier::Functional)
        v.set("tier", fast::tierName(job.tier));
    if (job.repsOverride)
        v.set("reps", job.repsOverride);
    if (job.warmStart)
        v.set("ideal", true);

    json::Value over = json::Value::object();
    if (job.over.ucodeEntries)
        over.set("ucodeEntries", *job.over.ucodeEntries);
    if (job.over.translatorLatency)
        over.set("translatorLatency",
                 static_cast<std::uint64_t>(*job.over.translatorLatency));
    if (job.over.dcacheSizeBytes)
        over.set("dcacheSizeBytes",
                 static_cast<std::uint64_t>(*job.over.dcacheSizeBytes));
    if (job.over.dcacheAssoc)
        over.set("dcacheAssoc", *job.over.dcacheAssoc);
    if (job.over.faults)
        over.set("faults", *job.over.faults);
    if (!over.members().empty())
        v.set("overrides", std::move(over));

    if (predictedSpeedup > 0.0)
        v.set("predictedSpeedup", predictedSpeedup);
    if (!predictedProof.empty())
        v.set("predictedProof", predictedProof);

    // Functional-tier outcomes have no cycle clock: every cycle-shaped
    // field is omitted entirely (absent, not zero).
    if (outcome.hasCycles) {
        v.set("cycles", outcome.cycles);
        v.set("translations", outcome.translations);
        v.set("aborts", outcome.aborts);
        v.set("ucodeDispatches", outcome.ucodeDispatches);
        v.set("retranslations", outcome.retranslations);
    }

    json::Value counters = json::Value::object();
    for (const auto &[stat, value] : outcome.counters)
        counters.set(stat, value);
    v.set("counters", std::move(counters));

    if (outcome.hasCycles) {
        json::Value callLog = json::Value::object();
        for (const auto &[addr, cycles] : outcome.callLog) {
            json::Value arr = json::Value::array();
            for (Cycles c : cycles)
                arr.push(json::Value(c));
            callLog.set(std::to_string(addr), std::move(arr));
        }
        v.set("callLog", std::move(callLog));
    }
    return v;
}

JobResult
JobResult::fromJson(const json::Value &v)
{
    JobResult r;
    bool legacy_faults = false;
    r.job.experiment = v.at("experiment").asString();
    r.job.workload = v.at("workload").asString();
    r.job.mode = modeFromName(v.at("mode").asString());
    r.job.width = static_cast<unsigned>(v.at("width").asUint());
    // Tolerant read: v1 files predate the tier axis (all cycle-tier).
    if (const json::Value *tier = v.find("tier"))
        r.job.tier = fast::tierFromName(tier->asString());
    if (const json::Value *reps = v.find("reps"))
        r.job.repsOverride = static_cast<unsigned>(reps->asUint());
    if (const json::Value *ideal = v.find("ideal"))
        r.job.warmStart = ideal->asBool();
    if (const json::Value *over = v.find("overrides")) {
        if (const json::Value *e = over->find("ucodeEntries"))
            r.job.over.ucodeEntries = static_cast<unsigned>(e->asUint());
        if (const json::Value *l = over->find("translatorLatency"))
            r.job.over.translatorLatency = l->asUint();
        if (const json::Value *s = over->find("dcacheSizeBytes"))
            r.job.over.dcacheSizeBytes =
                static_cast<std::size_t>(s->asUint());
        if (const json::Value *a = over->find("dcacheAssoc"))
            r.job.over.dcacheAssoc = static_cast<unsigned>(a->asUint());
        if (const json::Value *f = over->find("faults"))
            r.job.over.faults = f->asString();
        // Deprecated spelling from pre-chaos result files: a bare
        // periodic-interrupt override maps onto its schedule key.
        if (const json::Value *p = over->find("interruptPeriod")) {
            r.job.over.faults = "p" + std::to_string(p->asUint());
            legacy_faults = true;
        }
    }

    // Keys from legacy files predate the "/f<schedule>" tag the
    // mapped faults override would add, so validate those against the
    // untagged spelling.
    const std::string key = v.at("key").asString();
    bool key_ok = key == r.job.key();
    if (!key_ok && legacy_faults) {
        Job untagged = r.job;
        untagged.over.faults.reset();
        key_ok = key == untagged.key();
    }
    if (!key_ok)
        fatal("results: job key '", key, "' does not match its fields (",
              r.job.key(), ")");

    if (const json::Value *p = v.find("predictedSpeedup"))
        r.predictedSpeedup = p->asDouble();
    if (const json::Value *p = v.find("predictedProof"))
        r.predictedProof = p->asString();

    if (r.job.tier == fast::ExecTier::Functional) {
        // Cycle-shaped fields are absent by construction; a functional
        // result that carries them anyway is malformed.
        r.outcome.hasCycles = false;
        if (v.find("cycles"))
            fatal("results: functional-tier job '", key,
                  "' carries a 'cycles' field (cycle stats are absent "
                  "under the functional tier, never zero)");
    } else {
        r.outcome.cycles = v.at("cycles").asUint();
        r.outcome.translations = v.at("translations").asUint();
        r.outcome.aborts = v.at("aborts").asUint();
        r.outcome.ucodeDispatches = v.at("ucodeDispatches").asUint();
        // Tolerant read: the field postdates committed baseline files.
        if (const json::Value *rt = v.find("retranslations"))
            r.outcome.retranslations = rt->asUint();
        for (const auto &[addr, cycles] : v.at("callLog").members()) {
            std::vector<Cycles> log;
            for (const auto &c : cycles.items())
                log.push_back(c.asUint());
            r.outcome.callLog[static_cast<Addr>(std::stoul(addr))] =
                std::move(log);
        }
    }
    for (const auto &[stat, value] : v.at("counters").members())
        r.outcome.counters[stat] = value.asUint();
    return r;
}

void
ResultSet::add(JobResult result)
{
    results_.push_back(std::move(result));
}

void
ResultSet::sortByKey()
{
    std::sort(results_.begin(), results_.end(),
              [](const JobResult &a, const JobResult &b) {
                  return a.job.key() < b.job.key();
              });
}

const JobResult *
ResultSet::find(const std::string &key) const
{
    for (const auto &r : results_) {
        if (r.job.key() == key)
            return &r;
    }
    return nullptr;
}

const JobResult &
ResultSet::at(const std::string &key) const
{
    const JobResult *r = find(key);
    if (!r)
        fatal("results: no job '", key, "'");
    return *r;
}

Cycles
ResultSet::cycles(const std::string &key) const
{
    const JobResult &r = at(key);
    if (!r.outcome.hasCycles)
        fatal("results: job '", key,
              "' ran on the functional tier; cycle counts are absent "
              "(not zero) — run the job on the cycle tier to get one");
    return r.outcome.cycles;
}

json::Value
ResultSet::toJson() const
{
    json::Value v = json::toolReport(resultsSchema, modelVersion);
    json::Value jobs = json::Value::array();
    for (const auto &r : results_)
        jobs.push(r.toJson());
    v.set("jobs", std::move(jobs));
    return v;
}

std::string
ResultSet::writeString() const
{
    return toJson().toString();
}

void
ResultSet::writeFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("results: cannot write '", path, "'");
    os << writeString();
}

ResultSet
ResultSet::fromJson(const json::Value &v)
{
    const std::string schema = v.at("schema").asString();
    if (schema != resultsSchema && schema != resultsSchemaV1)
        fatal("results: unsupported schema '", schema, "' (expected '",
              resultsSchema, "' or legacy '", resultsSchemaV1, "')");
    ResultSet set;
    for (const auto &job : v.at("jobs").items())
        set.add(JobResult::fromJson(job));
    return set;
}

ResultSet
ResultSet::readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("results: cannot open '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return fromJson(json::parse(text.str()));
}

} // namespace liquid::lab
