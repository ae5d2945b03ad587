#include "common/fault.hpp"

#ifndef IMC_FAULT_DISABLED

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/obs.hpp"
#include "common/rng.hpp"

namespace imc::fault {

namespace {

enum class Kind { Fail, Slow, Corrupt, Crash };

/** One parsed "<site>:<kind>:<prob>[:<param>]" spec clause. */
struct Clause {
    std::string site; // exact site id, or "*" matching every site
    Kind kind = Kind::Fail;
    double probability = 0.0;
    double param = 0.0; // slow: injected latency in ms
};

struct Schedule {
    std::uint64_t seed = 0;
    std::vector<Clause> clauses;
};

// The armed flag is the one-relaxed-load fast gate (mirroring
// obs::enabled); the schedule itself lives behind a mutex and probes
// take a shared_ptr snapshot, so arm()/disarm() never race a probe.
std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_injected{0};
std::mutex g_mutex;
std::shared_ptr<const Schedule> g_schedule; // guarded by g_mutex

[[noreturn]] void
bad_spec(const std::string& clause, const char* why)
{
    throw ConfigError("--fault-spec: bad clause '" + clause + "': " +
                      why);
}

Kind
parse_kind(const std::string& clause, const std::string& word)
{
    if (word == "fail")
        return Kind::Fail;
    if (word == "slow")
        return Kind::Slow;
    if (word == "corrupt")
        return Kind::Corrupt;
    if (word == "crash")
        return Kind::Crash;
    bad_spec(clause, "kind must be fail|slow|corrupt|crash");
}

double
parse_number(const std::string& clause, const std::string& v,
             const char* what)
{
    errno = 0;
    char* end = nullptr;
    // imc-lint: allow(banned-number-parse): strict spec parsing in
    // the Cli::get_double idiom — endptr + errno checked, trailing
    // garbage rejected, errors name the offending clause.
    const double parsed = std::strtod(v.c_str(), &end);
    if (v.empty() || end == v.c_str() || *end != '\0' ||
        errno == ERANGE)
        bad_spec(clause, what);
    return parsed;
}

bool
valid_site(const std::string& site)
{
    if (site.empty())
        return false;
    if (site == "*")
        return true;
    for (const char c : site) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

Clause
parse_clause(const std::string& text)
{
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t colon = text.find(':', pos);
        const std::size_t end =
            colon == std::string::npos ? text.size() : colon;
        fields.push_back(text.substr(pos, end - pos));
        if (colon == std::string::npos)
            break;
        pos = colon + 1;
    }
    if (fields.size() < 3 || fields.size() > 4)
        bad_spec(text, "want <site>:<kind>:<prob>[:<param>]");

    Clause clause;
    clause.site = fields[0];
    if (!valid_site(clause.site))
        bad_spec(text, "site must be dotted lowercase (or *)");
    clause.kind = parse_kind(text, fields[1]);
    clause.probability =
        parse_number(text, fields[2], "probability must be a number");
    if (!(clause.probability >= 0.0 && clause.probability <= 1.0))
        bad_spec(text, "probability must be in [0, 1]");
    clause.param = clause.kind == Kind::Slow ? 50.0 : 0.0;
    if (fields.size() == 4) {
        clause.param = parse_number(text, fields[3],
                                    "param must be a number");
        if (!(clause.param >= 0.0 && std::isfinite(clause.param)))
            bad_spec(text, "param must be finite and >= 0");
    }
    return clause;
}

std::vector<Clause>
parse_spec(const std::string& spec)
{
    std::vector<Clause> clauses;
    std::size_t pos = 0;
    // Empty tokens ("a,,b", trailing commas) are skipped, mirroring
    // Cli::get_list — and making the empty spec a valid (clean)
    // schedule.
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? spec.size() : comma;
        if (end > pos)
            clauses.push_back(parse_clause(spec.substr(pos, end - pos)));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return clauses;
}

/**
 * Uniform [0, 1) draw for one (clause, site, key, attempt) point —
 * the pure decision function behind every injection. The clause
 * index decorrelates clauses sharing a site; the attempt ordinal
 * re-rolls retries.
 */
double
roll(const Schedule& schedule, std::size_t clause_index,
     const std::string& site, const std::string& key,
     std::uint64_t attempt)
{
    std::uint64_t h = hash_combine(schedule.seed,
                                   hash_string("imc-fault-v1"));
    h = hash_combine(h, static_cast<std::uint64_t>(clause_index));
    h = hash_combine(h, hash_string(site));
    h = hash_combine(h, hash_string(key));
    h = hash_combine(h, attempt);
    // splitmix64 finalizes the combined hash into well-mixed bits.
    const std::uint64_t mixed = splitmix64(h);
    return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

} // namespace

void
arm(std::uint64_t seed, const std::string& spec)
{
    auto schedule = std::make_shared<Schedule>();
    schedule->seed = seed;
    schedule->clauses = parse_spec(spec); // throws before arming
    {
        const std::lock_guard<std::mutex> lock(g_mutex);
        g_schedule = std::move(schedule);
    }
    g_injected.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
}

void
disarm()
{
    g_armed.store(false, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_schedule.reset();
}

bool
armed()
{
    return g_armed.load(std::memory_order_relaxed);
}

Outcome
probe(const std::string& site, const std::string& key,
      std::uint64_t attempt)
{
    Outcome outcome;
    if (!armed())
        return outcome;
    std::shared_ptr<const Schedule> schedule;
    {
        const std::lock_guard<std::mutex> lock(g_mutex);
        schedule = g_schedule;
    }
    if (!schedule)
        return outcome;
    for (std::size_t i = 0; i < schedule->clauses.size(); ++i) {
        const Clause& clause = schedule->clauses[i];
        if (clause.site != "*" && clause.site != site)
            continue;
        if (roll(*schedule, i, site, key, attempt) >=
            clause.probability)
            continue;
        switch (clause.kind) {
          case Kind::Fail:
            outcome.fail = true;
            break;
          case Kind::Slow:
            // Overlapping stragglers: the slowest clause governs.
            outcome.delay_ms = std::max(outcome.delay_ms, clause.param);
            break;
          case Kind::Corrupt:
            outcome.corrupt = true;
            break;
          case Kind::Crash:
            outcome.crash = true;
            break;
        }
    }
    if (!outcome.clean()) {
        g_injected.fetch_add(1, std::memory_order_relaxed);
        if (IMC_OBS_ENABLED()) {
            IMC_OBS_COUNT("fault.injected");
            IMC_OBS_COUNT("fault.injected." + site);
        }
    }
    return outcome;
}

std::uint64_t
injected_count()
{
    return g_injected.load(std::memory_order_relaxed);
}

Session::Session(const Cli& cli)
{
    if (!cli.has("fault-seed") && !cli.has("fault-spec"))
        return;
    arm(cli.get_u64("fault-seed", 0), cli.get("fault-spec", ""));
    armed_ = true;
}

Session::~Session()
{
    if (armed_)
        disarm();
}

} // namespace imc::fault

#endif // IMC_FAULT_DISABLED
