#ifndef EQIMPACT_SERVE_PROTOCOL_H_
#define EQIMPACT_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/json.h"
#include "sim/experiment.h"
#include "sim/sweep.h"

namespace eqimpact {
namespace serve {

/// The experiment service's wire protocol: line-delimited JSON over a
/// byte stream (one UTF-8 JSON object per '\n'-terminated line, both
/// directions). A request is one JobSpec, the job vocabulary shared by
/// every entry point. It has two codecs with one grammar: the JSON form
///
///   {"id": "job-1",              // optional client token, echoed back
///    "scenario": "credit",       // required registry name
///    "trials": 3, "seed": 42, "bins": 64,
///    "threads": 0, "trial_threads": 0, "point_threads": 1,
///    "set": {"num_users": 150},  // scenario parameter assignments
///    "sweep": {"equalizer_strength": [0, 0.5, 1]}}  // optional axes
///
/// and the flag form that run_experiment and experiment_client parse:
///
///   --scenario=credit --trials=3 --seed=42 --bins=64 --threads=0
///   --trial-threads=0 --point-threads=1 --set num_users=150
///   --sweep equalizer_strength=0,0.5,1
///
/// Responses are events, each tagged with the request's id:
///
///   {"id": ..., "event": "accepted", "cached": false, "queue_depth": q}
///   {"id": ..., "event": "progress", "unit": "trial"|"point",
///    "index": i, "completed": k, "total": n}
///   {"id": ..., "event": "result", "cached": bool, "digest": "hex16",
///    "payload": "<the CLI's full JSON document, escaped>"}
///   {"id": ..., "event": "error", "code": "...", "message": "..."}
///
/// The result payload is byte-identical to what `run_experiment` prints
/// for the same spec, by construction: both run it through RunJobSpec
/// (serve/service.h). CI still diffs the two, filtering only the
/// provenance line, so a served result and a CLI run are
/// interchangeable.

/// Typed request rejection codes. The code taxonomy is part of the
/// protocol: clients branch on `code`, not on message text.
enum class ErrorCode {
  kBadJson,          ///< The request line is not valid JSON.
  kBadRequest,       ///< Valid JSON, but not a well-formed spec.
  kUnknownScenario,  ///< Scenario name not in the registry.
  kBadParameter,     ///< A set/sweep assignment the scenario rejects.
  kQueueFull,        ///< Admission control: the bounded queue is full.
  kShuttingDown,     ///< Server is draining; no new jobs.
  kInternal,         ///< The job failed inside the engine.
  /// Connection-level admission control: the transport's max-connection
  /// cap is reached. Sent as the sole event on the rejected connection,
  /// which is then closed — the shutting_down-style typed rejection of
  /// the connection layer rather than the job layer.
  kTooManyConnections,
};

/// The wire identifier of `code` ("bad_json", "queue_full", ...).
const char* ErrorCodeName(ErrorCode code);

/// One parsed experiment/sweep job spec — the validated, canonical form
/// a request line or a command line reduces to. Both codecs share these
/// defaults, so an empty request body ({"scenario": ...}) and a bare CLI
/// invocation produce byte-identical payloads.
struct JobSpec {
  std::string id;        ///< Client token (server-assigned if absent).
  std::string scenario;  ///< Registry name.
  size_t num_trials = 5;
  uint64_t master_seed = 42;
  size_t impact_bins = 64;
  /// Requested thread budgets, echoed into the payload exactly as the
  /// CLI echoes its flags. Execution may narrow them further through
  /// the scheduler's per-job budget — thread counts never move result
  /// bits, so the echo and the execution budget are decoupled.
  size_t num_threads = 0;
  size_t trial_threads = 0;
  size_t point_threads = 1;
  /// Scenario parameter assignments, in request order.
  std::vector<std::pair<std::string, double>> assignments;
  /// Sweep axes, in request order; empty = single experiment.
  std::vector<sim::SweepParameter> sweeps;

  bool is_sweep() const { return !sweeps.empty(); }
};

/// Parses a request line's JSON object into a spec. Returns true on
/// success; on failure fills (code, message) with a typed rejection.
/// This checks shape and ranges only: counts and seeds are integers up
/// to 1e15, trials and bins are positive. ValidateJobSpec checks the
/// spec against the scenario registry.
bool ParseJobSpec(const JsonValue& request, JobSpec* spec,
                  ErrorCode* code, std::string* message);

/// The flag codec: parses the job flags in `args` (the command line
/// without argv[0]) into `spec`. Each flag is read as the request field
/// of the same meaning and checked by ParseJobSpec's rules, so every
/// spec it accepts round-trips through EncodeJobSpec and ParseJobSpec
/// to an equal spec. Counts are decimal digits; --set and --sweep take
/// the next argument and finite values (strtod syntax). --scenario may
/// be absent, leaving `spec->scenario` empty. Arguments that are not
/// job flags go to `rest` in order, or are an error when `rest` is
/// null. Returns false with a message on a malformed job flag.
bool ParseJobFlags(const std::vector<std::string>& args, JobSpec* spec,
                   std::vector<std::string>* rest, std::string* message);

/// Strict decimal count: digits only, at most 1e15 (the bound of every
/// count in the grammar). For the binaries' own count flags.
bool ParseCountFlag(const std::string& text, size_t* value);

/// The JSON codec's encoder: one compact request line carrying every
/// field of `spec` (defaults and the id included).
std::string EncodeJobSpec(const JobSpec& spec);

/// Order-sensitive FNV-1a fingerprint over every payload-determining
/// spec field (scenario, trials, seed, bins, thread echoes, assignments,
/// sweep axes) — the result cache's key and the concurrent-submission
/// dedup key. Two specs with equal fingerprints produce byte-identical
/// payloads; the client id is excluded (it never reaches the payload).
uint64_t JobSpecFingerprint(const JobSpec& spec);

/// Event-line builders (each returns one '\n'-terminated line).
std::string AcceptedEventLine(const std::string& id, bool cached,
                              size_t queue_depth);
std::string ProgressEventLine(const std::string& id, const char* unit,
                              size_t index, size_t completed, size_t total);
std::string ResultEventLine(const std::string& id, bool cached,
                            uint64_t digest, const std::string& payload);
std::string ErrorEventLine(const std::string& id, ErrorCode code,
                           const std::string& message);

}  // namespace serve
}  // namespace eqimpact

#endif  // EQIMPACT_SERVE_PROTOCOL_H_
