#include "serve/protocol.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/fnv1a.h"

namespace eqimpact {
namespace serve {
namespace {

/// The bound of every count and seed in the grammar: integers up to it
/// are exact in a double, so they survive the JSON encoding.
constexpr double kMaxCount = 1e15;

/// The bound as every count message spells it: decimal digits, the only
/// form the count flags accept.
std::string MaxCountDigits() {
  return std::to_string(static_cast<uint64_t>(kMaxCount));
}

/// Shared guard for count-like request fields: a non-negative integral
/// JSON number that fits a size_t without precision loss.
bool ReadCount(const JsonValue* value, size_t* out, bool allow_zero) {
  if (value == nullptr) return true;  // Keep the default.
  if (!value->is_number()) return false;
  const double number = value->as_number();
  if (!std::isfinite(number) || number < 0.0 || number > kMaxCount ||
      number != std::floor(number)) {
    return false;
  }
  if (!allow_zero && number == 0.0) return false;
  *out = static_cast<size_t>(number);
  return true;
}

/// Every field but the id, under the grammar's rules; the one validator
/// behind both codecs. Without `require_scenario` the scenario may be
/// absent (the flag codec's case).
bool ReadSpecFields(const JsonValue& request, bool require_scenario,
                    JobSpec* spec, std::string* message) {
  const JsonValue* scenario = request.Find("scenario");
  if (scenario != nullptr || require_scenario) {
    if (scenario == nullptr || !scenario->is_string() ||
        scenario->as_string().empty()) {
      *message = "'scenario' (non-empty string) is required";
      return false;
    }
    spec->scenario = scenario->as_string();
  }
  if (!ReadCount(request.Find("trials"), &spec->num_trials,
                 /*allow_zero=*/false)) {
    *message = "'trials' must be a positive integer <= " + MaxCountDigits();
    return false;
  }
  size_t seed = spec->master_seed;
  if (!ReadCount(request.Find("seed"), &seed, /*allow_zero=*/true)) {
    *message =
        "'seed' must be a non-negative integer <= " + MaxCountDigits();
    return false;
  }
  spec->master_seed = static_cast<uint64_t>(seed);
  if (!ReadCount(request.Find("bins"), &spec->impact_bins,
                 /*allow_zero=*/false)) {
    *message = "'bins' must be a positive integer <= " + MaxCountDigits();
    return false;
  }
  if (!ReadCount(request.Find("threads"), &spec->num_threads,
                 /*allow_zero=*/true) ||
      !ReadCount(request.Find("trial_threads"), &spec->trial_threads,
                 /*allow_zero=*/true) ||
      !ReadCount(request.Find("point_threads"), &spec->point_threads,
                 /*allow_zero=*/true)) {
    *message =
        "'threads'/'trial_threads'/'point_threads' must be non-negative "
        "integers <= " +
        MaxCountDigits();
    return false;
  }
  if (const JsonValue* set = request.Find("set")) {
    if (!set->is_object()) {
      *message = "'set' must be an object of name: value";
      return false;
    }
    for (const auto& member : set->members()) {
      if (!member.second.is_number()) {
        *message = "'set." + member.first + "' must be a number";
        return false;
      }
      spec->assignments.emplace_back(member.first,
                                     member.second.as_number());
    }
  }
  if (const JsonValue* sweep = request.Find("sweep")) {
    if (!sweep->is_object()) {
      *message = "'sweep' must be an object of name: [values]";
      return false;
    }
    for (const auto& member : sweep->members()) {
      if (!member.second.is_array() || member.second.items().empty()) {
        *message = "'sweep." + member.first +
                   "' must be a non-empty array of numbers";
        return false;
      }
      sim::SweepParameter axis;
      axis.name = member.first;
      for (const JsonValue& item : member.second.items()) {
        if (!item.is_number()) {
          *message = "'sweep." + member.first +
                     "' must be a non-empty array of numbers";
          return false;
        }
        axis.values.push_back(item.as_number());
      }
      spec->sweeps.push_back(std::move(axis));
    }
  }
  return true;
}

/// A flag value as a finite number, under the JSON parser's rule that
/// inf and nan are not numbers; strtod's syntax otherwise.
bool ParseFiniteNumber(const std::string& text, JsonValue* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value)) return false;
  *out = JsonValue::Number(value);
  return true;
}

/// "name=v1,v2,..." as a name and a non-empty array of finite numbers.
bool ParseAxisFlag(const std::string& text, std::string* name,
                   JsonValue* values) {
  const size_t equals = text.find('=');
  if (equals == std::string::npos || equals == 0) return false;
  *name = text.substr(0, equals);
  *values = JsonValue::Array();
  size_t start = equals + 1;
  while (true) {
    const size_t comma = std::min(text.find(',', start), text.size());
    JsonValue value;
    if (!ParseFiniteNumber(text.substr(start, comma - start), &value)) {
      return false;
    }
    values->Append(std::move(value));
    if (comma == text.size()) return true;
    start = comma + 1;
  }
}

std::string HexDigest(uint64_t digest) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, digest);
  return buffer;
}

void MixString(base::Fnv1a* f, const std::string& text) {
  // Length-prefixed so "ab"+"c" and "a"+"bc" cannot collide.
  f->Mix(text.size());
  for (const char ch : text) {
    f->Mix(static_cast<uint8_t>(ch));
  }
}

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadJson: return "bad_json";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownScenario: return "unknown_scenario";
    case ErrorCode::kBadParameter: return "bad_parameter";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kTooManyConnections: return "too_many_connections";
  }
  return "internal";
}

bool ParseJobSpec(const JsonValue& request, JobSpec* spec,
                  ErrorCode* code, std::string* message) {
  *code = ErrorCode::kBadRequest;
  if (!request.is_object()) {
    *message = "request must be a JSON object";
    return false;
  }
  for (const auto& member : request.members()) {
    const std::string& key = member.first;
    if (key != "id" && key != "scenario" && key != "trials" &&
        key != "seed" && key != "bins" && key != "threads" &&
        key != "trial_threads" && key != "point_threads" && key != "set" &&
        key != "sweep") {
      *message = "unknown request field '" + key + "'";
      return false;
    }
  }
  if (const JsonValue* id = request.Find("id")) {
    if (!id->is_string()) {
      *message = "'id' must be a string";
      return false;
    }
    spec->id = id->as_string();
  }
  return ReadSpecFields(request, /*require_scenario=*/true, spec, message);
}

bool ParseJobFlags(const std::vector<std::string>& args, JobSpec* spec,
                   std::vector<std::string>* rest, std::string* message) {
  // Each flag becomes the request field of the same meaning, and the
  // wire's field rules then read the whole request.
  static const std::pair<const char*, const char*> kCountFlags[] = {
      {"--trials=", "trials"},
      {"--seed=", "seed"},
      {"--bins=", "bins"},
      {"--threads=", "threads"},
      {"--trial-threads=", "trial_threads"},
      {"--point-threads=", "point_threads"},
  };
  JsonValue request = JsonValue::Object();
  JsonValue set = JsonValue::Object();
  JsonValue sweep = JsonValue::Object();
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--set" || arg == "--sweep") {
      if (i + 1 == args.size()) {
        *message = arg + " needs a value";
        return false;
      }
      const bool is_set = arg == "--set";
      const std::string& text = args[++i];
      std::string name;
      JsonValue values;
      if (!ParseAxisFlag(text, &name, &values) ||
          (is_set && values.items().size() != 1)) {
        *message = "bad " + arg + " '" + text + "' (want " +
                   (is_set ? "name=value" : "name=v1,v2,...") +
                   " with finite values)";
        return false;
      }
      if (is_set) {
        set.Set(name, values.items()[0]);
      } else {
        sweep.Set(name, std::move(values));
      }
      continue;
    }
    if (arg.rfind("--scenario=", 0) == 0) {
      const std::string name = arg.substr(std::strlen("--scenario="));
      request.Set("scenario", JsonValue::String(name));
      continue;
    }
    const auto* count = std::find_if(
        std::begin(kCountFlags), std::end(kCountFlags),
        [&arg](const auto& flag) { return arg.rfind(flag.first, 0) == 0; });
    if (count != std::end(kCountFlags)) {
      size_t value = 0;
      if (!ParseCountFlag(arg.substr(std::strlen(count->first)), &value)) {
        *message = "bad " + arg + " (want a non-negative integer <= " +
                   MaxCountDigits() + ")";
        return false;
      }
      request.Set(count->second, JsonValue::Number(static_cast<double>(value)));
    } else if (rest != nullptr) {
      rest->push_back(arg);
    } else {
      *message = "unknown argument '" + arg + "'";
      return false;
    }
  }
  request.Set("set", std::move(set));
  request.Set("sweep", std::move(sweep));
  return ReadSpecFields(request, /*require_scenario=*/false, spec, message);
}

bool ParseCountFlag(const std::string& text, size_t* value) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const double number = std::strtod(text.c_str(), nullptr);
  if (number > kMaxCount) return false;
  *value = static_cast<size_t>(number);
  return true;
}

std::string EncodeJobSpec(const JobSpec& spec) {
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::String(spec.id));
  request.Set("scenario", JsonValue::String(spec.scenario));
  const std::pair<const char*, double> counts[] = {
      {"trials", static_cast<double>(spec.num_trials)},
      {"seed", static_cast<double>(spec.master_seed)},
      {"bins", static_cast<double>(spec.impact_bins)},
      {"threads", static_cast<double>(spec.num_threads)},
      {"trial_threads", static_cast<double>(spec.trial_threads)},
      {"point_threads", static_cast<double>(spec.point_threads)},
  };
  for (const auto& count : counts) {
    request.Set(count.first, JsonValue::Number(count.second));
  }
  JsonValue set = JsonValue::Object();
  for (const auto& assignment : spec.assignments) {
    set.Set(assignment.first, JsonValue::Number(assignment.second));
  }
  request.Set("set", std::move(set));
  JsonValue sweep = JsonValue::Object();
  for (const sim::SweepParameter& axis : spec.sweeps) {
    JsonValue values = JsonValue::Array();
    for (const double value : axis.values) {
      values.Append(JsonValue::Number(value));
    }
    sweep.Set(axis.name, std::move(values));
  }
  request.Set("sweep", std::move(sweep));
  return request.Dump();
}

uint64_t JobSpecFingerprint(const JobSpec& spec) {
  base::Fnv1a f;
  MixString(&f, spec.scenario);
  f.Mix(spec.num_trials);
  f.Mix(spec.master_seed);
  f.Mix(spec.impact_bins);
  // The thread echoes land in the payload (the CLI prints its flags),
  // so payload identity requires keying on them too — even though the
  // simulated bits are thread-invariant by the determinism contract.
  f.Mix(spec.num_threads);
  f.Mix(spec.trial_threads);
  f.Mix(spec.point_threads);
  f.Mix(spec.assignments.size());
  for (const auto& assignment : spec.assignments) {
    MixString(&f, assignment.first);
    f.MixDouble(assignment.second);
  }
  f.Mix(spec.sweeps.size());
  for (const sim::SweepParameter& axis : spec.sweeps) {
    MixString(&f, axis.name);
    f.Mix(axis.values.size());
    for (const double value : axis.values) f.MixDouble(value);
  }
  return f.hash();
}

std::string AcceptedEventLine(const std::string& id, bool cached,
                              size_t queue_depth) {
  JsonValue event = JsonValue::Object();
  event.Set("id", JsonValue::String(id));
  event.Set("event", JsonValue::String("accepted"));
  event.Set("cached", JsonValue::Bool(cached));
  event.Set("queue_depth",
            JsonValue::Number(static_cast<double>(queue_depth)));
  return event.Dump() + "\n";
}

std::string ProgressEventLine(const std::string& id, const char* unit,
                              size_t index, size_t completed,
                              size_t total) {
  JsonValue event = JsonValue::Object();
  event.Set("id", JsonValue::String(id));
  event.Set("event", JsonValue::String("progress"));
  event.Set("unit", JsonValue::String(unit));
  event.Set("index", JsonValue::Number(static_cast<double>(index)));
  event.Set("completed", JsonValue::Number(static_cast<double>(completed)));
  event.Set("total", JsonValue::Number(static_cast<double>(total)));
  return event.Dump() + "\n";
}

std::string ResultEventLine(const std::string& id, bool cached,
                            uint64_t digest, const std::string& payload) {
  JsonValue event = JsonValue::Object();
  event.Set("id", JsonValue::String(id));
  event.Set("event", JsonValue::String("result"));
  event.Set("cached", JsonValue::Bool(cached));
  event.Set("digest", JsonValue::String(HexDigest(digest)));
  event.Set("payload", JsonValue::String(payload));
  return event.Dump() + "\n";
}

std::string ErrorEventLine(const std::string& id, ErrorCode code,
                           const std::string& message) {
  JsonValue event = JsonValue::Object();
  event.Set("id", JsonValue::String(id));
  event.Set("event", JsonValue::String("error"));
  event.Set("code", JsonValue::String(ErrorCodeName(code)));
  event.Set("message", JsonValue::String(message));
  return event.Dump() + "\n";
}

}  // namespace serve
}  // namespace eqimpact
