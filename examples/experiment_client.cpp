// Loopback client of the experiment service (run_experiment --serve):
// reads one serve::JobSpec from its job flags with the flag codec that
// run_experiment uses (serve::ParseJobFlags), so it accepts exactly the
// command lines run_experiment accepts and rejects a bad one with exit
// 2 before it connects. It sends the spec as one JSON request line
// (serve::EncodeJobSpec), streams the progress events to stderr and
// prints the result payload — the CLI-identical JSON document — to
// stdout. CI byte-diffs this output against a direct run_experiment run
// of the same spec (filtering only the single-line provenance field).
//
// Usage:
//   experiment_client (--port=P | --port-file=PATH)
//                     --scenario=NAME [--trials=N] [--seed=S] [--bins=B]
//                     [--threads=T] [--trial-threads=T] [--point-threads=P]
//                     [--set name=value]... [--sweep name=v1,v2,...]...
//                     [--id=TOKEN] [--quiet]
//   experiment_client (--port=P | --port-file=PATH) --request=JSON
//
// Exit status: 0 on a result event, 1 on a typed error event or
// transport failure, 2 on bad usage.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"

using eqimpact::serve::Client;
using eqimpact::serve::ClientEvent;

int main(int argc, char** argv) {
  // The job flags go through the shared flag codec, so a spec the CLI
  // rejects is rejected here too, before any connection is made.
  const std::vector<std::string> args(argv + 1, argv + argc);
  eqimpact::serve::JobSpec job;
  std::vector<std::string> own;
  std::string error;
  if (!eqimpact::serve::ParseJobFlags(args, &job, &own, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  size_t port = 0;
  std::string port_file;
  std::string raw_request;  // --request: sent verbatim, job flags ignored.
  bool quiet = false;
  for (const std::string& arg : own) {
    if (arg.rfind("--port=", 0) == 0) {
      const std::string text = arg.substr(std::strlen("--port="));
      if (!eqimpact::serve::ParseCountFlag(text, &port)) {
        std::fprintf(stderr, "error: bad %s (want a port number)\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(std::strlen("--port-file="));
    } else if (arg.rfind("--request=", 0) == 0) {
      raw_request = arg.substr(std::strlen("--request="));
    } else if (arg.rfind("--id=", 0) == 0) {
      job.id = arg.substr(std::strlen("--id="));
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (!port_file.empty()) {
    std::FILE* file = std::fopen(port_file.c_str(), "r");
    if (file == nullptr) {
      std::fprintf(stderr, "error: cannot read port file '%s'\n",
                   port_file.c_str());
      return 2;
    }
    unsigned value = 0;
    const int fields = std::fscanf(file, "%u", &value);
    std::fclose(file);
    if (fields != 1 || value == 0 || value > 65535) {
      std::fprintf(stderr, "error: bad port file '%s'\n",
                   port_file.c_str());
      return 2;
    }
    port = value;
  }
  if (port == 0 || port > 65535) {
    std::fprintf(stderr,
                 "usage: experiment_client (--port=P | --port-file=PATH) "
                 "(--scenario=NAME [--trials=N] [--seed=S] [--bins=B] "
                 "[--threads=T] [--trial-threads=T] [--point-threads=P] "
                 "[--set name=value]... [--sweep name=v1,v2,...]... "
                 "[--id=TOKEN] | --request=JSON) [--quiet]\n");
    return 2;
  }
  if (raw_request.empty() && job.scenario.empty()) {
    std::fprintf(stderr, "error: need --scenario=NAME or --request=JSON\n");
    return 2;
  }

  const std::string request =
      raw_request.empty() ? eqimpact::serve::EncodeJobSpec(job) : raw_request;
  Client client;
  if (!client.Connect(static_cast<uint16_t>(port), &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  ClientEvent last;
  const bool ok = client.SubmitAndWait(
      request, &last, &error, [quiet](const ClientEvent& event) {
        if (quiet) return;
        if (event.event == "accepted") {
          std::fprintf(stderr, "accepted id=%s cached=%s queue_depth=%zu\n",
                       event.id.c_str(), event.cached ? "true" : "false",
                       event.queue_depth);
        } else if (event.event == "progress") {
          std::fprintf(stderr, "progress %s %zu: %zu/%zu\n",
                       event.unit.c_str(), event.index, event.completed,
                       event.total);
        }
      });
  if (!ok) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (!quiet) {
    std::fprintf(stderr, "result id=%s cached=%s digest=%016llx\n",
                 last.id.c_str(), last.cached ? "true" : "false",
                 static_cast<unsigned long long>(last.digest));
  }
  std::fwrite(last.payload.data(), 1, last.payload.size(), stdout);
  return 0;
}
