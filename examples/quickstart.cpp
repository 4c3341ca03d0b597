//===- examples/quickstart.cpp - P in five minutes --------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The end-to-end workflow of the paper in one file:
//   1. write a P program (a tiny request/response protocol with a ghost
//      environment),
//   2. verify it with the delay-bounded systematic tester (Section 5),
//   3. erase the ghosts and execute the real machines under the host
//      runtime (Section 4), with the "OS" injecting events.
//
// Build: cmake --build build --target example_quickstart
// Run:   ./build/examples/example_quickstart
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "frontend/Frontend.h"
#include "host/Host.h"

#include <cinttypes>
#include <cstdio>

using namespace p;

static const char *Source = R"(
// A server that owes every request exactly one response.
event Request(id);
event Response;
event Shutdown;

main ghost machine Environment {
  var ServerV: id;
  state Boot {
    entry {
      ServerV = new Server();
      raise(Response);
    }
    on Response goto Drive;
  }
  state Drive {
    entry {
      if (*) {
        send(ServerV, Request, this);
        raise(Response);
      } else {
        send(ServerV, Shutdown);
      }
    }
    on Response goto Drive;
  }
}

machine Server {
  var Served: int;
  state Running {
    entry { Served = 0; }
    on Request do Serve;
    on Shutdown goto Draining;
  }
  action Serve {
    Served = Served + 1;
    send(arg, Response);
  }
  state Draining {
    // Late requests during shutdown are still answered — the verifier
    // would flag them as unhandled otherwise (responsiveness!).
    entry { }
    on Request do Serve;
    on Shutdown do Ignore;
  }
  action Ignore { skip; }
}

// A real client the host wires in at execution time; during
// verification the ghost environment plays this role.
machine Client {
  var Got: int;
  state Waiting {
    entry { Got = 0; }
    on Response do Count;
  }
  action Count { Got = Got + 1; }
}
)";

int main() {
  // -- 1. Compile the full program (ghosts kept) for verification.
  CompileResult Verification = compileString(Source);
  if (!Verification.ok()) {
    std::fprintf(stderr, "compile error:\n%s",
                 Verification.Diags.str().c_str());
    return 1;
  }

  // -- 2. Systematic testing with the delaying scheduler.
  std::printf("== Verification (delay-bounded systematic testing) ==\n");
  for (int Delay = 0; Delay <= 3; ++Delay) {
    CheckOptions Opts;
    Opts.DelayBound = Delay;
    CheckResult R = check(*Verification.Program, Opts);
    std::printf("  delay bound %d: %s, %llu states, %llu slices\n", Delay,
                R.ErrorFound ? errorKindName(R.Error) : "no errors",
                static_cast<unsigned long long>(R.Stats.DistinctStates),
                static_cast<unsigned long long>(R.Stats.Slices));
    if (R.ErrorFound) {
      for (const auto &Line : R.Trace)
        std::printf("    %s\n", Line.c_str());
      return 1;
    }
  }

  // -- 3. Erase ghosts and execute for real.
  std::printf("\n== Execution (ghosts erased, host injects events) ==\n");
  LowerOptions Erase;
  Erase.EraseGhosts = true;
  CompileResult Execution = compileString(Source, Erase);
  Host H(*Execution.Program);
  int32_t Server = H.createMachine("Server");
  int32_t Client = H.createMachine("Client");
  std::printf("  created Server (id %d) in state %s, Client (id %d)\n",
              Server, H.currentStateName(Server).c_str(), Client);

  for (int I = 0; I != 3; ++I)
    H.addEvent(Server, "Request", Value::machine(Client));
  std::printf("  served %" PRId64 " requests, client saw %" PRId64
              " responses\n",
              H.readVar(Server, "Served").asInt(),
              H.readVar(Client, "Got").asInt());

  H.addEvent(Server, "Shutdown");
  std::printf("  after Shutdown: state %s\n",
              H.currentStateName(Server).c_str());
  H.addEvent(Server, "Request", Value::machine(Client));
  std::printf("  late request still served: %" PRId64 " responses total\n",
              H.readVar(Client, "Got").asInt());

  std::printf("\nquickstart ok\n");
  return H.hasError() ? 1 : 0;
}
