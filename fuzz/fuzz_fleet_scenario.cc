// Fuzz harness for the ScenarioSpec JSON parser — the one fleet surface
// that reads untrusted text.
//
// Properties checked on every input:
//   1. parse() never crashes: it either throws std::invalid_argument or
//      returns a spec (resource ceilings mean no allocation blowups).
//   2. An accepted spec satisfies its own validate() — parse cannot
//      admit a spec the validator would reject.
//   3. to_json() of an accepted spec is a canonical fixed point: it
//      re-parses, re-serializes to the same bytes, and keeps the same
//      scenario id (so baselines keyed by id never drift).

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "fleet/scenario.h"
#include "fuzz_util.h"

namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_fleet_scenario: %s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string json(reinterpret_cast<const char*>(data), size);

  dap::fleet::ScenarioSpec spec;
  try {
    spec = dap::fleet::ScenarioSpec::parse(json);
  } catch (const std::invalid_argument&) {
    return 0;  // rejection is the contract for malformed input
  }

  try {
    spec.validate();
  } catch (const std::invalid_argument&) {
    fail("parse accepted a spec its own validator rejects");
  }
  if (spec.id().empty()) {
    fail("accepted spec has an empty scenario id");
  }

  const std::string canonical = spec.to_json();
  try {
    const dap::fleet::ScenarioSpec reparsed =
        dap::fleet::ScenarioSpec::parse(canonical);
    if (reparsed.to_json() != canonical) {
      fail("canonical JSON is not a serialization fixed point");
    }
    if (reparsed.id() != spec.id()) {
      fail("scenario id drifts across the canonical round-trip");
    }
  } catch (const std::invalid_argument&) {
    fail("canonical JSON rejected by its own parser");
  }

  return 0;
}
