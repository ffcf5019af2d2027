// Correctness gate: simulated-output digest plus delivery invariants.
#include <cmath>
#include <cstdio>
#include <string>

#include "mdwf/common/crc32c.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mdwf;

namespace {

struct Digest {
  std::uint32_t crc = 0;
  bool finite = true;

  void add(const void* data, std::size_t len) {
    crc = crc32c(data, len, crc);
  }
  void add(double x) {
    finite = finite && std::isfinite(x);
    add(&x, sizeof x);
  }
  void add(std::uint64_t x) { add(&x, sizeof x); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add(s.data(), s.size());
  }
  void add(const Samples& s) {
    add(static_cast<std::uint64_t>(s.count()));
    for (const double x : s.values()) add(x);
  }
  // Every counter of the simulated run (sim events, cache, KVS, frames...).
  void add(const obs::CounterMap& counters) {
    for (const auto& [name, value] : counters) {
      add(name);
      add(value);
    }
  }
};

}  // namespace

RepCheck check_outcome(const workflow::RepOutcome& rep,
                       std::uint64_t frames_expected) {
  Digest d;
  d.add(rep.prod_movement_us);
  d.add(rep.prod_idle_us);
  d.add(rep.cons_movement_us);
  d.add(rep.cons_idle_us);
  d.add(rep.makespan_s);
  d.add(rep.cons_fetch_us);
  d.add(rep.counters);
  RepCheck c;
  c.frames_expected = frames_expected;
  c.frames_delivered = rep.counters.get("frames_consumed");
  c.frames_lost = rep.counters.get("frames_lost");
  c.integrity_unrecovered = rep.counters.get("integrity_unrecovered");
  c.all_finite = d.finite;
  c.digest = d.crc;
  return c;
}

RepCheck check_sweep(const sweep::SweepResult& swept,
                     std::uint64_t frames_expected) {
  Digest d;
  RepCheck c;
  c.frames_expected = frames_expected;
  for (const auto& p : swept.points) {
    d.add(p.label);
    if (p.failed()) {
      ++c.failed_points;
      continue;
    }
    const auto& r = p.result;
    d.add(r.prod_movement_us);
    d.add(r.prod_idle_us);
    d.add(r.cons_movement_us);
    d.add(r.cons_idle_us);
    d.add(r.makespan_s);
    d.add(r.cons_fetch_us);
    d.add(r.counters);
    d.add(p.sim_events);
    c.frames_delivered += r.counters.get("frames_consumed");
    c.frames_lost += r.counters.get("frames_lost");
    c.integrity_unrecovered += r.counters.get("integrity_unrecovered");
  }
  c.all_finite = d.finite;
  c.digest = d.crc;
  return c;
}

std::optional<std::uint32_t> recorded_digest(std::string_view workload,
                                             std::uint64_t seed) {
  if (seed != kRecordedSeed) return std::nullopt;
  if (workload == "jac-dyad") return 0xa6180c51u;
  if (workload == "stmv-dyad") return 0xa9c6adc6u;
  if (workload == "advise-dag") return 0x0d10130eu;
  return std::nullopt;
}

std::string gate_error(std::string_view workload, const RepCheck& c,
                       std::optional<std::uint32_t> expected_digest) {
  const std::string who = "workload " + std::string(workload) + ": ";
  if (c.failed_points != 0) {
    return who + std::to_string(c.failed_points) + " sweep point(s) failed";
  }
  if (c.frames_delivered != c.frames_expected) {
    return who + "delivered " + std::to_string(c.frames_delivered) +
           " frames, expected " + std::to_string(c.frames_expected);
  }
  if (c.frames_lost != 0) {
    return who + std::to_string(c.frames_lost) + " frame(s) lost";
  }
  if (c.integrity_unrecovered != 0) {
    return who + std::to_string(c.integrity_unrecovered) +
           " unrecovered integrity failure(s)";
  }
  if (!c.all_finite) return who + "a simulated output is NaN or inf";
  if (expected_digest && c.digest != *expected_digest) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "simulated-output digest 0x%08x, expected 0x%08x", c.digest,
                  *expected_digest);
    return who + buf;
  }
  return {};
}

void Gate::check(const RepCheck& c) {
  if (!digest_ && c.failed_points == 0) digest_ = c.digest;
  check_against(c, digest_);
}

void Gate::check_against(const RepCheck& c,
                         std::optional<std::uint32_t> digest) {
  ++attempted_;
  const std::string err = gate_error(workload_, c, digest);
  if (!err.empty()) {
    ++failed_;
    std::fprintf(stderr, "perfbench: gate failed: %s\n", err.c_str());
  }
}

}  // namespace perfbench
