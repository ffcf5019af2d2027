// Untraced end-to-end run of one workload: set-up time, repetition times,
// frames per host second and peak RSS, every repetition gated.
//
// Which statistics are bounded: on a shared VM host the simulator runs in
// two speed modes (repetition times cluster near 40 ms and near 65 ms on
// jac-dyad) and the share of a run spent in each drifts over minutes, so
// the median, the mean and the tail of a run move with that share
// (README.md, "Host speed modes").  The bounded throughput
// therefore uses the 10th percentile, the undisturbed repetition; the
// median, the tail and the loop mean are printed beside it.  The bounded
// set-up time is the median of the run's cold set-ups, each the first
// set-up of a fresh process.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The process sets up once before the loop, and a fresh process sets up
// again each time this much of the loop has passed, so the set-up samples
// span the run's host speed modes instead of one instant of it.
constexpr double kSetupEverySeconds = 1.0;

// argv[1] of a process that runs one set-up, prints it and exits.
constexpr std::string_view kColdSetupFlag = "--cold-setup";

struct TimedSetUp {
  perfbench::RepCheck check;
  double seconds = 0.0;
};

// Config parse, workload load and planning, and the first repetition: the
// wait before the first result.  The repetition is checked after the clock
// stops.
TimedSetUp set_up(const perfbench::RunArgs& args,
                  perfbench::Prepared& prepared) {
  const auto t0 = Clock::now();
  prepared = perfbench::prepare(args.workload, args.seed);
  const perfbench::Outcome o = perfbench::run_one(prepared);
  const double seconds = seconds_since(t0);
  return {perfbench::check_one(prepared, o), seconds};
}

// The one line a --cold-setup process prints.
constexpr const char* kSetupLine = "%lf %llu %llu %llu %llu %llu %d %u";

void print_set_up(const TimedSetUp& s) {
  const perfbench::RepCheck& c = s.check;
  std::printf("%.9f %llu %llu %llu %llu %llu %d %u\n", s.seconds,
              static_cast<unsigned long long>(c.frames_expected),
              static_cast<unsigned long long>(c.frames_delivered),
              static_cast<unsigned long long>(c.frames_lost),
              static_cast<unsigned long long>(c.integrity_unrecovered),
              static_cast<unsigned long long>(c.failed_points),
              c.all_finite ? 1 : 0, c.digest);
}

// Runs set_up in a fresh process of this program, so that it pays what only
// a process's first set-up pays (first-touch page faults, lazy
// initialisation, cold caches), and waits for that process to end.
TimedSetUp cold_set_up(std::vector<std::string> argv_strings) {
  std::vector<char*> argv;
  for (std::string& a : argv_strings) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    for (;;) {
      const ssize_t n = read(fds[0], buf, sizeof buf);
      if (n > 0) {
        out.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  int status = 0;
  const bool exited_ok = rc == 0 && waitpid(pid, &status, 0) == pid &&
                         WIFEXITED(status) && WEXITSTATUS(status) == 0;
  TimedSetUp s;
  unsigned long long n[5] = {};
  int finite = 0;
  if (!exited_ok ||
      std::sscanf(out.c_str(), kSetupLine, &s.seconds, &n[0], &n[1], &n[2],
                  &n[3], &n[4], &finite, &s.check.digest) != 8) {
    throw std::runtime_error("set-up process failed");
  }
  s.check.frames_expected = n[0];
  s.check.frames_delivered = n[1];
  s.check.frames_lost = n[2];
  s.check.integrity_unrecovered = n[3];
  s.check.failed_points = n[4];
  s.check.all_finite = finite != 0;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const int cold = argc > 1 && argv[1] == kColdSetupFlag ? 1 : 0;
  perfbench::RunArgs args;
  try {
    args = perfbench::parse_run_args(argc - cold, argv + cold);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }
  if (cold) {
    try {
      perfbench::Prepared prepared;
      print_set_up(set_up(args, prepared));
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_e2e: workload %s: %s\n",
                   args.workload.c_str(), e.what());
      return 2;
    }
  }

  const double ref_ms = perfbench::median(
      {perfbench::reference_loop_ms(), perfbench::reference_loop_ms(),
       perfbench::reference_loop_ms()});

  perfbench::Gate gate(args.workload,
                       perfbench::recorded_digest(args.workload, args.seed));

  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (exe_len <= 0) {
    std::fprintf(stderr, "perfbench_e2e: cannot find its own executable\n");
    return 2;
  }
  const std::vector<std::string> cold_argv = {
      std::string(exe, static_cast<std::size_t>(exe_len)),
      std::string(kColdSetupFlag),
      "--workload",
      args.workload,
      "--seed",
      std::to_string(args.seed),
      "--seconds",
      std::to_string(args.seconds)};

  // Timed loop: whole repetitions, with a cold set-up every
  // kSetupEverySeconds, until --seconds of host time have passed.  Set-up
  // repetitions are gated but kept out of the repetition percentiles.
  std::vector<double> setup_s;
  std::vector<double> rep_ms;
  std::uint64_t frames = 0;
  perfbench::Prepared prepared;
  try {
    const TimedSetUp first = set_up(args, prepared);
    setup_s.push_back(first.seconds);
    gate.check(first.check);
    const auto loop_start = Clock::now();
    auto last_setup = loop_start;
    while (seconds_since(loop_start) < args.seconds) {
      if (seconds_since(last_setup) >= kSetupEverySeconds) {
        const TimedSetUp s = cold_set_up(cold_argv);
        setup_s.push_back(s.seconds);
        gate.check(s.check);
        last_setup = Clock::now();
        continue;
      }
      const auto t0 = Clock::now();
      const perfbench::Outcome o = perfbench::run_one(prepared);
      rep_ms.push_back(seconds_since(t0) * 1e3);
      const perfbench::RepCheck c = perfbench::check_one(prepared, o);
      frames += c.frames_delivered;
      gate.check(c);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: workload %s: %s\n",
                 args.workload.c_str(), e.what());
    return 2;
  }
  double rep_s = 0.0;
  for (const double ms : rep_ms) rep_s += ms / 1e3;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  const perfbench::Tail tail = perfbench::tail_of(rep_ms);
  const double p10_ms = perfbench::quantile(rep_ms, 0.10);
  const double p50_ms = perfbench::median(rep_ms);
  const double frames_per_rep = static_cast<double>(prepared.frames_expected);
  const double setup_p50_s = perfbench::median(setup_s);
  std::printf("workload %s seed %llu: %zu repetitions in %.3f s, "
              "rep p10 %.3f ms, p50 %.3f ms, p%g %.3f ms (%zu samples "
              "beyond), %zu cold set-ups p10 %.4f s p50 %.4f s, "
              "ref %.2f ms\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), rep_ms.size(),
              rep_s, p10_ms, p50_ms, tail.percentile, tail.value,
              tail.beyond, setup_s.size(), perfbench::quantile(setup_s, 0.10),
              setup_p50_s, ref_ms);
  std::printf(
      "{\"attempted\": %llu, \"failed\": %llu, \"digest\": \"0x%08x\", "
      "\"samples\": %zu, \"tail_percentile\": %g, \"ref_ms\": %.6f, "
      "\"rep_ms_p50\": %.6f, \"rep_ms_tail\": %.6f, "
      "\"frames_per_s_mean\": %.6f, \"setups\": %zu, \"metrics\": {"
      "\"frames_per_s\": {\"value\": %.6f, \"unit\": \"1/s\"}, "
      "\"setup_s\": {\"value\": %.6f, \"unit\": \"s\"}, "
      "\"peak_rss_mb\": {\"value\": %.6f, \"unit\": \"MB\"}}}\n",
      static_cast<unsigned long long>(gate.attempted()),
      static_cast<unsigned long long>(gate.failed()),
      gate.digest().value_or(0), rep_ms.size(), tail.percentile, ref_ms,
      p50_ms, tail.value, static_cast<double>(frames) / rep_s,
      setup_s.size(), frames_per_rep / (p10_ms / 1e3), setup_p50_s,
      peak_rss_mb);
  return gate.failed() == 0 ? 0 : 1;
}
