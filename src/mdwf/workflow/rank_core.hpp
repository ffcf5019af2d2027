// Rank machinery shared by the pipeline and DAG rank loops (internal).
//
// The two loop bodies stay separate — run_producer/run_consumer move one
// frame per iteration with per-frame producer_sync and checkpoint rollback;
// run_dag_task moves every frame of every edge with an end-of-edge barrier
// and whole-task restart — but everything around them is this one copy:
// the remote-fault retry step, the per-rank helpers, edge wiring, the
// counter collectors, and the repetition skeleton.
//
// A DAG task context is a RankContext too (dag_run.cpp), so every helper
// takes the rank's RankContext.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mdwf/common/fence.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace mdwf::workflow::core {

// Backoff between same-frame retries when a *remote* fault (crashed peer,
// torn fabric) failed the frame but this rank's node kept its state.
constexpr Duration kFaultRetryBackoff = Duration::milliseconds(50);
// Hard cap so an unrecoverable configuration surfaces as the original error
// instead of an endless poll loop.
constexpr std::uint64_t kMaxFaultRetries = 10'000;

inline std::uint64_t rank_epoch(const RankContext& r) {
  return r.crash != nullptr ? r.crash->epoch(r.node) : 0;
}

// Fail-slow CPU: compute bursts stretch by the injector's current dilation
// for this rank's node (kSlowNode windows; x1.0 outside them).
inline double cpu_dilation(const RankContext& r) {
  return r.injector != nullptr ? r.injector->cpu_dilation(r.node) : 1.0;
}

// Frame-boundary timeline marker ("f=<n>") on the rank's trace lane.  The
// unit number rides as the record payload; the name materializes at export.
inline void trace_frame(const RankContext& r, std::uint64_t unit) {
  if (r.trace == nullptr) return;
  r.trace->instant(r.frame_marker, r.sim->now(),
                   static_cast<std::int64_t>(unit));
}

// Backoff-or-park decision for a retry loop whose peer's node is down.
// Without a plane, a peer on a permanently-lost node can never re-supply
// (or consume) frames: park on its up-event — which never fires — so the
// run quiesces into the deadlock reporter instead of polling forever.
// With a plane the peer migrates and re-supplies, so keep polling.
inline bool park_on_lost_peer(const RankContext& r, std::uint32_t peer) {
  return r.membership == nullptr && r.injector != nullptr &&
         r.crash != nullptr && r.crash->down(peer) &&
         r.injector->node_lost(peer);
}

// Account a finished frame iteration: distinct progress vs post-rollback
// re-execution.
inline void count_frame(RankStats* stats, std::uint64_t f,
                        std::uint64_t& high) {
  if (f < high) {
    if (stats != nullptr) ++stats->reexecuted;
  } else {
    high = f + 1;
    if (stats != nullptr) ++stats->frames_done;
  }
}

// One frame crossing a connector: a put (with its publish stamp and the
// producer's progress record, both inside the "produce" region) or a get
// (the "consume" region).
struct FrameMove {
  Connector* conn = nullptr;
  std::string path;
  Bytes bytes{};
  std::uint64_t frame = 0;
  bool publish = false;
  std::vector<TimePoint>* stamps = nullptr;  // put: stamp [frame] on success
  Checkpoint* persist = nullptr;  // put: persist(frame + 1) after the stamp
  std::uint32_t peer_node = 0;    // the edge's other end
  RankStats* stats = nullptr;     // fault_retries lands here
};

enum class MoveEnd : std::uint8_t {
  kMoved,    // the frame crossed
  kFenced,   // this incarnation was declared lost (membership plane only)
  kCrashed,  // this rank's node died under a failed attempt
};

// The remote-fault retry step.  Without a crash model a faulted attempt is
// fatal, exactly as on a healthy cluster; with one, a NetError/IoError/
// FsError is retried after kFaultRetryBackoff (or parked on a lost peer)
// until the frame moves, this node's epoch changes, or kMaxFaultRetries
// is spent.  StaleEpochError is a zombie incarnation's terminal fence: it
// ends the step when a membership plane exists and is rethrown otherwise.
// `mv` is a local of the awaiting rank loop (never a temporary inside the
// co_await expression: GCC 12 destroys those twice).
inline sim::Task<MoveEnd> move_frame(const RankContext& r,
                                     const FrameMove& mv,
                                     std::uint64_t frame_epoch) {
  for (std::uint64_t attempts = 0;; ++attempts) {
    std::exception_ptr failure;
    bool fenced = false;
    try {
      perf::ScopedRegion region(*r.recorder,
                                mv.publish ? "produce" : "consume");
      if (mv.publish) {
        co_await mv.conn->put(mv.path, mv.bytes, mv.frame);
        if (mv.stamps != nullptr) (*mv.stamps)[mv.frame] = r.sim->now();
        if (mv.persist != nullptr) co_await mv.persist->persist(mv.frame + 1);
      } else {
        co_await mv.conn->get(mv.path, mv.bytes, mv.frame);
      }
    } catch (const net::NetError&) {
      failure = std::current_exception();
    } catch (const storage::IoError&) {
      failure = std::current_exception();
    } catch (const fs::FsError&) {
      failure = std::current_exception();
    } catch (const StaleEpochError&) {
      if (r.membership == nullptr) throw;
      fenced = true;
    }
    if (fenced) co_return MoveEnd::kFenced;
    if (failure == nullptr) co_return MoveEnd::kMoved;
    if (r.crash == nullptr || attempts >= kMaxFaultRetries) {
      std::rethrow_exception(failure);
    }
    if (rank_epoch(r) != frame_epoch) co_return MoveEnd::kCrashed;
    if (mv.stats != nullptr) ++mv.stats->fault_retries;
    perf::ScopedRegion wait(*r.recorder, "fault_retry",
                            perf::Category::kIdle);
    if (park_on_lost_peer(r, mv.peer_node)) {
      co_await r.crash->wait_up(mv.peer_node);
    } else {
      co_await r.sim->delay(kFaultRetryBackoff);
    }
  }
}

// Frame-fetch latency in microseconds, measured from the frame being both
// requested (`fetch_start`) and published (see RankContext::publish_times)
// to now.  A hedge can finish off the Lustre replica before the producer's
// own put() returns; the stamp is then still missing, the latency from
// availability is unmeasurable, and that (certainly-not-slow) fetch yields
// nothing.
inline std::optional<double> fetch_latency_us(
    TimePoint now, TimePoint fetch_start,
    const std::vector<TimePoint>* stamps, std::uint64_t f) {
  TimePoint avail = fetch_start;
  if (stamps != nullptr) {
    const TimePoint pub = (*stamps)[f];
    if (pub == TimePoint::origin()) return std::nullopt;
    avail = std::max(avail, pub);
  }
  return (now - avail).to_micros();
}

// Per-frame mean of a category inside a region subtree, in microseconds.
inline double per_frame_us(const perf::CallTree& tree,
                           std::string_view subtree, perf::Category cat,
                           std::uint64_t frames) {
  return tree.category_time(subtree, cat).to_micros() /
         static_cast<double>(frames);
}

// --- Edge wiring -----------------------------------------------------------

// One end of an edge: the override factory's connector when set, else the
// solution's standard connector.
inline std::unique_ptr<Connector> make_end(const ConnectorFactory& factory,
                                           const ConnectorSpec& spec,
                                           std::uint32_t pair, bool consumer) {
  return factory ? factory(spec, pair, consumer) : make_connector(spec);
}

// Routes an edge's path prefix to its consumer's node: the DYAD push-mode
// subscription and the stream plane's static route (first frames skip the
// KVS cold-start handshake, which stays as the fallback for routes learned
// at runtime).
inline void subscribe_consumer(Testbed& tb, Solution solution,
                               const std::string& prefix,
                               std::uint32_t node) {
  if (solution == Solution::kDyad && tb.params().dyad.push_mode) {
    tb.dyad_domain().subscribe(prefix, net::NodeId{node});
  }
  if (solution == Solution::kStream) {
    tb.stream_domain().subscribe(prefix, net::NodeId{node});
  }
}

// Wires one producer→consumer edge (a pipeline pair or a DAG edge) into
// `assets`: the level-triggered rendezvous of the manual-sync solutions
// (XFS, Lustre; null otherwise), the producer end on `pnode`, the
// consumer end on `cnode`, the consumer's route, and the edge's publish
// stamps for `frames` frames.  Returns the rendezvous.
inline ExplicitSync* wire_edge(Testbed& tb, Solution solution,
                               const ConnectorFactory& factory,
                               std::uint32_t edge, const std::string& prefix,
                               std::uint32_t pnode, perf::Recorder& prec,
                               std::uint32_t cnode, perf::Recorder& crec,
                               std::uint64_t frames, RankSetAssets& assets) {
  ExplicitSync* sync = nullptr;
  if (solution == Solution::kXfs || solution == Solution::kLustre) {
    sync = assets.syncs
               .emplace_back(std::make_unique<ExplicitSync>(tb.simulation()))
               .get();
  }
  assets.prod_conn.push_back(make_end(factory,
                                      {.testbed = &tb,
                                       .solution = solution,
                                       .node = pnode,
                                       .sync = sync,
                                       .recorder = &prec},
                                      edge, /*consumer=*/false));
  assets.cons_conn.push_back(make_end(factory,
                                      {.testbed = &tb,
                                       .solution = solution,
                                       .node = cnode,
                                       .sync = sync,
                                       .recorder = &crec},
                                      edge, /*consumer=*/true));
  subscribe_consumer(tb, solution, prefix, cnode);
  assets.pub_times.push_back(
      std::make_unique<std::vector<TimePoint>>(frames, TimePoint::origin()));
  return sync;
}

// Gives a rank its trace lane `lane` on `process` (no-op without a sink):
// frame markers and its recorder's region spans land there.
inline void attach_trace(RankContext& r, obs::TraceSink* sink,
                         const std::string& process, const std::string& lane) {
  if (sink == nullptr) return;
  r.trace = sink;
  r.track = sink->track(process, lane);
  r.frame_marker = sink->instant_series(r.track, "f=");
  r.recorder->set_trace(sink, r.track);
}

// --- Collectors ------------------------------------------------------------

// A DYAD consumer connector's protocol counters.
inline void add_dyad_consumer(const Connector& conn, obs::CounterMap& out) {
  const auto& dc =
      static_cast<const DyadConnector&>(conn.stats_target()).consumer();
  out.add("dyad_warm_hits", dc.warm_hits());
  out.add("dyad_kvs_waits", dc.kvs_waits());
  out.add("dyad_kvs_retries", dc.kvs_retries());
  out.add("dyad_recovery_retries", dc.recovery_retries());
  out.add("dyad_failovers", dc.failovers());
}

// One producer/consumer RankStats pair: frames produced and consumed, and
// the summed re-executions, fault retries and crash recoveries.
inline void add_rank_stats(const RankStats& prod, const RankStats& cons,
                           obs::CounterMap& out) {
  out.add("frames_produced", prod.frames_done);
  out.add("frames_consumed", cons.frames_done);
  out.add("frames_reexecuted", prod.reexecuted + cons.reexecuted);
  out.add("fault_retries", prod.fault_retries + cons.fault_retries);
  out.add("crash_recoveries", prod.crash_recoveries + cons.crash_recoveries);
}

// Per-node counters over compute nodes [first, end): DYAD daemon health
// (DYAD runs), stream staging (stream runs), torn local files, dropped
// dirty pages and page-cache hits/misses.
inline void add_node_counters(Testbed& tb, Solution solution,
                              std::uint32_t first, std::uint32_t end,
                              obs::CounterMap& out) {
  for (std::uint32_t n = first; n < end; ++n) {
    const auto& node = tb.node(n);
    if (solution == Solution::kDyad) {
      out.add("dyad_republishes", node.dyad->republishes());
      const auto& hs = node.dyad->health_state();
      out.add("dyad_hedges", hs.hedges);
      out.add("dyad_hedge_wins", hs.hedge_wins);
      out.add("dyad_hedge_cancels", hs.hedge_cancels);
      out.add("dyad_breaker_trips", hs.breaker.trips());
      out.add("dyad_breaker_fast_fails", hs.breaker_fast_fails);
      out.add("dyad_busy_retries", hs.busy_retries);
    }
    if (solution == Solution::kStream) {
      const auto& sn = *node.stream;
      out.add("stream_puts", sn.puts());
      out.add("stream_staged_hits", sn.staged_hits());
      out.add("stream_spills", sn.spills());
      out.add("stream_spill_reads", sn.spill_reads());
      out.add("stream_replays", sn.replays());
      out.add("stream_dup_drops", sn.dup_drops());
      out.add("stream_crash_drops", sn.crash_drops());
      out.add("stream_credit_waits", sn.credit_waits());
      out.add("stream_backpressure_stalls", sn.backpressure_stalls());
      out.add("stream_hedges", sn.hedges());
      out.add("stream_hedge_wins", sn.hedge_wins());
    }
    out.add("torn_writes", node.local_fs->torn_files());
    out.add("lost_dirty_pages", node.cache->dirty_dropped());
    out.add("cache_hits", node.cache->hits());
    out.add("cache_misses", node.cache->misses());
  }
}

// --- Repetition skeleton ---------------------------------------------------

// One repetition of the pipeline or DAG runner: the repetition's testbed
// over config.nodes, the crash monitor when the plan has crash windows,
// then wire(tb, crash, out) — which wires the rank tasks (spawning any
// background load itself) and returns them unspawned — a run to
// quiescence, collect(tb, out), the shared-service totals and the
// makespan.  Everything `wire` hands to the rank coroutines must be
// declared by the caller (it outlives the testbed built here).
template <class Wire, class Collect>
RepOutcome run_wired_repetition(const EnsembleConfig& config,
                                std::uint32_t rep, obs::TraceSink* trace,
                                Wire&& wire, Collect&& collect) {
  RepOutcome out;
  register_ensemble_counters(out.counters);
  Testbed tb(repetition_testbed(config.testbed, config.nodes,
                                config.base_seed, rep, trace));
  auto& sim = tb.simulation();
  // Crash/restart model: crash windows in the plan switch the rank loops
  // to their crash-aware form.
  fault::CrashMonitor* crash = nullptr;
  if (tb.fault_injector() != nullptr &&
      tb.fault_injector()->has_crash_windows()) {
    crash = &tb.fault_injector()->monitor();
  }
  TimePoint workload_end;
  sim.spawn(run_all_and_mark(sim, wire(tb, crash, out), workload_end));
  run_and_collect_shared(tb, out.counters);
  collect(tb, out);
  out.makespan_s = (workload_end - TimePoint::origin()).to_seconds();
  return out;
}

}  // namespace mdwf::workflow::core
