// Layer probes of the traced run.  Each probe builds one layer on its own
// sim::Simulation, drives that layer's public API with the traffic shape of
// the workload, and returns host nanoseconds per operation (median of three
// trials).  They time the layer from outside; nothing inside the simulator
// is instrumented.
#pragma once

#include <cstdint>

#include "mdwf/common/bytes.hpp"
#include "mdwf/workflow/connector.hpp"
#include "workloads.hpp"

namespace perfbench {

// The traffic shape a probe copies from a workload.
struct Shape {
  std::uint32_t pairs = 1;  // concurrent producer->consumer flows
  std::uint32_t nodes = 2;  // compute nodes (>= 2)
  mdwf::Bytes frame{};      // bytes moved per frame
};

Shape shape_of(const Prepared& p);

// Spawned processes looping delay() plus call_after timer chains, two of
// each per flow (the producer and consumer ranks).  ns per fired event.
double probe_sim_ns_per_event(const Shape& s);
// PageCache write then read of one frame over a BlockDevice.  ns per page
// operation (cache hits + misses).
double probe_storage_ns_per_page_op(const Shape& s);
// KvsClient commit then lookup, one client per node.  ns per KVS operation.
double probe_kvs_ns_per_op(const Shape& s);
// Concurrent Network::transfer flows of one frame each.  ns per transfer.
double probe_net_ns_per_transfer(const Shape& s);
// LustreClient create/write/close/open/read/close of one frame.  ns per
// frame.
double probe_lustre_ns_per_frame(const Shape& s);
// One producer/consumer pair through make_connector: put, producer_sync,
// get, acknowledge.  ns per frame.
double probe_connector_ns_per_frame(const Shape& s,
                                    mdwf::workflow::Solution solution);
// parse_wfcommons over the committed fixtures.  ns per input byte.
double probe_wload_parse_ns_per_byte();

}  // namespace perfbench
