// Node bootstrap configuration: the serialized contract between the
// pardsm_node spawn parent and its child node processes.
//
// A NodeSpec is everything one OS process needs to join a multi-process
// deployment: the protocol, the full variable distribution (every node
// derives the same share graph), every process's script, the run's
// channel rates and seed, every peer's address and the socket-root
// tuning knobs.  The parent writes one spec per child (differing only in
// `node` and the sockets' `incarnation` and `listen_fd`) to a file; the
// child parses it back with parse_node_spec().
//
// The format is a deliberately boring line-oriented text file — one
// "key value..." pair per line, `#` comments, order-insensitive except
// that the magic line comes first and `processes` precedes every `holds`,
// `op` and `addr` line (they are range-checked against it) — so a spec
// is diffable in a failing CI log and writable by hand for ad-hoc
// deployments (docs/DEPLOYMENT.md walks through one).  parse errors
// throw std::logic_error with the offending line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mcs/engine.h"
#include "sharegraph/share_graph.h"

namespace pardsm::mcs {

/// One node's view of a multi-process deployment.
struct NodeSpec {
  ProtocolKind protocol = ProtocolKind::kPramPartial;
  graph::Distribution distribution;
  std::vector<Script> scripts;  ///< one per process (all nodes know all)

  /// Which process this spec instantiates.
  ProcessId node = kNoProcess;

  /// The run's loss and duplication rates (a lossy channel puts ARQ above
  /// the sockets, as needs_arq decides in-process) and the seed of every
  /// draw, as EngineConfig::channel and sim_seed.
  ChannelOptions channel;
  std::uint64_t seed = 1;

  /// The socket root's options, applied verbatim: peer addresses ("host:
  /// port" per process), this process's incarnation and inherited
  /// listening socket (-1 = bind our own at addrs[node]; the fd travels
  /// by inheritance across fork/exec), heartbeats and chaos.  Parsing
  /// derives total_processes and local_ids = {node}.
  SocketOptions sockets;

  /// Settle parameters: a node is done when no non-heartbeat activity has
  /// happened for `drain_idle_ms` (bounded by `drain_timeout_ms`).
  std::uint32_t drain_idle_ms = 200;
  std::uint32_t drain_timeout_ms = 30000;
};

/// Round-trip protocol names ("pram-partial" etc., as to_string emits).
[[nodiscard]] ProtocolKind parse_protocol(const std::string& name);

/// Serialize / parse the spec (see the file comment for the format).
[[nodiscard]] std::string serialize_node_spec(const NodeSpec& spec);
[[nodiscard]] NodeSpec parse_node_spec(const std::string& text);

}  // namespace pardsm::mcs
