#include "mcs/node_config.h"

#include <array>
#include <charconv>
#include <sstream>

#include "simnet/check.h"

namespace pardsm::mcs {

namespace {

/// Reject trailing garbage loudly: a typo'd line should not half-parse.
void expect_done(std::istringstream& in, const std::string& line) {
  std::string extra;
  PARDSM_CHECK(!(in >> extra), "node spec: trailing tokens on line: " + line);
}

/// The shortest text that parses back to exactly `v` (a stream's default
/// six significant digits would round a rate on its way to the child).
std::string exact(double v) {
  std::array<char, 32> buf{};
  const auto r = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return {buf.data(), r.ptr};
}

}  // namespace

ProtocolKind parse_protocol(const std::string& name) {
  for (ProtocolKind k : all_protocols()) {
    if (name == to_string(k)) return k;
  }
  PARDSM_CHECK(false, "node spec: unknown protocol: " + name);
  return ProtocolKind::kPramPartial;  // unreachable
}

std::string serialize_node_spec(const NodeSpec& spec) {
  std::ostringstream out;
  out << "pardsm-node-v1\n";
  out << "protocol " << to_string(spec.protocol) << "\n";
  out << "name " << (spec.distribution.name.empty() ? "unnamed"
                                                    : spec.distribution.name)
      << "\n";
  out << "processes " << spec.distribution.process_count() << "\n";
  out << "vars " << spec.distribution.var_count << "\n";
  for (std::size_t p = 0; p < spec.distribution.per_process.size(); ++p) {
    out << "holds " << p;
    for (VarId x : spec.distribution.per_process[p]) out << " " << x;
    out << "\n";
  }
  for (std::size_t p = 0; p < spec.scripts.size(); ++p) {
    for (const ScriptOp& op : spec.scripts[p]) {
      out << "op " << p << " "
          << (op.kind == ScriptOp::Kind::kWrite ? "w" : "r") << " " << op.var
          << " " << op.value << " " << op.delay.us << "\n";
    }
  }
  const SocketOptions& s = spec.sockets;
  for (std::size_t p = 0; p < s.addrs.size(); ++p) {
    out << "addr " << p << " " << s.addrs[p] << "\n";
  }
  out << "node " << spec.node << "\n";
  out << "channel_drop " << exact(spec.channel.drop_probability) << "\n";
  out << "channel_duplicate " << exact(spec.channel.duplicate_probability)
      << "\n";
  out << "seed " << spec.seed << "\n";
  out << "incarnation " << s.incarnation << "\n";
  out << "listen_fd " << s.listen_fd << "\n";
  out << "heartbeat_period_us " << s.heartbeat_period.us << "\n";
  out << "heartbeat_timeout_us " << s.heartbeat_timeout.us << "\n";
  out << "chaos_disconnect " << exact(s.chaos.disconnect_probability)
      << "\n";
  out << "chaos_delay_min_us " << s.chaos.delay_min.us << "\n";
  out << "chaos_delay_max_us " << s.chaos.delay_max.us << "\n";
  out << "drain_idle_ms " << spec.drain_idle_ms << "\n";
  out << "drain_timeout_ms " << spec.drain_timeout_ms << "\n";
  out << "end\n";
  return out.str();
}

NodeSpec parse_node_spec(const std::string& text) {
  NodeSpec spec;
  std::istringstream lines(text);
  std::string line;
  bool saw_magic = false;
  bool saw_end = false;
  std::size_t processes = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (!saw_magic) {
      PARDSM_CHECK(line == "pardsm-node-v1",
                   "node spec: bad magic line: " + line);
      saw_magic = true;
      continue;
    }
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key == "end") {
      saw_end = true;
      break;
    } else if (key == "protocol") {
      std::string name;
      in >> name;
      spec.protocol = parse_protocol(name);
    } else if (key == "name") {
      in >> spec.distribution.name;
    } else if (key == "processes") {
      in >> processes;
      PARDSM_CHECK(processes > 0 && processes <= 1024,
                   "node spec: bad process count: " + line);
      spec.distribution.per_process.resize(processes);
      spec.scripts.resize(processes);
      spec.sockets.addrs.resize(processes);
    } else if (key == "vars") {
      in >> spec.distribution.var_count;
    } else if (key == "holds") {
      std::size_t p = 0;
      in >> p;
      PARDSM_CHECK(p < processes, "node spec: holds out of range: " + line);
      VarId x = kNoVar;
      while (in >> x) spec.distribution.per_process[p].push_back(x);
      PARDSM_CHECK(in.eof(), "node spec: malformed line: " + line);
      continue;  // consumed to end of line
    } else if (key == "op") {
      std::size_t p = 0;
      std::string kind;
      ScriptOp op;
      std::int64_t delay_us = 0;
      in >> p >> kind >> op.var >> op.value >> delay_us;
      PARDSM_CHECK(p < processes, "node spec: op out of range: " + line);
      PARDSM_CHECK(kind == "r" || kind == "w",
                   "node spec: bad op kind: " + line);
      op.kind = kind == "w" ? ScriptOp::Kind::kWrite : ScriptOp::Kind::kRead;
      op.delay = Duration{delay_us};
      spec.scripts[p].push_back(op);
    } else if (key == "addr") {
      std::size_t p = 0;
      std::string addr;
      in >> p >> addr;
      PARDSM_CHECK(p < processes, "node spec: addr out of range: " + line);
      spec.sockets.addrs[p] = addr;
    } else if (key == "node") {
      in >> spec.node;
    } else if (key == "channel_drop") {
      in >> spec.channel.drop_probability;
    } else if (key == "channel_duplicate") {
      in >> spec.channel.duplicate_probability;
    } else if (key == "seed") {
      in >> spec.seed;
    } else if (key == "incarnation") {
      in >> spec.sockets.incarnation;
    } else if (key == "listen_fd") {
      in >> spec.sockets.listen_fd;
    } else if (key == "heartbeat_period_us") {
      in >> spec.sockets.heartbeat_period.us;
    } else if (key == "heartbeat_timeout_us") {
      in >> spec.sockets.heartbeat_timeout.us;
    } else if (key == "chaos_disconnect") {
      in >> spec.sockets.chaos.disconnect_probability;
    } else if (key == "chaos_delay_min_us") {
      in >> spec.sockets.chaos.delay_min.us;
    } else if (key == "chaos_delay_max_us") {
      in >> spec.sockets.chaos.delay_max.us;
    } else if (key == "drain_idle_ms") {
      in >> spec.drain_idle_ms;
    } else if (key == "drain_timeout_ms") {
      in >> spec.drain_timeout_ms;
    } else {
      PARDSM_CHECK(false, "node spec: unknown key: " + line);
    }
    PARDSM_CHECK(!in.fail(), "node spec: malformed line: " + line);
    expect_done(in, line);
  }
  PARDSM_CHECK(saw_magic, "node spec: missing magic line");
  PARDSM_CHECK(saw_end, "node spec: missing end line");
  PARDSM_CHECK(processes > 0, "node spec: missing processes line");
  PARDSM_CHECK(spec.node != kNoProcess &&
                   static_cast<std::size_t>(spec.node) < processes,
               "node spec: node id out of range");
  for (const std::string& addr : spec.sockets.addrs) {
    PARDSM_CHECK(!addr.empty(), "node spec: missing addr for a process");
  }
  spec.sockets.total_processes = processes;
  spec.sockets.local_ids = {spec.node};
  return spec;
}

}  // namespace pardsm::mcs
