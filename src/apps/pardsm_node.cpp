// pardsm_node — multi-process deployment bootstrap for the sockets root.
//
// Two roles in one binary:
//
//   pardsm_node --spawn [flags]
//     The orchestrating parent.  Builds a distribution and a
//     single-writer-per-variable workload, binds one loopback listening
//     socket per node (ports chosen by the kernel), writes one NodeSpec
//     file per node and fork/execs the children with their listening
//     sockets inherited.  Optionally SIGKILLs one node mid-run and
//     respawns it with a bumped incarnation on the *same* inherited
//     socket — the kernel backlog holds the peers' reconnect attempts
//     across the kill, so a rejoin needs no re-coordination.  Afterwards
//     it aggregates the children's result files, checks message/byte
//     conservation (lossless runs) and compares every node's final
//     replica state against a lossless sequential reference run of the
//     same workload on the simulator.  Exit 0 iff everything converged.
//
//   pardsm_node --node <spec> <result>
//     One node.  Parses the spec, instantiates its McsProcess above a
//     SocketTransport (local_ids = {node}) — through a ReliableTransport
//     when the spec's chaos drops or duplicates frames — runs its script with
//     wall-clock think-time pacing, and participates in the DONE/FINISH
//     control-frame barrier: every node reports DONE to node 0 when its
//     script (and, after a respawn, its re-sync) completed; node 0
//     broadcasts FINISH when all n are done; everyone then drains and
//     writes its result file.  A respawned node announces itself with a
//     bumped incarnation, which clears its stale DONE at node 0 and
//     routes it through crash()/recover() + RSYNC before it re-runs its
//     script.
//
// See docs/DEPLOYMENT.md for a walkthrough.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mcs/engine.h"
#include "mcs/factory.h"
#include "mcs/node_config.h"
#include "sharegraph/topologies.h"
#include "simnet/reliable.h"

namespace pardsm::mcs {
namespace {

// Barrier control frames (SocketTransport's out-of-band plane).
constexpr std::uint32_t kCtrlDone = 1;    ///< arg = sender's incarnation
constexpr std::uint32_t kCtrlFinish = 2;  ///< node 0 -> everyone

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  PARDSM_CHECK(in.good(), "pardsm_node: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  PARDSM_CHECK(out.good(), "pardsm_node: cannot write " + path);
  out << text;
  PARDSM_CHECK(out.good(), "pardsm_node: short write to " + path);
}

/// Wait on `cv` until `done()` holds.  A handler that throws on a mailbox
/// worker may leave `done()` false for good, so the wait also polls for a
/// held handler exception: it then halts the transport (no worker still
/// runs a task that captured the caller's locals) and rethrows it.
template <class Done>
void await_handler(SocketTransport& st, std::condition_variable& cv,
                   std::unique_lock<std::mutex>& lk, Done done) {
  while (!cv.wait_for(lk, std::chrono::milliseconds(10), done)) {
    try {
      st.rethrow_failure();
    } catch (...) {
      lk.unlock();  // a worker may need it to signal completion
      st.halt();
      throw;
    }
  }
}

/// Run one closure on the mailbox thread owning `who` and wait for it.
void on_mailbox(SocketTransport& st, ProcessId who,
                const std::function<void()>& fn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  st.post(who, [&] {
    fn();
    std::lock_guard<std::mutex> lk(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lk(mu);
  await_handler(st, cv, lk, [&] { return done; });
}

// ---------------------------------------------------------------------------
// --node: one deployment participant.
// ---------------------------------------------------------------------------

/// Paced script runner: issues each operation on the owner mailbox after
/// sleeping its think-time delay on this (the main) thread, and waits for
/// the completion before moving on.  Wall-clock pacing is what stretches
/// a workload across a kill window.
void run_script(SocketTransport& st, McsProcess& proc, const Script& script) {
  std::mutex mu;
  std::condition_variable cv;
  bool op_done = false;
  for (const ScriptOp& op : script) {
    if (op.delay.us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(op.delay.us));
    }
    op_done = false;
    st.post(proc.id(), [&] {
      const auto complete = [&] {
        std::lock_guard<std::mutex> lk(mu);
        op_done = true;
        cv.notify_all();
      };
      if (op.kind == ScriptOp::Kind::kRead) {
        proc.read(op.var, [complete](Value) { complete(); });
      } else {
        proc.write(op.var, op.value, complete);
      }
    });
    std::unique_lock<std::mutex> lk(mu);
    await_handler(st, cv, lk, [&] { return op_done; });
  }
}

int run_node(const std::string& spec_path, const std::string& result_path) {
  const NodeSpec spec = parse_node_spec(read_file(spec_path));
  const std::size_t n = spec.distribution.process_count();
  const auto me_id = spec.node;

  SocketTransport st(spec.sockets);
  // Declares m: frames mentioning a variable outside it are rejected, and
  // the exposure maps are reserved (as the engine does in-process).
  st.stats().set_var_hint(spec.distribution.var_count);
  // Chaos that loses or duplicates frames needs ARQ above the sockets, as
  // the engine's automatic reliability mode arranges in-process.
  const ChaosOptions& chaos = spec.sockets.chaos;
  std::optional<ReliableTransport> arq;
  if (chaos.drop_probability > 0.0 || chaos.duplicate_probability > 0.0) {
    arq.emplace(st, ReliableOptions{});
  }
  HostTransport& stack = arq ? static_cast<HostTransport&>(*arq) : st;
  HistoryRecorder recorder(n, spec.distribution.var_count);
  auto processes = make_processes(spec.protocol, spec.distribution, recorder);
  McsProcess& me = *processes[static_cast<std::size_t>(me_id)];
  const ProcessId assigned = stack.add_endpoint(&me);
  PARDSM_CHECK(assigned == me_id, "pardsm_node: endpoint id mismatch");
  me.attach(stack);

  // DONE/FINISH barrier state (node 0 coordinates; everyone waits).
  std::mutex barrier_mu;
  std::condition_variable barrier_cv;
  std::vector<bool> done(n, false);
  std::vector<std::uint64_t> inc_seen(n, 0);
  bool finish = false;
  st.set_control_callback(
      [&](ProcessId from, std::uint32_t code, std::uint64_t) {
        std::lock_guard<std::mutex> lk(barrier_mu);
        if (code == kCtrlDone) {
          done[static_cast<std::size_t>(from)] = true;
        } else if (code == kCtrlFinish) {
          finish = true;
        }
        barrier_cv.notify_all();
      });
  // A bumped incarnation is a respawned peer: its previous DONE (if any)
  // is stale — it must re-sync and re-run before the run can finish.
  st.set_peer_callback([&](ProcessId peer, bool up, std::uint64_t inc) {
    std::lock_guard<std::mutex> lk(barrier_mu);
    if (up && inc > inc_seen[static_cast<std::size_t>(peer)]) {
      if (inc_seen[static_cast<std::size_t>(peer)] > 0) {
        done[static_cast<std::size_t>(peer)] = false;
      }
      inc_seen[static_cast<std::size_t>(peer)] = inc;
    }
    barrier_cv.notify_all();
  });

  // Declared after the process and the barrier state the callbacks touch.
  const HaltOnExit halt_on_exit(st);
  st.start();

  // A respawned node rejoins through the crash/recovery machinery: its
  // fresh replicas are re-synced from the share-graph neighbours before
  // the script re-runs (kill tests give the victim an idempotent script).
  if (spec.incarnation > 1) {
    on_mailbox(st, me_id, [&] {
      me.crash();
      me.recover();
    });
    bool resyncing = true;
    while (resyncing) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      on_mailbox(st, me_id, [&] { resyncing = me.resync_in_progress(); });
    }
  }

  run_script(st, me, spec.scripts[static_cast<std::size_t>(me_id)]);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(spec.drain_timeout_ms);
  if (me_id == 0) {
    {
      std::lock_guard<std::mutex> lk(barrier_mu);
      done[0] = true;
    }
    std::unique_lock<std::mutex> lk(barrier_mu);
    const bool all = barrier_cv.wait_until(lk, deadline, [&] {
      for (bool d : done) {
        if (!d) return false;
      }
      return true;
    });
    lk.unlock();
    if (!all) {
      std::cerr << "pardsm_node: node 0 timed out waiting for DONE\n";
    }
    for (std::size_t p = 1; p < n; ++p) {
      st.send_control(static_cast<ProcessId>(p), kCtrlFinish, 0);
    }
  } else {
    st.send_control(0, kCtrlDone, spec.incarnation);
    std::unique_lock<std::mutex> lk(barrier_mu);
    if (!barrier_cv.wait_until(lk, deadline, [&] { return finish; })) {
      std::cerr << "pardsm_node: node " << me_id
                << " timed out waiting for FINISH\n";
    }
  }

  // Settle: the barrier says every script completed, drain() says the
  // resulting traffic stopped moving.
  st.drain(std::chrono::milliseconds(spec.drain_idle_ms),
           std::chrono::milliseconds(spec.drain_timeout_ms));

  // Snapshot on the owner mailbox — replica state is owner-thread-only.
  std::vector<ReplicaEntry> replicas;
  RecoveryStats rstats;
  on_mailbox(st, me_id, [&] {
    for (VarId x : me.store().vars()) {
      const Stored& s = me.store().get(x);
      replicas.push_back({x, s.value, s.source});
    }
    rstats = me.recovery_stats();
  });
  // Before the result is written: a node whose protocol threw leaves no
  // result file, only its message and a nonzero exit.
  st.stop();

  const ProcessTraffic traffic = st.stats().total();
  const SocketCounters wire = st.counters();
  std::ostringstream out;
  out << "pardsm-node-result-v1\n";
  out << "node " << me_id << "\n";
  out << "incarnation " << spec.incarnation << "\n";
  out << "sent " << traffic.msgs_sent << " "
      << traffic.control_bytes_sent + traffic.payload_bytes_sent << "\n";
  out << "received " << traffic.msgs_received << " "
      << traffic.control_bytes_received + traffic.payload_bytes_received
      << "\n";
  out << "frames " << wire.frames_sent << " " << wire.frames_received << "\n";
  out << "heartbeats " << wire.heartbeats_sent << " "
      << wire.heartbeats_received << "\n";
  out << "dials " << wire.dials << "\n";
  out << "reconnects " << wire.reconnects << "\n";
  out << "peer_down " << wire.peer_down_events << "\n";
  out << "peer_up " << wire.peer_up_events << "\n";
  out << "resync_applied " << rstats.resync_values_applied << "\n";
  for (const ReplicaEntry& r : replicas) {
    out << "replica " << r.x << " " << r.value << " " << r.source.writer
        << " " << r.source.seq << "\n";
  }
  out << "end\n";
  write_file(result_path, out.str());
  return 0;
}

// ---------------------------------------------------------------------------
// --spawn: the orchestrating parent.
// ---------------------------------------------------------------------------

struct SpawnOptions {
  std::string protocol = "pram-partial";
  std::size_t nodes = 3;
  std::size_t writes = 6;
  std::int64_t delay_us = 2000;
  ProcessId kill = kNoProcess;
  std::uint32_t kill_after_ms = 150;
  std::uint32_t respawn_after_ms = 400;
  double chaos_disconnect = 0.0;
  double chaos_drop = 0.0;
  std::string dir = "/tmp";
  bool verbose = false;
};

/// One aggregated child result (parsed back from its result file).
struct NodeResult {
  std::uint64_t msgs_sent = 0, bytes_sent = 0;
  std::uint64_t msgs_received = 0, bytes_received = 0;
  std::uint64_t reconnects = 0, peer_down = 0, peer_up = 0;
  std::uint64_t resync_applied = 0;
  std::vector<ReplicaEntry> replicas;
};

NodeResult parse_result(const std::string& text) {
  NodeResult r;
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);
  PARDSM_CHECK(line == "pardsm-node-result-v1",
               "pardsm_node: bad result magic: " + line);
  while (std::getline(lines, line)) {
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key == "end") return r;
    if (key == "sent") {
      in >> r.msgs_sent >> r.bytes_sent;
    } else if (key == "received") {
      in >> r.msgs_received >> r.bytes_received;
    } else if (key == "reconnects") {
      in >> r.reconnects;
    } else if (key == "peer_down") {
      in >> r.peer_down;
    } else if (key == "peer_up") {
      in >> r.peer_up;
    } else if (key == "resync_applied") {
      in >> r.resync_applied;
    } else if (key == "replica") {
      ReplicaEntry e;
      in >> e.x >> e.value >> e.source.writer >> e.source.seq;
      r.replicas.push_back(e);
    }  // other keys are informational
    PARDSM_CHECK(!in.fail(), "pardsm_node: malformed result line: " + line);
  }
  PARDSM_CHECK(false, "pardsm_node: result file missing end line");
  return r;
}

/// Bind a loopback listener on a kernel-chosen port.  The fd is inherited
/// across fork/exec (no CLOEXEC) so children — and respawned children —
/// accept on the parent's binding.
int bind_listener(std::uint16_t& port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PARDSM_CHECK(fd >= 0, "pardsm_node: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  PARDSM_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
                   0,
               "pardsm_node: bind() failed");
  PARDSM_CHECK(::listen(fd, 128) == 0, "pardsm_node: listen() failed");
  socklen_t len = sizeof(addr);
  PARDSM_CHECK(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "pardsm_node: getsockname() failed");
  port_out = ntohs(addr.sin_port);
  return fd;
}

pid_t spawn_child(const std::string& exe, const std::string& spec_path,
                  const std::string& result_path) {
  const pid_t pid = ::fork();
  PARDSM_CHECK(pid >= 0, "pardsm_node: fork() failed");
  if (pid == 0) {
    ::execl(exe.c_str(), exe.c_str(), "--node", spec_path.c_str(),
            result_path.c_str(), static_cast<char*>(nullptr));
    std::perror("pardsm_node: execl");
    ::_exit(127);
  }
  return pid;
}

int run_spawn(const std::string& exe, const SpawnOptions& opt) {
  PARDSM_CHECK(opt.nodes >= 2 && opt.nodes <= 64,
               "pardsm_node: --nodes out of range");
  PARDSM_CHECK(opt.kill == kNoProcess ||
                   (opt.kill > 0 &&
                    static_cast<std::size_t>(opt.kill) < opt.nodes),
               "pardsm_node: --kill must name a non-coordinator node");
  const std::size_t n = opt.nodes;
  const ProtocolKind protocol = parse_protocol(opt.protocol);

  // Workload: full replication, one variable per process, single writer
  // per variable (so the final replica state is order-independent and
  // comparable against the sequential reference), then one cross-read.
  // The kill victim runs a long idempotent read loop instead — it can be
  // killed at any point and re-run from the top after its re-sync.
  graph::Distribution dist = graph::topo::complete(n, n);
  std::vector<Script> scripts(n);
  for (std::size_t p = 0; p < n; ++p) {
    const auto pid = static_cast<ProcessId>(p);
    if (pid == opt.kill) {
      for (std::size_t k = 0; k < 40; ++k) {
        scripts[p].push_back(ScriptOp::read(
            static_cast<VarId>(k % n), Duration{opt.delay_us * 10}));
      }
      continue;
    }
    for (std::size_t k = 0; k < opt.writes; ++k) {
      scripts[p].push_back(
          ScriptOp::write(static_cast<VarId>(p),
                          static_cast<Value>(1000 * p + k),
                          Duration{opt.delay_us}));
    }
    scripts[p].push_back(
        ScriptOp::read(static_cast<VarId>((p + 1) % n), Duration{opt.delay_us}));
  }

  // Listeners first: every child knows every peer's real port up front.
  std::vector<int> listen_fds(n);
  std::vector<std::string> addrs(n);
  for (std::size_t p = 0; p < n; ++p) {
    std::uint16_t port = 0;
    listen_fds[p] = bind_listener(port);
    addrs[p] = "127.0.0.1:" + std::to_string(port);
  }

  const std::string base =
      opt.dir + "/pardsm_node_" + std::to_string(::getpid());
  const auto spec_path = [&](std::size_t p) {
    return base + "_n" + std::to_string(p) + ".spec";
  };
  const auto result_path = [&](std::size_t p) {
    return base + "_n" + std::to_string(p) + ".result";
  };

  const auto make_spec = [&](std::size_t p, std::uint64_t incarnation) {
    NodeSpec spec;
    spec.protocol = protocol;
    spec.distribution = dist;
    spec.scripts = scripts;
    spec.addrs = addrs;
    spec.node = static_cast<ProcessId>(p);
    spec.incarnation = incarnation;
    spec.listen_fd = listen_fds[p];
    spec.sockets.chaos.disconnect_probability = opt.chaos_disconnect;
    spec.sockets.chaos.drop_probability = opt.chaos_drop;
    return spec;
  };

  std::vector<pid_t> pids(n);
  for (std::size_t p = 0; p < n; ++p) {
    write_file(spec_path(p), serialize_node_spec(make_spec(p, 1)));
    ::unlink(result_path(p).c_str());
    pids[p] = spawn_child(exe, spec_path(p), result_path(p));
  }

  // The robustness drill: SIGKILL the victim mid-run, wait, respawn it
  // with a bumped incarnation on the same inherited listening socket.
  if (opt.kill != kNoProcess) {
    const auto v = static_cast<std::size_t>(opt.kill);
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.kill_after_ms));
    ::kill(pids[v], SIGKILL);
    int status = 0;
    ::waitpid(pids[v], &status, 0);
    if (opt.verbose) std::cerr << "pardsm_node: killed node " << v << "\n";
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opt.respawn_after_ms));
    write_file(spec_path(v), serialize_node_spec(make_spec(v, 2)));
    pids[v] = spawn_child(exe, spec_path(v), result_path(v));
    if (opt.verbose) std::cerr << "pardsm_node: respawned node " << v << "\n";
  }

  bool ok = true;
  for (std::size_t p = 0; p < n; ++p) {
    int status = 0;
    ::waitpid(pids[p], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "pardsm_node: node " << p << " exited abnormally\n";
      ok = false;
    }
  }
  for (std::size_t p = 0; p < n; ++p) ::close(listen_fds[p]);
  if (!ok) return 1;

  // Lossless sequential reference: same protocol, same workload, on the
  // deterministic simulator.  Single-writer variables make the final
  // replica state a pure function of the workload, so the sockets run
  // must land on exactly this state.
  EngineConfig ref;
  ref.protocol = protocol;
  ref.distribution = &dist;
  ref.scripts = &scripts;
  const ScenarioRunResult reference = run(std::move(ref));

  std::uint64_t sent = 0, received = 0, reconnects = 0;
  std::uint64_t peer_down = 0, peer_up = 0, resync_applied = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const NodeResult r = parse_result(read_file(result_path(p)));
    sent += r.msgs_sent;
    received += r.msgs_received;
    reconnects += r.reconnects;
    peer_down += r.peer_down;
    peer_up += r.peer_up;
    resync_applied += r.resync_applied;
    if (r.replicas != reference.final_replicas[p]) {
      std::cerr << "pardsm_node: node " << p
                << " final replicas diverge from the reference run\n";
      ok = false;
    }
  }

  // Dropped frames and their ARQ resends, or a killed node's lost
  // traffic, break sent == received.
  const bool lossless = opt.kill == kNoProcess &&
                        opt.chaos_disconnect == 0.0 && opt.chaos_drop == 0.0;
  if (lossless && sent != received) {
    std::cerr << "pardsm_node: conservation violated: sent " << sent
              << " != received " << received << "\n";
    ok = false;
  }
  if (opt.kill != kNoProcess) {
    if (peer_down == 0 || peer_up == 0) {
      std::cerr << "pardsm_node: kill drill saw no failure-detector "
                   "transitions\n";
      ok = false;
    }
    if (resync_applied == 0) {
      std::cerr << "pardsm_node: kill drill applied no re-sync values\n";
      ok = false;
    }
  }

  std::cout << "pardsm_node: " << (ok ? "OK" : "FAIL") << " protocol="
            << opt.protocol << " nodes=" << n << " sent=" << sent
            << " received=" << received << " reconnects=" << reconnects
            << " peer_down=" << peer_down << " peer_up=" << peer_up
            << " resync_applied=" << resync_applied << "\n";
  return ok ? 0 : 1;
}

int usage() {
  std::cerr
      << "usage:\n"
      << "  pardsm_node --node <spec-file> <result-file>\n"
      << "  pardsm_node --spawn [--protocol NAME] [--nodes N] [--writes K]\n"
      << "              [--delay-us D] [--kill ID] [--kill-after-ms MS]\n"
      << "              [--respawn-after-ms MS] [--chaos-disconnect P]\n"
      << "              [--chaos-drop P] [--dir PATH] [--verbose]\n";
  return 2;
}

int run_main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "--node") {
    if (argc != 4) return usage();
    return run_node(argv[2], argv[3]);
  }
  if (mode != "--spawn") return usage();
  SpawnOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      PARDSM_CHECK(i + 1 < argc, "pardsm_node: " + flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--protocol") {
      opt.protocol = value();
    } else if (flag == "--nodes") {
      opt.nodes = std::stoul(value());
    } else if (flag == "--writes") {
      opt.writes = std::stoul(value());
    } else if (flag == "--delay-us") {
      opt.delay_us = std::stol(value());
    } else if (flag == "--kill") {
      opt.kill = static_cast<ProcessId>(std::stol(value()));
    } else if (flag == "--kill-after-ms") {
      opt.kill_after_ms = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (flag == "--respawn-after-ms") {
      opt.respawn_after_ms = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (flag == "--chaos-disconnect") {
      opt.chaos_disconnect = std::stod(value());
    } else if (flag == "--chaos-drop") {
      opt.chaos_drop = std::stod(value());
    } else if (flag == "--dir") {
      opt.dir = value();
    } else if (flag == "--verbose") {
      opt.verbose = true;
    } else {
      return usage();
    }
  }
  return run_spawn(argv[0], opt);
}

}  // namespace
}  // namespace pardsm::mcs

int main(int argc, char** argv) {
  try {
    return pardsm::mcs::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pardsm_node: " << e.what() << "\n";
    return 1;
  }
}
