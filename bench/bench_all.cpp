// bench_all — run every bench binary and merge their JSON results.
//
//   $ ./bench/bench_all [--quick] [--out BENCH_ALL.json] [--baseline OLD.json]
//                       [--filter REGEX] [--list]
//
// Each bench_* binary understands --quick (skip google-benchmark timings,
// print the paper artifact and record counters only) and
// --json=<path> (where to write its BENCH_<name>.json).  bench_all invokes
// the siblings living next to its own binary, then splices the per-bench
// JSON files into one results document, so the perf trajectory of the
// repo is a single machine-readable artifact per run.
//
// --filter runs only the benches whose name matches REGEX (re-run a
// single bench without the whole suite); --list prints the bench names
// and exits.  ci.sh forwards $BENCH_FILTER as --filter.
//
// --baseline compares the freshly produced document against an earlier
// BENCH_ALL.json: rows are matched on (bench, label, protocol,
// distribution) and the wall_ns speedup is printed per row plus a
// geometric-mean summary, and a guarded "baseline" section is appended
// to the merged JSON.  Rows whose wall_ns is missing, zero or non-finite
// in either document are skipped (and counted) rather than turned into
// inf/NaN speedups.  The parser is deliberately minimal — it reads the
// line-oriented format this harness itself emits, not arbitrary JSON.
//
// --gate[=MIN] turns the baseline diff into a pass/fail perf smoke (ci.sh
// runs it against the committed BENCH_BASELINE.json): the run fails when
// any current row carries a non-finite wall_ns, when no rows match the
// baseline at all (a silently dead gate is a failure, not a pass), or
// when any matched row is wildly regressed — speedup below MIN (default
// 0.1, i.e. 10x slower).  The threshold is deliberately loose: quick-mode
// rows are short and CI machines are noisy, so the gate exists to catch
// order-of-magnitude regressions and NaN corruption, not percent drift.
// A ~100 us row can still spike past 10x on one noisy sample, so a bench
// with a row over the threshold is re-run up to twice more and every row
// is gated (and diffed) on its fastest sample: a real regression is slow
// each time.  The merged document keeps each bench's first run.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <regex>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

constexpr std::array kBenches = {
    "bench_fig1_sharegraph",    "bench_fig2_hoops",
    "bench_fig3_depchain",      "bench_fig456_checkers",
    "bench_fig789_bellman_ford", "bench_theorem1_relevance",
    "bench_theorem2_pram",      "bench_control_overhead",
    "bench_batching",
    "bench_latency",            "bench_checkers_scaling",
    "bench_oblivious_apps",     "bench_open_question",
    "bench_scenarios",          "bench_scale",
    "bench_sockets",            "bench_workload",
};

/// Bench-JSON schemas this runner understands.  The v4 row format is a
/// strict superset of v3 (new percentile columns only), so rows from
/// either version parse with the same line-oriented reader — which is
/// what lets --baseline diff a v3 BENCH_ALL.json against a v4 run.
/// Rows under any *other* schema are skipped (and counted) rather than
/// misparsed.
bool known_schema(const std::string& schema) {
  return schema == "pardsm-bench-v3" || schema == "pardsm-bench-v4";
}

std::string self_dir() {
  std::array<char, 4096> buf{};
  const auto n = ::readlink("/proc/self/exe", buf.data(), buf.size() - 1);
  std::string path = n > 0 ? std::string(buf.data(), static_cast<std::size_t>(n)) : ".";
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Value of a `"key": "string"` field on `line`, or "" if absent.
std::string string_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  const auto begin = pos + needle.size();
  const auto end = line.find('"', begin);
  return end == std::string::npos ? std::string{} : line.substr(begin, end - begin);
}

/// Value of a `"key": 123` numeric field on `line`, or -1 if absent.
double number_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::atof(line.c_str() + pos + needle.size());
}

/// Re-runs of a bench whose rows trip the --gate threshold.
constexpr int kGateReruns = 2;

/// wall_ns per (bench, label, protocol, distribution) row of a BENCH_ALL
/// document.  Rows whose wall_ns is missing, zero or non-finite are
/// counted into `skipped` instead of being kept: a 0/absent measurement
/// must never become an inf/NaN speedup downstream.  Non-finite rows are
/// additionally counted into `nonfinite` — the harness writes doubles
/// through finite_or(), so a NaN/inf here means a corrupted document and
/// the --gate smoke fails on it.
struct Rows {
  std::map<std::string, double> wall_ns;
  std::size_t skipped = 0;
  std::size_t nonfinite = 0;
};

Rows wall_ns_by_row(const std::string& doc) {
  Rows out;
  std::istringstream in(doc);
  std::string line;
  std::string bench;
  bool parseable = true;
  while (std::getline(in, line)) {
    const std::string b = string_field(line, "bench");
    if (!b.empty()) bench = b;
    const std::string schema = string_field(line, "schema");
    if (!schema.empty()) parseable = known_schema(schema);
    const std::string label = string_field(line, "label");
    if (label.empty()) continue;
    if (!parseable) {
      // A future (or foreign) schema version: its rows are not ours to
      // interpret — count them as unmatched instead of misparsing.
      ++out.skipped;
      continue;
    }
    const double wall_ns = number_field(line, "wall_ns");
    if (!std::isfinite(wall_ns)) {
      ++out.nonfinite;
      ++out.skipped;
      continue;
    }
    if (wall_ns <= 0) {
      ++out.skipped;
      continue;
    }
    const std::string key = bench + " | " + label + " | " +
                            string_field(line, "protocol") + " | " +
                            string_field(line, "distribution");
    out.wall_ns[key] = wall_ns;
  }
  return out;
}

/// True when some row of `current` is matched in `baseline` and slower
/// than it by more than 1/gate_min.
bool trips_gate(const std::map<std::string, double>& current,
                const Rows& baseline, double gate_min) {
  for (const auto& [key, new_ns] : current) {
    const auto it = baseline.wall_ns.find(key);
    if (it != baseline.wall_ns.end() && it->second / new_ns < gate_min) {
      return true;
    }
  }
  return false;
}

/// Outcome of the baseline diff, for the optional --gate verdict.
struct BaselineDiff {
  std::string json;           ///< "baseline" JSON section ("" = no match)
  std::size_t matched = 0;
  double min_speedup = 0.0;   ///< worst matched row (0 when none matched)
  std::size_t nonfinite_current = 0;  ///< corrupted rows in the new doc
};

/// Print the per-row speedup table and return the diff outcome; the JSON
/// "baseline" object holds only finite, guarded speedups (empty string
/// when nothing matched).  Skip counters are kept per document: a
/// quick-mode baseline is full of unmeasured rows that could never match
/// a filtered run — lumping them together would make the current run's
/// coverage look artificially low.
BaselineDiff diff_against_baseline(const Rows& baseline, const Rows& current) {
  BaselineDiff result;
  result.nonfinite_current = current.nonfinite;
  const std::size_t skipped_baseline = baseline.skipped;
  const std::size_t skipped_current = current.skipped;
  const auto& before = baseline.wall_ns;
  const auto& after = current.wall_ns;
  std::printf("\n%-72s %12s %12s %8s\n", "row (bench | label | protocol | dist)",
              "old ns", "new ns", "speedup");
  std::ostringstream rows;
  double log_sum = 0;
  std::size_t matched = 0;
  for (const auto& [key, new_ns] : after) {
    const auto it = before.find(key);
    if (it == before.end()) continue;
    // Both maps only hold finite wall_ns > 0, so the ratio is always a
    // finite, positive speedup.
    const double speedup = it->second / new_ns;
    std::printf("%-72s %12.0f %12.0f %7.2fx\n", key.c_str(), it->second,
                new_ns, speedup);
    if (matched != 0) rows << ",\n";
    rows << "      {\"row\": \"" << key << "\", \"old_ns\": " << it->second
         << ", \"new_ns\": " << new_ns << ", \"speedup\": " << speedup
         << "}";
    log_sum += std::log(speedup);
    result.min_speedup =
        matched == 0 ? speedup : std::min(result.min_speedup, speedup);
    ++matched;
  }
  result.matched = matched;
  if (matched == 0) {
    std::printf("[bench_all] baseline: no matching wall_ns rows "
                "(%zu current / %zu baseline rows unmeasured)\n",
                skipped_current, skipped_baseline);
    return result;
  }
  const double geomean = std::exp(log_sum / static_cast<double>(matched));
  std::printf("[bench_all] baseline: %zu rows matched, geomean speedup "
              "%.2fx, worst row %.2fx (%zu current / %zu baseline rows "
              "unmeasured, skipped)\n",
              matched, geomean, result.min_speedup, skipped_current,
              skipped_baseline);
  std::ostringstream os;
  os << "  \"baseline\": {\n    \"matched\": " << matched
     << ",\n    \"skipped_unmeasured_current\": " << skipped_current
     << ",\n    \"skipped_unmeasured_baseline\": " << skipped_baseline
     << ",\n    \"geomean_speedup\": " << geomean
     << ",\n    \"min_speedup\": " << result.min_speedup
     << ",\n    \"rows\": [\n" << rows.str() << "\n    ]\n  },\n";
  result.json = os.str();
  return result;
}

/// Run bench `name`, writing its JSON to `json`; returns the JSON body, or
/// "" (after reporting the failure) when the bench failed or wrote
/// nothing.
std::string run_bench(const std::string& dir, const std::string& name,
                      bool quick, const std::string& json) {
  std::string cmd = dir + "/" + name + " --json=" + json;
  if (quick) cmd += " --quick";
  std::cout << "[bench_all] " << name << (quick ? " (quick)" : "") << "\n";
  std::cout.flush();
  const int status = std::system(cmd.c_str());
  std::string body = read_file(json);
  if (status != 0 || body.empty()) {
    std::cerr << "[bench_all] FAILED: " << name;
    if (WIFSIGNALED(status)) {
      std::cerr << " (signal " << WTERMSIG(status) << ")";
    } else {
      std::cerr << " (exit " << WEXITSTATUS(status) << ")";
    }
    std::cerr << '\n';
    return {};
  }
  return body;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool list = false;
  bool out_explicit = false;
  bool gate = false;
  double gate_min = 0.1;  // a matched row 10x slower than baseline fails
  std::string out = "BENCH_ALL.json";
  std::string baseline;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--gate") {
      gate = true;
    } else if (arg.rfind("--gate=", 0) == 0) {
      gate = true;
      gate_min = std::atof(arg.c_str() + 7);
      if (!(gate_min > 0) || !std::isfinite(gate_min)) {
        std::cerr << "bench_all: --gate threshold must be a positive "
                     "number, got '" << arg << "'\n";
        return 2;
      }
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
      out_explicit = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
      out_explicit = true;
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline = arg.substr(11);
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline = argv[++i];
    } else if (arg.rfind("--filter=", 0) == 0) {
      filter = arg.substr(9);
    } else if (arg == "--filter" && i + 1 < argc) {
      filter = argv[++i];
    } else {
      std::cerr << "usage: bench_all [--quick] [--out BENCH_ALL.json] "
                   "[--baseline OLD.json] [--gate[=MIN_SPEEDUP]] "
                   "[--filter REGEX] [--list]\n";
      return 2;
    }
  }
  if (gate && baseline.empty()) {
    std::cerr << "bench_all: --gate requires --baseline\n";
    return 2;
  }

  if (list) {
    for (const char* name : kBenches) std::cout << name << '\n';
    return 0;
  }

  // A filtered run holds a subset of the rows: never clobber the default
  // full merged document with it unless the caller chose the path.
  if (!filter.empty() && !out_explicit) {
    out = "BENCH_FILTERED.json";
    std::cout << "[bench_all] --filter active: writing " << out
              << " (pass --out to override)\n";
  }

  std::regex filter_re;
  if (!filter.empty()) {
    try {
      filter_re = std::regex(filter);
    } catch (const std::regex_error& e) {
      std::cerr << "bench_all: bad --filter regex '" << filter
                << "': " << e.what() << '\n';
      return 2;
    }
  }

  const std::string dir = self_dir();
  std::vector<std::pair<std::string, std::string>> merged;  // name, body
  std::size_t selected = 0;
  int failures = 0;

  for (const char* name : kBenches) {
    if (!filter.empty() && !std::regex_search(name, filter_re)) continue;
    ++selected;
    const std::string json = "BENCH_" + std::string(name).substr(6) + ".json";
    std::string body = run_bench(dir, name, quick, json);
    if (body.empty()) {
      ++failures;
      continue;
    }
    merged.emplace_back(name, std::move(body));
  }

  if (selected == 0) {
    std::cerr << "bench_all: --filter '" << filter
              << "' matched no benches (try --list)\n";
    return 2;
  }

  std::ostringstream benches_json;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    benches_json << merged[i].second;
    if (i + 1 < merged.size()) benches_json << ",";
    benches_json << "\n";
  }

  // The guarded baseline diff runs before the write so its (finite-only)
  // speedup rows land inside the merged document.
  std::string baseline_json;
  int gate_failures = 0;
  if (!baseline.empty()) {
    const std::string baseline_doc = read_file(baseline);
    if (baseline_doc.empty()) {
      std::cerr << "[bench_all] cannot read baseline " << baseline << '\n';
      return 1;
    }
    const Rows baseline_rows = wall_ns_by_row(baseline_doc);
    Rows current = wall_ns_by_row(benches_json.str());
    if (gate) {
      for (const auto& [name, body] : merged) {
        std::map<std::string, double> fastest = wall_ns_by_row(body).wall_ns;
        for (int rerun = 1; rerun <= kGateReruns &&
                            trips_gate(fastest, baseline_rows, gate_min);
             ++rerun) {
          std::cout << "[bench_all] " << name << ": a row is over the gate, "
                    << "re-run " << rerun << "/" << kGateReruns << "\n";
          const std::string json = "BENCH_" + name.substr(6) + "_rerun.json";
          const std::string again = run_bench(dir, name, quick, json);
          std::remove(json.c_str());
          if (again.empty()) {
            ++failures;
            break;
          }
          for (const auto& [key, ns] : wall_ns_by_row(again).wall_ns) {
            const auto it = fastest.find(key);
            if (it != fastest.end()) it->second = std::min(it->second, ns);
          }
        }
        for (const auto& [key, ns] : fastest) current.wall_ns[key] = ns;
      }
    }
    const BaselineDiff diff = diff_against_baseline(baseline_rows, current);
    baseline_json = diff.json;
    if (gate) {
      if (diff.nonfinite_current != 0) {
        std::cerr << "[bench_all] GATE FAILED: " << diff.nonfinite_current
                  << " current rows carry non-finite wall_ns\n";
        ++gate_failures;
      }
      if (diff.matched == 0) {
        std::cerr << "[bench_all] GATE FAILED: no rows matched the "
                     "baseline (dead gate)\n";
        ++gate_failures;
      } else if (diff.min_speedup < gate_min) {
        std::cerr << "[bench_all] GATE FAILED: worst matched row speedup "
                  << diff.min_speedup << "x is below the --gate threshold "
                  << gate_min << "x\n";
        ++gate_failures;
      }
      if (gate_failures == 0) {
        std::cout << "[bench_all] gate passed: " << diff.matched
                  << " rows within " << gate_min << "x of baseline\n";
      }
    }
  }

  std::ostringstream doc;
  doc << "{\n  \"schema\": \"pardsm-bench-v4\",\n  \"quick\": "
      << (quick ? "true" : "false") << ",\n" << baseline_json
      << "  \"benches\": [\n" << benches_json.str() << "  ]\n}\n";

  std::ofstream os(out);
  os << doc.str();
  os.close();

  std::cout << "[bench_all] wrote " << out << " (" << merged.size() << "/"
            << selected << " selected benches)\n";
  return failures == 0 && gate_failures == 0 ? 0 : 1;
}
