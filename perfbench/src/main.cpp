// The benchmark binary.  Runs one workload for a time budget and prints
// one JSON line with every end-to-end and per-layer figure it measured;
// perfbench/run.py builds this binary and selects the figures a run
// reports.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload lan_bcast|tenant_mix|"
               "lossy_trunk|loopback_bcast --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (key == "--trace-out") {
        o.trace_path = value;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (o.workload.empty()) {
    usage("--workload is required");
  }
  return o;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Metric>& metrics,
                         bool& finite) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    finite = finite && std::isfinite(m.value);
    out += (first ? "" : ", ") + quoted(name) + ": {\"value\": " +
           number(std::isfinite(m.value) ? m.value : 0.0) +
           ", \"unit\": " + quoted(m.unit) + "}";
    first = false;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Tracer tracer(options.trace);
  Result res;
  try {
    if (options.workload == "lan_bcast") {
      res = run_lan_bcast(options, tracer);
    } else if (options.workload == "tenant_mix") {
      res = run_tenant_mix(options, tracer);
    } else if (options.workload == "lossy_trunk") {
      res = run_lossy_trunk(options, tracer);
    } else if (options.workload == "loopback_bcast") {
      res = run_loopback_bcast(options, tracer);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const NotRun& e) {
    std::cerr << "perfbench: workload " << options.workload
              << " not run: " << e.what() << "\n";
    return 3;
  }
  if (options.trace) {
    probe_gf256(res, tracer);
    probe_posix_calls(res, tracer);
  }

  res.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  const double failed_frac =
      ratio(static_cast<double>(res.failed), static_cast<double>(res.attempted));
  res.e2e("completed_frac", 1.0 - failed_frac, "ratio");
  res.layer("failed_frac", failed_frac, "ratio");
  if (res.attempted == 0) {
    res.correct = false;
    res.notes.push_back("no collective was attempted");
  }
  if (res.failed > 0) {
    res.correct = false;
  }
  if (options.trace && !options.trace_path.empty()) {
    if (tracer.write(options.trace_path)) {
      std::cout << "trace: " << tracer.size() << " spans written to "
                << options.trace_path << "\n";
    } else {
      res.notes.push_back("could not write the trace file");
    }
  }

  for (const std::string& note : res.notes) {
    std::cout << "note: " << note << "\n";
  }
  bool finite = true;
  const std::string e2e = metrics_json(res.end_to_end, finite);
  const std::string layer = metrics_json(res.per_layer, finite);
  std::cout << "{\"correct\": " << (res.correct && finite ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed << ", \"end_to_end\": " << e2e
            << ", \"per_layer\": " << layer << "}" << std::endl;
  return 0;
}
