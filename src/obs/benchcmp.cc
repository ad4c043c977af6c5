#include "src/obs/benchcmp.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cedar::obs {
namespace {

using util::JsonValue;

Status Refuse(const std::string& what) {
  return MakeError(ErrorCode::kFailedPrecondition, "benchcmp: " + what);
}

// Two decimals from 1 up; below that four significant digits, so a ratio
// such as a 0.2% model error does not print as 0.00.
std::string FormatValue(double value) {
  char out[32];
  std::snprintf(out, sizeof(out),
                std::fabs(value) >= 1 || value == 0 ? "%.2f" : "%.4g", value);
  return out;
}

}  // namespace

Result<BenchComparison> CompareBenchReports(const JsonValue& baseline,
                                            const JsonValue& candidate,
                                            double tolerance) {
  if (!baseline.is_object() || !candidate.is_object()) {
    return Refuse("reports must be JSON objects");
  }
  const double base_schema = baseline.NumberOr("schema_version", -1);
  const double cand_schema = candidate.NumberOr("schema_version", -1);
  if (base_schema < 0 || cand_schema < 0) {
    return Refuse(
        "missing schema_version (pre-schema BENCH files cannot be gated; "
        "regenerate the baseline)");
  }
  if (base_schema != cand_schema) {
    return Refuse("schema_version mismatch: baseline " +
                  std::to_string(static_cast<int>(base_schema)) +
                  " vs candidate " +
                  std::to_string(static_cast<int>(cand_schema)));
  }
  const std::string base_bench = baseline.StringOr("bench", "");
  const std::string cand_bench = candidate.StringOr("bench", "");
  if (base_bench.empty() || base_bench != cand_bench) {
    return Refuse("bench name mismatch: baseline '" + base_bench +
                  "' vs candidate '" + cand_bench + "'");
  }
  const std::string base_digest = baseline.StringOr("config_digest", "");
  const std::string cand_digest = candidate.StringOr("config_digest", "");
  if (base_digest != cand_digest) {
    return Refuse("config_digest mismatch (baseline '" + base_digest +
                  "' vs candidate '" + cand_digest +
                  "'): the workload shape changed — regenerate the baseline "
                  "instead of gating against it");
  }

  BenchComparison cmp;
  cmp.bench = base_bench;
  cmp.tolerance = tolerance;

  const JsonValue* base_metrics = baseline.Find("metrics");
  const JsonValue* cand_metrics = candidate.Find("metrics");
  if (base_metrics == nullptr || !base_metrics->is_object() ||
      cand_metrics == nullptr || !cand_metrics->is_object()) {
    return Refuse("missing metrics object");
  }

  for (const auto& [name, cand_metric] : cand_metrics->members()) {
    if (!cand_metric.is_object()) {
      continue;
    }
    MetricDelta delta;
    delta.name = name;
    delta.cand = cand_metric.NumberOr("value", 0);
    delta.direction = cand_metric.StringOr("direction", "info");
    delta.gated =
        delta.direction == "higher" || delta.direction == "lower";

    const JsonValue* base_metric = base_metrics->Find(name);
    if (base_metric == nullptr || !base_metric->is_object()) {
      if (delta.gated) {
        // A candidate-only GATED metric means the two reports measure
        // different gate sets — comparing them proves nothing. Refuse
        // (exit 2: regenerate the baseline), don't silently skip.
        return Refuse("gated metric '" + name +
                      "' is missing from the baseline: gate-set mismatch — "
                      "regenerate the baseline");
      }
      cmp.notes.push_back("metric '" + name +
                          "' is new (not in baseline); not gated");
      cmp.deltas.push_back(std::move(delta));
      continue;
    }
    delta.base = base_metric->NumberOr("value", 0);
    if (delta.base != 0) {
      delta.pct = (delta.cand - delta.base) / delta.base * 100.0;
    }
    // A baseline of 0 is gated like any other: a "lower" count that was 0
    // (failed allocations, say) regresses on its first rise.
    if (delta.gated) {
      if (delta.direction == "higher") {
        delta.regressed = delta.cand < delta.base * (1.0 - tolerance);
      } else {
        delta.regressed = delta.cand > delta.base * (1.0 + tolerance);
      }
    }
    cmp.regression |= delta.regressed;
    cmp.deltas.push_back(std::move(delta));
  }

  // A gated baseline metric the candidate no longer reports is a
  // regression: renames must not silently shrink the gate.
  for (const auto& [name, base_metric] : base_metrics->members()) {
    if (!base_metric.is_object() || cand_metrics->Find(name) != nullptr) {
      continue;
    }
    const std::string direction = base_metric.StringOr("direction", "info");
    if (direction == "higher" || direction == "lower") {
      MetricDelta delta;
      delta.name = name;
      delta.base = base_metric.NumberOr("value", 0);
      delta.direction = direction;
      delta.gated = true;
      delta.regressed = true;
      cmp.notes.push_back("gated metric '" + name +
                          "' missing from candidate — treated as regression");
      cmp.regression = true;
      cmp.deltas.push_back(std::move(delta));
    }
  }
  return cmp;
}

std::string FormatDeltaTable(const BenchComparison& comparison,
                             bool markdown) {
  std::string out;
  char line[256];
  // The name column is as wide as the longest name.
  int width = 6;  // "metric"
  for (const MetricDelta& d : comparison.deltas) {
    width = std::max(width, static_cast<int>(d.name.size()));
  }
  if (markdown) {
    out += "| metric | baseline | candidate | delta | gate |\n";
    out += "|---|---:|---:|---:|---|\n";
  } else {
    std::snprintf(line, sizeof(line), "%-*s %14s %14s %9s  %s\n", width,
                  "metric", "baseline", "candidate", "delta", "gate");
    out += line;
  }
  for (const MetricDelta& d : comparison.deltas) {
    const char* gate = !d.gated ? (d.direction == "info" ? "info" : "-")
                       : d.regressed ? "REGRESSED"
                                     : "ok";
    const std::string base = FormatValue(d.base);
    const std::string cand = FormatValue(d.cand);
    if (markdown) {
      std::snprintf(line, sizeof(line), "| %s | %s | %s | %+.1f%% | %s%s%s |\n",
                    d.name.c_str(), base.c_str(), cand.c_str(), d.pct,
                    d.regressed ? "**" : "", gate, d.regressed ? "**" : "");
    } else {
      std::snprintf(line, sizeof(line), "%-*s %14s %14s %+8.1f%%  %s\n",
                    width, d.name.c_str(), base.c_str(), cand.c_str(), d.pct,
                    gate);
    }
    out += line;
  }
  for (const std::string& note : comparison.notes) {
    out += markdown ? "\n> " + note + "\n" : "note: " + note + "\n";
  }
  std::snprintf(line, sizeof(line),
                markdown ? "\n**%s**: %s (tolerance %.0f%%)\n"
                         : "\n%s: %s (tolerance %.0f%%)\n",
                comparison.bench.c_str(),
                comparison.regression ? "REGRESSION" : "PASS",
                comparison.tolerance * 100.0);
  out += line;
  return out;
}

}  // namespace cedar::obs
