// Model-vs-measured validation harness (paper section 6).
//
// Replays the paper's simple-operation benchmarks against the real CFS and
// FSD implementations with a disk tracer attached, aggregates the *traced
// disk time* per operation class, and compares it with the analytical
// model's prediction for the same script with CPU steps removed. This is
// the apples-to-apples version of the section-6 claim: the tracer sees
// exactly the seek/rotation/transfer/controller micros the simulator
// charged, attributed to the innermost FS operation, so the comparison is
// free of the CPU-calibration constants.
//
// The paper: "the model almost always predicted performance to within five
// percent of measured performance." `model_validation_test` asserts every
// class stays within ValidationConfig::bound (default 10%).

#ifndef CEDAR_MODEL_VALIDATE_H_
#define CEDAR_MODEL_VALIDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/model/disk_model.h"
#include "src/model/scripts.h"

namespace cedar::model {

struct ValidationConfig {
  int ops_per_class = 100;
  std::uint32_t small_pages = 2;  // 1000-byte files
  double bound = 0.10;            // max relative error on disk time
};

// One operation class: a trace op-context name ("cfs.create", "fsd.read",
// ...) matched against one model script.
struct ValidationRow {
  std::string op_class;     // tracer op-context the measurement came from
  std::string script_name;  // the script evaluated against it
  double predicted_disk_us = 0;  // model, CPU steps removed
  double measured_disk_us = 0;   // traced seek+rot+xfer+controller, per op
  double predicted_total_us = 0;  // model including CPU steps
  double measured_total_us = 0;   // virtual-clock elapsed, per op
  double disk_error = 0;          // |pred-meas|/meas on disk time
  double total_error = 0;         // same on total time
  double requests_per_op = 0;     // traced disk requests per operation
};

struct ValidationReport {
  std::vector<ValidationRow> rows;
  double max_disk_error = 0;

  bool AllWithin(double bound) const {
    for (const auto& row : rows) {
      if (row.disk_error > bound) return false;
    }
    return true;
  }
};

// Runs the full benchmark (CFS create/open/read/delete, FSD
// create/open/read/delete on the default Dorado geometry) and returns the
// comparison. Deterministic: same config, same report.
ValidationReport RunPaperValidation(const ValidationConfig& config = {});

// The report as a markdown table in the EXPERIMENTS.md format.
std::string FormatValidationTable(const ValidationReport& report);

}  // namespace cedar::model

#endif  // CEDAR_MODEL_VALIDATE_H_
