#include "testing/differential.hpp"

#include <cmath>
#include <sstream>

#include "core/cost.hpp"
#include "core/p1_model.hpp"
#include "core/roa.hpp"
#include "testing/invariants.hpp"
#include "testing/repro.hpp"
#include "util/check.hpp"

namespace sora::testing {
namespace {

using cloudnet::Instance;
using core::RoaOptions;
using core::RoaRun;
using linalg::max_abs_diff;

struct Backend {
  const char* name;
  RoaOptions options;
};

std::vector<Backend> roa_backends(const DiffOptions& diff) {
  RoaOptions reference = reference_roa_options();
  RoaOptions cold;
  cold.warm_start = false;
  RoaOptions warm;
  for (RoaOptions* o : {&reference, &cold, &warm}) o->ipm.tol = diff.ipm_tol;
  return {{"reference", reference}, {"cold", cold}, {"warm", warm}};
}

class Recorder {
 public:
  Recorder(DiffReport& report, const Instance& inst, const std::string& label,
           const DiffOptions& options)
      : report_(report), inst_(inst), label_(label), options_(options) {}

  void mismatch(const std::string& what, double magnitude) {
    DiffMismatch m{what, magnitude, ""};
    if (options_.dump_on_failure) {
      const std::string path = default_repro_path(label_);
      std::ostringstream context;
      context << "label: " << label_ << "\nmismatch: " << what
              << "\nmagnitude: " << magnitude;
      // An unwritable dump location must not mask the mismatch itself.
      try {
        dump_instance(inst_, path, context.str());
        m.repro_path = path;
      } catch (const util::CheckError&) {
        m.repro_path = "";
      }
    }
    report_.mismatches.push_back(std::move(m));
  }

  /// Record when `magnitude` exceeds `tol`.
  void require(const std::string& what, double magnitude, double tol) {
    if (magnitude > tol) mismatch(what, magnitude);
  }

 private:
  DiffReport& report_;
  const Instance& inst_;
  std::string label_;
  DiffOptions options_;
};

}  // namespace

RoaOptions reference_roa_options() {
  RoaOptions options;
  options.warm_start = false;
  options.resilience.enabled = false;
  options.ipm.dense_newton = true;
  return options;
}

std::string DiffReport::summary() const {
  std::ostringstream os;
  for (const auto& m : mismatches) {
    os << m.what << ": " << m.magnitude;
    if (!m.repro_path.empty()) os << " (repro: " << m.repro_path << ")";
    os << '\n';
  }
  return os.str();
}

DiffReport differential_roa(const Instance& inst, const std::string& label,
                            const DiffOptions& options) {
  DiffReport report;
  Recorder rec(report, inst, label, options);

  const std::vector<Backend> backends = roa_backends(options);
  std::vector<RoaRun> runs;
  runs.reserve(backends.size());
  for (const Backend& b : backends) {
    runs.push_back(core::run_roa(inst, b.options));
    // Every backend's trajectory must stand on its own: P1-feasible.
    const InvariantReport inv = check_trajectory(inst, runs.back().trajectory);
    if (!inv.ok()) {
      rec.mismatch(std::string(b.name) + " invariants: " +
                       inv.violations.front().invariant,
                   inv.violations.front().magnitude);
    }
  }

  // Pairwise agreement, always against the reference (index 0).
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const std::string pair =
        std::string(backends[0].name) + "-vs-" + backends[k].name;
    for (std::size_t t = 0; t < inst.horizon; ++t) {
      const auto& a = runs[0].trajectory.slots[t];
      const auto& b = runs[k].trajectory.slots[t];
      rec.require(pair + " x@t" + std::to_string(t), max_abs_diff(a.x, b.x),
                  options.primal_tol);
      rec.require(pair + " y@t" + std::to_string(t), max_abs_diff(a.y, b.y),
                  options.primal_tol);
      if (inst.has_tier1())
        rec.require(pair + " z@t" + std::to_string(t), max_abs_diff(a.z, b.z),
                    options.primal_tol);
    }
    const double ca = runs[0].cost.total();
    const double cb = runs[k].cost.total();
    rec.require(pair + " cost", std::fabs(ca - cb) / (1.0 + std::fabs(ca)),
                options.cost_tol);
  }

  return report;
}

DiffReport differential_lp(const Instance& inst, const std::string& label,
                           const DiffOptions& options) {
  DiffReport report;
  Recorder rec(report, inst, label, options);

  const std::size_t window = std::min<std::size_t>(2, inst.horizon);
  const core::Allocation prev = core::Allocation::zeros(inst.num_edges());
  const core::P1WindowLp lp(inst, core::InputSeries::truth(inst), 0, window,
                            prev);
  const solver::LpCrossCheck cc = solver::cross_check(lp.model());
  rec.require("lp objective gap", cc.objective_gap, options.lp_gap_tol);
  rec.require("lp simplex feasibility",
              lp.model().max_violation(cc.simplex.x), options.lp_feas_tol);
  rec.require("lp pdhg feasibility", lp.model().max_violation(cc.pdhg.x),
              options.lp_feas_tol);
  return report;
}

}  // namespace sora::testing
