#ifndef EQIMPACT_CORE_AUDITORS_H_
#define EQIMPACT_CORE_AUDITORS_H_

#include <cstddef>
#include <vector>

namespace eqimpact {
namespace core {

/// Criteria for the equal-impact audit.
struct EqualImpactCriteria {
  /// Tail window (number of steps) over which the Cesaro averages must
  /// have stopped moving for convergence to be declared.
  size_t settle_window = 5;
  /// Movement tolerance within the tail window.
  double settle_tolerance = 0.02;
  /// Maximum allowed gap between the per-user limits r_i (Definition
  /// 3(ii) "all the r_i coincide").
  double coincidence_tolerance = 0.05;
  /// Set true when the audited series are themselves running averages
  /// (like the paper's ADR_i(k), equation (13)); the auditor then checks
  /// their limits directly instead of forming a second Cesaro average.
  /// Leave false for raw action series y_i(k) (Definition 3).
  bool series_are_running_averages = false;
};

/// Outcome of an equal-impact audit of one run (Definition 3).
struct EqualImpactReport {
  /// Estimated per-user limits r_i: the final Cesaro average of each
  /// user's action series.
  std::vector<double> limits;
  /// Whether each user's Cesaro-average series settled.
  std::vector<bool> settled;
  /// True if every user settled.
  bool all_settled = false;
  /// max_i r_i - min_i r_i.
  double coincidence_gap = 0.0;
  /// True if all_settled and the gap is within tolerance: the run is
  /// consistent with equal impact.
  bool equal_impact = false;
};

/// Audits per-user action series y_i(0..K) for equal impact: forms the
/// Cesaro averages (1/(k+1)) sum_j y_i(j), checks that they settle, and
/// that the settled values coincide across users. CHECK-fails on empty
/// input or mismatched lengths.
///
/// Note this audits *one realisation*; initial-condition independence
/// (the other half of Definition 3(i)) needs several runs — see
/// AuditInitialConditionIndependence.
EqualImpactReport AuditEqualImpact(
    const std::vector<std::vector<double>>& user_actions,
    const EqualImpactCriteria& criteria = EqualImpactCriteria());

/// Equal impact conditioned on non-protected classes (Definition 4):
/// users are grouped by `class_of` (values in [0, num_classes)) and the
/// coincidence requirement applies within each class separately.
/// The returned reports are indexed by class.
std::vector<EqualImpactReport> AuditEqualImpactConditioned(
    const std::vector<std::vector<double>>& user_actions,
    const std::vector<size_t>& class_of, size_t num_classes,
    const EqualImpactCriteria& criteria = EqualImpactCriteria());

/// Outcome of the initial-condition-independence audit.
struct InitialConditionReport {
  /// Per-user gap between limits across the runs.
  std::vector<double> per_user_gap;
  /// Largest of the per-user gaps.
  double max_gap = 0.0;
  /// True if max_gap is within the tolerance.
  bool independent = false;
};

/// Compares the per-user limits across several runs of the same loop
/// started from different initial conditions (different seeds / different
/// initial private states). Equal impact requires the limits to be
/// independent of the initial conditions. All runs must contain the same
/// number of users.
InitialConditionReport AuditInitialConditionIndependence(
    const std::vector<std::vector<std::vector<double>>>& runs_user_actions,
    double tolerance);

/// Outcome of the equal-treatment audit (Definition 1).
struct EqualTreatmentReport {
  /// Per-step gap between user actions: max_i y_i(k) - min_i y_i(k).
  std::vector<double> per_step_gap;
  /// Largest per-step gap.
  double max_gap = 0.0;
  /// True if the same constant action was produced by all users at all
  /// steps (within the tolerance) — Definition 1(ii).
  bool constant_action = false;
};

/// Audits one pass (or several) for equal treatment: all users' actions
/// equal a common constant r at every step. The paper's loops broadcast
/// the same pi(k) to every user, which is Definition 1(i), so the audit
/// concerns the actions. Deterministic uniform policies pass;
/// stochastic responses generally fail, which is exactly the paper's point
/// that equal treatment and equal impact are different properties.
EqualTreatmentReport AuditEqualTreatment(
    const std::vector<std::vector<double>>& user_actions, double tolerance);

/// Equal treatment conditioned on classes (Definition 2): the constant-
/// action requirement applies within each class. Reports indexed by class.
std::vector<EqualTreatmentReport> AuditEqualTreatmentConditioned(
    const std::vector<std::vector<double>>& user_actions,
    const std::vector<size_t>& class_of, size_t num_classes,
    double tolerance);

}  // namespace core
}  // namespace eqimpact

#endif  // EQIMPACT_CORE_AUDITORS_H_
