#ifndef EQIMPACT_CREDIT_RACE_H_
#define EQIMPACT_CREDIT_RACE_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace eqimpact {
namespace credit {

/// Race categories of the paper's numerical illustration (Section VII):
/// the three Current Population Survey groups tracked in Figures 2-4.
///
/// Race is the *protected attribute* of the case study: the lender never
/// sees it, the auditors condition on it.
enum class Race : uint8_t {
  kBlackAlone = 0,
  kWhiteAlone = 1,
  kAsianAlone = 2,
};

/// Number of race categories.
inline constexpr size_t kNumRaces = 3;
// A cohort holds a race per user, in more than one copy: a byte each.
static_assert(sizeof(Race) == 1);

/// CPS label of a race ("BLACK ALONE", ...).
std::string RaceName(Race race);

/// The paper's 2002 household shares by race, in enum order:
/// [0.1235, 0.8406, 0.0359].
inline constexpr double kRaceShares2002[kNumRaces] = {0.1235, 0.8406, 0.0359};

}  // namespace credit
}  // namespace eqimpact

#endif  // EQIMPACT_CREDIT_RACE_H_
