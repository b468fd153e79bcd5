#pragma once

#include <algorithm>
#include <cstddef>

#include "mst/common/assert.hpp"
#include "mst/common/time.hpp"

/// \file search.hpp
/// The makespan form's horizon search.
///
/// Every exact makespan form here inverts a monotone decision form: the
/// optimal makespan of `n` tasks is the smallest horizon `T` whose
/// decision-form count reaches `n`.  A plain bisection of `[0, T∞]` pays
/// about `log2 T∞` count probes per solve, the first ones at horizons far
/// above the optimum, where the decision instance is largest.  A makespan
/// lower bound (bounds.hpp) usually sits at or next to the optimum, so the
/// search starts there instead:
///
///  * probe the floor; if it is feasible, probe `floor − 1` to certify it
///    is the minimum (and bisect below it in the unexpected case that it is
///    not);
///  * otherwise gallop up from the floor by doubling offsets, capped at the
///    ceiling, and bisect the last bracket.
///
/// Because of the certification the answer never depends on the floor: a
/// loose or even wrong bound costs probes, not correctness.  A tight floor
/// costs two probes; a floor `d` below the answer costs about `2·log2 d`.

namespace mst {

/// Smallest `T` in `[0, ceiling]` with `feasible(T)`, for a predicate that
/// is monotone (`feasible(T)` implies `feasible(T + 1)`) and holds at
/// `ceiling >= 0` — the ceiling itself is never probed.  `floor` is the
/// first guess; it is clamped into `[0, ceiling]`.  `feasible` is called
/// once per probe, so callers count probes by counting its calls.
template <typename Feasible>
Time min_feasible_horizon(Time floor, Time ceiling, Feasible&& feasible) {
  const Time start = std::clamp<Time>(floor, 0, ceiling);
  // Invariant of the final bisection: `bad` is infeasible (or −1), `good`
  // is feasible.
  Time bad = -1;
  Time good = ceiling;
  if (start < ceiling && !feasible(start)) {
    bad = start;
    // Gallop: offsets 1, 2, 4, … from the last infeasible probe; a probe
    // that would reach the ceiling is skipped, the ceiling being feasible.
    for (Time step = 1; step < good - bad;) {
      const Time probe = bad + step;
      if (feasible(probe)) {
        good = probe;
        break;
      }
      bad = probe;
      step = step <= (good - bad) / 2 ? 2 * step : good - bad;
    }
  } else {
    good = start;
    // Certify the floor: it is the answer iff one step below is infeasible.
    if (start > 0) {
      if (feasible(start - 1)) {
        good = start - 1;  // a wrong floor: fall back to bisecting below it
      } else {
        bad = start - 1;
      }
    }
  }
  while (good - bad > 1) {
    const Time mid = bad + (good - bad) / 2;
    if (feasible(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  return good;
}

/// Ceiling of a released makespan search: the identical ceiling `horizon`
/// shifted past the last release (always feasible).  Overflow-checked, and
/// a last release or ceiling at or above `kTimeInfinity` is refused by name.
inline Time released_ceiling(Time horizon, Time last_release) {
  Time ceiling = 0;
  const bool overflow = __builtin_add_overflow(horizon, last_release, &ceiling);
  MST_REQUIRE(last_release < kTimeInfinity && !overflow && ceiling < kTimeInfinity,
              "released ceiling: the last release and the horizon plus it must stay below "
              "kTimeInfinity");
  return ceiling;
}

/// The released makespan search of the chain, fork and spider workload
/// forms: the smallest horizon at which all `n` released tasks fit, for
/// the identical-workload ceiling `ceiling` and the makespan lower bound
/// `lower_bound(k)` of `k` identical tasks.  The floor adds the release
/// term to the bound — the last emission cannot start before the last
/// release, and that task alone still needs a one-task makespan — and the
/// ceiling is `released_ceiling(ceiling, last_release)`, computed first so
/// an out-of-domain release is refused before the floor's arithmetic.
template <typename LowerBound, typename Feasible>
Time min_released_horizon(std::size_t n, Time ceiling, Time last_release,
                          LowerBound&& lower_bound, Feasible&& feasible) {
  const Time top = released_ceiling(ceiling, last_release);
  const Time floor = std::max(lower_bound(n), last_release + lower_bound(1));
  return min_feasible_horizon(floor, top, feasible);
}

}  // namespace mst
