/**
 * @file
 * The traced run: per-layer metrics, each timed from the benchmark's
 * own code around calls into one module's public functions, plus the
 * measured-versus-modeled conv-layer table.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <string>

#include "common.hh"
#include "workloads.hh"

namespace perfbench {

/**
 * Largest relative gap accepted between a model's summed per-layer
 * self times and its whole logitsBatch time (both means over the middle
 * half of the repeats); a larger gap fails the run.
 */
constexpr double kLayerSumTolerance = 0.20;

/** Seconds of a serving workload run only to fill the serving-layer
 *  metrics of a traced run whose own workload has no such layer. */
constexpr double kBriefSeconds = 3.0;

/**
 * Print a summary of a timed phase (stdout), and fail the run when a
 * request failed, no image completed, or the open-loop generator fell
 * behind its schedule. A `brief` run (a traced run's few seconds of
 * another workload) has too few arrivals for a p99 that one host stall
 * does not set, so its lateness is only printed.
 */
void reportOutcome(const std::string &workload, const Outcome &outcome,
                   Checks &checks, bool brief = false);

/** Every per-layer metric of the traced run of `workload`. */
void perLayer(const std::string &workload, uint64_t seed,
              const Traffic &traffic, const Outcome &outcome,
              SpanRecorder &spans, Checks &checks, Metrics &metrics);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
