/**
 * @file
 * Independent output oracle for the conv engines.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <vector>

#include "common.hh"

namespace perfbench {

/** Largest relative error (max |got - want| / max |want|) accepted. */
constexpr double kOracleTolerance = 1e-9;

struct OracleReport
{
    size_t comparisons = 0;
    double max_rel_error = 0.0;
};

/**
 * Every conv layer of the three models, on its real activations from
 * `image`, through DirectEngine (Direct and Fft paths) and the ideal
 * PhotoFourierEngine (no converter quantization, zero-padded rows) on
 * the digital and the optical backend, against naiveConv. Each
 * comparison over kOracleTolerance is a failed check.
 */
OracleReport checkEnginesAgainstOracle(const nn::Tensor &image,
                                       Checks &checks);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
